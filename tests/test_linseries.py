"""Jet-linear series: each operation equals the same Series operation
applied tag by tag."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crrigid.jets import LinRow, bar_key
from crrigid.linseries import LinSeries
from crrigid.scalars import ZERO, Scalar
from crrigid.series import Series, frame

from test_series import F, series_elems

TAGS = (("jet", 0, 1, 0), ("jet", 1, 0, 1), ("jetbar", 2, 2, 0))


@st.composite
def linseries_elems(draw):
    return LinSeries.from_tags(F, {t: draw(series_elems()) for t in TAGS})


def by_tag(ls):
    """The inverse of :meth:`LinSeries.from_tags`: one series per unknown."""
    coeffs = {}
    for exp, row in ls.coeffs.items():
        for tag, c in row.items():
            coeffs.setdefault(tag, {})[exp] = c
    return {tag: Series(ls.frame, co) for tag, co in coeffs.items()}


def tagwise(ls, op):
    """op applied to the series of every tag, zero results dropped."""
    out = {t: op(s) for t, s in by_tag(ls).items()}
    return {t: s for t, s in out.items() if not s.is_zero()}


@st.composite
def bindings(draw):
    """z and w bound to series of weighted order >= 1 and >= 2."""
    def drop_below(s, w):
        return Series(F, {e: c for e, c in s.coeffs.items()
                          if F.wdeg(e) >= w})
    return {"z": drop_below(draw(series_elems()), 1),
            "w": drop_below(draw(series_elems()), 2)}


@given(st.dictionaries(st.sampled_from(TAGS), series_elems()))
@settings(max_examples=30, deadline=None)
def test_from_tags_round_trip(comps):
    ls = LinSeries.from_tags(F, comps)
    assert by_tag(ls) == {t: s for t, s in comps.items() if not s.is_zero()}
    assert (not ls.coeffs) == all(s.is_zero() for s in comps.values())


@given(linseries_elems(), linseries_elems())
@settings(max_examples=30, deadline=None)
def test_add_and_sub(a, b):
    sa, sb = by_tag(a), by_tag(b)
    zero = Series.zero(F)
    for got, sign in ((a + b, 1), (a - b, -1)):
        want = {t: sa.get(t, zero) + sb.get(t, zero).scale(sign)
                for t in set(sa) | set(sb)}
        assert by_tag(got) == {t: s for t, s in want.items()
                                if not s.is_zero()}
    assert not (a - a).coeffs


@given(linseries_elems(), series_elems())
@settings(max_examples=30, deadline=None)
def test_mul_by_series(a, s):
    assert by_tag(a * s) == tagwise(a, lambda x: x * s)


@given(linseries_elems())
@settings(max_examples=30, deadline=None)
def test_partial(a):
    for var in ("z", "w"):
        assert by_tag(a.partial(var)) == tagwise(a, lambda x: x.partial(var))


@given(linseries_elems())
@settings(max_examples=30, deadline=None)
def test_project_onto_capped_frame(a):
    capped = frame("z", "w", order=5, weights=(1, 2), caps={"z": 2})
    got = a.project(capped)
    assert got.frame == capped
    assert by_tag(got) == tagwise(a, lambda x: x.project(capped))


@given(linseries_elems(), bindings())
@settings(max_examples=20, deadline=None)
def test_substitute(a, bind):
    assert by_tag(a.substitute(bind)) == \
        tagwise(a, lambda x: x.substitute(bind))


@given(linseries_elems())
@settings(max_examples=30, deadline=None)
def test_conj_swaps_jet_tags(a):
    want = {bar_key(t): s.conj() for t, s in by_tag(a).items()}
    assert by_tag(a.conj()) == want


@given(linseries_elems())
@settings(max_examples=30, deadline=None)
def test_coefficient_row(a):
    comps = by_tag(a)
    for e in [(m, n) for m in range(7) for n in range(4) if m + 2 * n <= 6]:
        want = {t: s.coefficient(e) for t, s in comps.items()
                if not s.coefficient(e).is_zero()}
        assert a.coefficient_row(e) == want
        assert (e in a.coeffs) == bool(want)


@given(linseries_elems(), linseries_elems())
@settings(max_examples=10, deadline=None)
def test_product_of_two_linseries_raises(a, b):
    """Two linear forms multiply to a quadratic form, which no series
    here holds."""
    with pytest.raises(TypeError):
        a * b
    with pytest.raises(TypeError):
        b * a


def test_absent_coefficient_is_a_fresh_empty_row():
    a = LinSeries.from_tags(F, {TAGS[0]: Series.variable(F, "z")})
    row = a.coefficient((0, 1))
    assert type(row) is LinRow and row == {}
    assert type(a.constant_term()) is LinRow and a.constant_term() == {}
    row += LinRow({TAGS[1]: Scalar(1)})
    assert a.coefficient((0, 1)) == {} and a.coefficient_row((0, 1)) == {}
    assert a.coefficient((1, 0)) == {TAGS[0]: Scalar(1)}
    # a Series still answers the Scalar zero
    for c in (Series.zero(F).coefficient((0, 1)),
              Series.zero(F).constant_term()):
        assert type(c) is Scalar and c == ZERO


def test_row_times_zero_is_empty():
    """A row holds no zero entries, so a zero factor gives the empty,
    falsy row, as a Scalar or an int; the factor stands on the right."""
    row = LinRow({TAGS[0]: Scalar(2), TAGS[2]: Scalar(1, 0, 1)})
    for prod in (row * 0, row * ZERO):
        assert type(prod) is LinRow and prod == {} and not prod
    assert row * Scalar(3) == {TAGS[0]: Scalar(6), TAGS[2]: Scalar(3, 0, 3)}
    for zero in (0, ZERO):
        with pytest.raises(TypeError):
            zero * row


def test_mixed_operands_raise_type_error():
    """A sum takes two series of one type and a product a plain Series on
    the right; numbers are no series (``scale`` multiplies by them).  The
    type is checked before the frame, and a mixed sum raises also where
    the supports are disjoint, as at w + a with a held at z."""
    a = LinSeries.from_tags(F, {TAGS[0]: Series.variable(F, "z")})
    far = LinSeries(frame("z", "w", order=4, weights=(1, 2)))
    s, w = Series.variable(F, "z"), Series.variable(F, "w")
    for op in (lambda: s * 3, lambda: 3 * s, lambda: s * ZERO,
               lambda: ZERO * s, lambda: s * a, lambda: a * 3,
               lambda: 3 * a, lambda: s * far,
               lambda: w + a, lambda: a + w, lambda: s + a, lambda: a + s,
               lambda: w - a, lambda: a - w, lambda: s + 3,
               lambda: w + far):
        with pytest.raises(TypeError):
            op()
    with pytest.raises(ValueError):     # one type, two frames
        a + far


def snapshot(s):
    """A deep copy of a series' coefficients; Scalars are never mutated."""
    return {e: dict(c) if isinstance(c, dict) else c
            for e, c in s.coeffs.items()}


@given(linseries_elems(), linseries_elems(), series_elems(), bindings())
@settings(max_examples=30, deadline=None)
def test_operations_return_linseries_and_keep_operands(a, b, s, bind):
    """Each operation builds a new LinSeries and leaves every operand's
    rows as they were: the products add into rows in place, which must
    be rows they formed themselves."""
    capped = frame("z", "w", order=5, weights=(1, 2), caps={"z": 2})
    operands = [a, b, s, *bind.values()]
    before = [snapshot(x) for x in operands]
    for op in (lambda: a + b, lambda: a - b, lambda: -a,
               lambda: a.scale(3), lambda: a * s,
               lambda: a.partial("z"), lambda: a.conj(),
               lambda: a.project(capped), lambda: a.substitute(bind)):
        assert isinstance(op(), LinSeries)
        assert [snapshot(x) for x in operands] == before
