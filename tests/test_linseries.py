"""Jet-linear series: each operation equals the same Series operation
applied tag by tag."""

from hypothesis import given, settings
from hypothesis import strategies as st

from crrigid.jets import bar_key
from crrigid.linseries import LinSeries
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
               lambda: a.scale(3), lambda: a * s, lambda: s * a,
               lambda: a.partial("z"), lambda: a.conj(),
               lambda: a.project(capped), lambda: a.substitute(bind)):
        assert isinstance(op(), LinSeries)
        assert [snapshot(x) for x in operands] == before
