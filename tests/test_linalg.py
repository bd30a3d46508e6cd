"""Exact sparse linear algebra over the scalar field."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crrigid.linalg import Eliminator, adjugate3, det3, integer_row, \
    rank_of, rref
from crrigid.scalars import Scalar

from closed_forms import ReferenceEliminator, in_span, kernel_of

I = Scalar(0, 0, 1)

entries = st.builds(
    lambda p, q, r: Scalar(Fraction(p, q), 0, Fraction(r, q), 0),
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=-4, max_value=4))


@st.composite
def matrices(draw, max_rows=6, ncols=5):
    nrows = draw(st.integers(min_value=1, max_value=max_rows))
    rows = []
    for _ in range(nrows):
        row = {}
        for c in range(ncols):
            if draw(st.booleans()):
                v = draw(entries)
                if not v.is_zero():
                    row[c] = v
        rows.append(row)
    return rows


def apply_row(row, vec):
    acc = Scalar(0)
    for c, v in row.items():
        if c in vec:
            acc = acc + v * vec[c]
    return acc


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rank_nullity(rows):
    ncols = 5
    assert rank_of(rows, ncols) + len(kernel_of(rows, ncols)) == ncols


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_kernel_annihilates_every_row(rows):
    """Every kernel vector must annihilate every input row.

    Regression guard: an earlier elimination variant only cleared pivot
    columns at the leading position, which produced correct ranks but
    wrong kernel vectors.
    """
    ncols = 5
    for vec in kernel_of(rows, ncols):
        for row in rows:
            assert apply_row(row, vec).is_zero()


def test_kernel_regression_late_pivot():
    # minimal matrix exhibiting the historical failure: a row whose
    # leading entry eliminates against an earlier pivot but leaves a
    # non-leading pivot column uncleared
    rows = [
        {0: Scalar(1), 2: Scalar(1)},
        {1: Scalar(1), 2: Scalar(1)},
        {0: Scalar(1), 1: Scalar(1), 3: Scalar(1)},
    ]
    kern = kernel_of(rows, 4)
    assert len(kern) == 1
    for row in rows:
        assert apply_row(row, kern[0]).is_zero()


@given(matrices())
@settings(max_examples=40, deadline=None)
def test_incremental_matches_batch(rows):
    ncols = 5
    el = Eliminator(ncols)
    grew = 0
    for r in rows:
        if el.add_row(integer_row(r)):
            grew += 1
    assert el.rank == grew == rank_of(rows, ncols)


@given(matrices())
@settings(max_examples=40, deadline=None)
def test_rref_canonical(rows):
    ncols = 5
    r1 = rref([dict(r) for r in rows], ncols)
    r2 = rref([dict(r) for r in r1], ncols)
    assert r1 == r2
    assert rank_of(r1, ncols) == rank_of(rows, ncols)
    assert r1 == rref(rows, ncols)


def test_in_span():
    basis = [{0: Scalar(1), 1: Scalar(1)}, {2: I}]
    assert in_span({0: Scalar(2), 1: Scalar(2), 2: Scalar(5)}, basis, 3)
    assert not in_span({0: Scalar(1)}, basis, 3)


# -- the integer-row eliminator against Scalar Gauss-Jordan -----------

#: which of the parts (a, b, c, e) of (a + b sqrt(2)) + i (c + e sqrt(2))
#: an entry of each shape may carry
SHAPES = {"rational": (1, 0, 0, 0), "gaussian": (1, 0, 1, 0),
          "sqrt2": (1, 1, 0, 0), "general": (1, 1, 1, 1)}

numerators = st.one_of(st.integers(-3, 3),
                       st.integers(-10 ** 30, 10 ** 30))
denominators = st.one_of(st.integers(1, 4), st.integers(1, 10 ** 12))


@st.composite
def field_elements(draw, shape=None):
    """An element of Q(i, sqrt(2)) of the given shape (else any), maybe
    zero, with numerators up to 10^30 and denominators up to 10^12."""
    keep = SHAPES[shape or draw(st.sampled_from(sorted(SHAPES)))]
    d = draw(denominators)
    return Scalar(*(Fraction(draw(numerators), d) if k else 0
                    for k in keep))


@st.composite
def row_streams(draw):
    """(ncols, rows, probes): rows of one shape or of mixed shapes, among
    them zero rows, repeats, multiples and sums of earlier rows, over
    columns some of which no row uses; probes are vectors in and out of
    the span."""
    ncols = draw(st.integers(1, 7))
    used = range(draw(st.integers(1, ncols)))
    shape = draw(st.sampled_from(sorted(SHAPES) + [None]))
    entry = field_elements(shape)
    nonzero = entry.filter(lambda x: not x.is_zero())

    def fresh():
        return {c: draw(entry) for c in used if draw(st.booleans())}

    def combination(rows):
        out = {}
        for r in draw(st.lists(st.sampled_from(rows), min_size=1,
                               max_size=3)):
            f = draw(nonzero)
            for c, v in r.items():
                out[c] = out.get(c, Scalar(0)) + f * v
        return out

    rows = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["fresh", "zero", "repeat", "combo"]))
        if kind == "zero":
            rows.append({c: Scalar(0) for c in used if draw(st.booleans())})
        elif kind == "repeat" and rows:
            rows.append(dict(draw(st.sampled_from(rows))))
        elif kind == "combo" and rows:
            rows.append(combination(rows))
        else:
            rows.append(fresh())
    probes = [fresh(), combination(rows), {}]
    return ncols, rows, probes


@given(row_streams())
@settings(max_examples=150, deadline=None)
def test_eliminator_matches_scalar_gauss_jordan(case):
    ncols, rows, probes = case
    new, ref = Eliminator(ncols), ReferenceEliminator(ncols)
    grew = []
    for r in rows:
        grew.append(new.add_row(integer_row(r)))
        assert grew[-1] == ref.add_row(dict(r))
        assert new.rank == ref.rank
        assert new.kernel_basis(0) == ref.kernel_basis()
    assert rref(rows, ncols) == ref.rref()
    assert rank_of(rows, ncols) == ref.rank == sum(grew)
    for vec in probes:
        assert in_span(vec, rows, ncols) == (not ref.reduce(vec))


@given(row_streams())
@settings(max_examples=150, deadline=None)
def test_kernel_basis_projects_the_kernel(case):
    """kernel_basis(first) spans the kernel projected onto the columns
    from first on, renumbered from 0, for every split: the projection of
    the reference kernel basis, read by the reference formula."""
    ncols, rows, _ = case
    new, ref = Eliminator(ncols), ReferenceEliminator(ncols)
    for r in rows:
        new.add_row(integer_row(r))
        ref.add_row(dict(r))
    kernel = ref.kernel_basis()
    for first in range(ncols + 1):
        width = ncols - first
        projected = rref([{c - first: v for c, v in vec.items() if c >= first}
                          for vec in kernel], width)
        assert rref(new.kernel_basis(first), width) == projected


@given(row_streams())
@settings(max_examples=40, deadline=None)
def test_eliminator_rejects_scalar_rows(case):
    """add_row takes integer rows: a Scalar row raises and leaves the rank
    as it was, never giving a wrong one."""
    ncols, rows, _ = case
    el = Eliminator(ncols)
    for r in rows:
        rank = el.rank
        if r:
            with pytest.raises(TypeError):
                el.add_row(dict(r))
            assert el.rank == rank
        el.add_row(integer_row(r))


def test_det3_adjugate3():
    m = [[Scalar(1), Scalar(2), Scalar(0)],
         [Scalar(0), I, Scalar(1)],
         [Scalar(1), Scalar(0), Scalar(3)]]
    d = det3(m)
    # brute-force expansion
    brute = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
             - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
             + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    assert d == brute
    adj = adjugate3(m)
    # m * adj == det * identity
    for i in range(3):
        for j in range(3):
            acc = Scalar(0)
            for k in range(3):
                acc = acc + m[i][k] * adj[k][j]
            assert acc == (d if i == j else Scalar(0))
