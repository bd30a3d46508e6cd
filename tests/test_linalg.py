"""Exact sparse linear algebra over the scalar field."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from crrigid.linalg import Eliminator, adjugate3, det3, in_span, rank_of, rref
from crrigid.scalars import Scalar

from closed_forms import kernel_of

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
        if el.add_row(dict(r)):
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
