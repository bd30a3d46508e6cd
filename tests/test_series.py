"""Truncated weighted power series."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crrigid.scalars import Scalar
from crrigid.series import Series, frame, reversion, solve_implicit

I = Scalar(0, 0, 1)

F = frame("z", "w", order=6, weights=(1, 2))


def sqrt_rational(x: Scalar) -> Scalar:
    """Exact square root of a nonnegative rational element."""
    if x != Scalar(x.a) or x.a < 0:
        raise ValueError("sqrt_rational needs a nonnegative rational")
    num, den = x.a.numerator, x.a.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        raise ValueError(f"{x.a} is not a rational square")
    return Scalar(Fraction(rn, rd))


def sqrt_unit(u: Series) -> Series:
    """Principal square root of a unit whose constant term is a positive
    rational square, by Newton steps g -> (g + u/g)/2."""
    root = sqrt_rational(u.constant_term())
    if root.is_zero():
        raise ValueError("sqrt_unit needs a nonzero constant term")
    g = Series.const(u.frame, root)
    half = Scalar(Fraction(1, 2))
    steps = max(1, math.ceil(math.log2(u.frame.order + 2)) + 1)
    for _ in range(steps):
        g = (g + u * g.invert_unit()).scale(half)
    return g


small = st.builds(
    Fraction,
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=3))


@st.composite
def series_elems(draw):
    coeffs = {}
    for e in [(m, n) for m in range(4) for n in range(3) if m + 2 * n <= 6]:
        if draw(st.booleans()):
            c = Scalar(draw(small), 0, draw(small), 0)
            if not c.is_zero():
                coeffs[e] = c
    return Series(F, coeffs)


@given(series_elems(), series_elems(), series_elems())
@settings(max_examples=30, deadline=None)
def test_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + Series.zero(F) == x
    assert x * Series.const(F, 1) == x


@given(series_elems(), series_elems())
@settings(max_examples=30, deadline=None)
def test_partial_is_a_derivation(x, y):
    for var in ("z", "w"):
        lhs = (x * y).partial(var)
        rhs = x.partial(var) * y + x * y.partial(var)
        # the product rule can only fail on coefficients lost to truncation:
        # differentiation lowers the weighted order below the frame cap,
        # so compare on exponents whose product terms were fully retained
        diff = lhs - rhs
        w = 1 if var == "z" else 2
        for e in diff.coeffs:
            assert F.wdeg(e) + w > 6 - 1


@given(series_elems())
@settings(max_examples=40, deadline=None)
def test_conjugation_is_an_involution(x):
    # lift into a frame carrying the conjugate variables, where the
    # formal conjugation swaps z <-> chi and w <-> tau
    G = frame("z", "chi", "w", "tau", order=6, weights=(1, 1, 2, 2))
    lifted = Series(G, {(m, 0, n, 0): c for (m, n), c in x.coeffs.items()})
    swap = {"z": "chi", "chi": "z", "w": "tau", "tau": "w"}
    xc = lifted.conj(rename=swap)
    assert xc.conj(rename=swap) == lifted
    for (m, k, n, l), c in xc.coeffs.items():
        assert m == 0 and n == 0
        assert c == x.coeffs[(k, l)].conjugate()


def test_conjugation_renames_on_a_weighted_frame():
    G = frame("z", "chi", "w", "tau", order=6, weights=(1, 1, 2, 2))
    x = Series(G, {(2, 0, 1, 0): Scalar(1, 0, 3), (0, 1, 0, 2): Scalar(0, 1),
                   (1, 0, 0, 1): Scalar(0, 0, 0, 1)})
    xc = x.conj(rename={"z": "chi", "chi": "z", "w": "tau", "tau": "w"})
    assert xc.coeffs == {(0, 2, 0, 1): Scalar(1, 0, -3),
                         (1, 0, 2, 0): Scalar(0, 1),
                         (0, 1, 1, 0): Scalar(0, 0, 0, -1)}


@given(series_elems())
@settings(max_examples=40, deadline=None)
def test_invert_unit(x):
    u = x + Series.const(F, 1) - Series.const(F, x.constant_term())
    assert u * u.invert_unit() == Series.const(F, 1)


@given(series_elems())
@settings(max_examples=40, deadline=None)
def test_sqrt_unit(x):
    u = x * x + Series.const(F, 1) - Series.const(F, (x * x).constant_term())
    s = sqrt_unit(u)
    assert s * s == u
    assert s.constant_term() == Scalar(1)


def test_invert_non_unit_raises():
    with pytest.raises(ValueError):
        Series.variable(F, "z").invert_unit()


def test_substitution_composes():
    z, w = Series.variable(F, "z"), Series.variable(F, "w")
    f = z * z + w
    g = f.substitute({"z": z + w, "w": w.scale(2)})
    expect = (z + w) * (z + w) + w.scale(2)
    assert g == expect


@st.composite
def renamings(draw):
    """A series on a weighted, maybe capped (a, b, c) frame; a target
    frame over some of x, y, t in any order, maybe capped; and the
    weight-keeping rename a, b -> x, y (either way), c -> t."""
    caps = st.one_of(st.none(), st.integers(min_value=1, max_value=4))
    src_caps = {v: c for v in "abc" if (c := draw(caps)) is not None}
    src = frame("a", "b", "c", order=draw(st.integers(3, 7)),
                weights=(1, 1, 2), caps=src_caps)
    coeffs = {}
    for e in filter(src.admits, itertools.product(range(8), range(8),
                                                   range(4))):
        c = Scalar(draw(small), 0, draw(small), 0)
        if not c.is_zero():
            coeffs[e] = c
    x, y = draw(st.permutations(["x", "y"]))
    rename = {"a": x, "b": y, "c": "t"}
    names = draw(st.permutations(["x", "y", "t"]))
    names = names[:draw(st.integers(2, 3))]
    tgt_caps = {v: c for v in names if (c := draw(caps)) is not None}
    tgt = frame(*names, order=draw(st.integers(2, 7)),
                weights=[2 if v == "t" else 1 for v in names], caps=tgt_caps)
    return Series(src, coeffs), tgt, rename


@given(renamings())
@settings(max_examples=60, deadline=None)
def test_project_is_substitution_by_renamed_variables_or_zero(case):
    s, tgt, rename = case
    bind = {v: Series.variable(tgt, u) if u in tgt.vars else Series.zero(tgt)
            for v, u in rename.items()}
    assert s.project(tgt, rename) == s.substitute(bind)


def test_frames_store_only_their_caps():
    f = frame("z", "u", "t", order=8, caps={"t": 3, "z": 4})
    assert f.caps == ((0, 4), (2, 3))
    assert f == frame("z", "u", "t", order=8, caps={"z": 4, "t": 3})
    assert frame("z", "u", order=8).caps == ()
    with pytest.raises(ValueError, match=r"caps on variables not in the "
                                         r"frame: \['w'\]"):
        frame("z", "u", order=8, caps={"z": 4, "w": 2})


def test_solve_implicit_quadratic():
    # y = x + y^2  =>  y = x + x^2 + 2x^3 + ...  (Catalan numbers)
    G = frame("x", "y", order=6)
    x, y = Series.variable(G, "x"), Series.variable(G, "y")
    sol = solve_implicit(y - x - y * y, "y", ("x",), frame("x", order=6))
    cat = [1, 1, 2, 5, 14, 42]
    for k, c in enumerate(cat, start=1):
        assert sol.coefficient((k,)) == Scalar(c)


def test_reversion_inverts_composition():
    pf = frame("z", "u", order=8, caps={"z": 4, "u": 4})
    u = Series.variable(pf, "u")
    z = Series.variable(pf, "z")
    psihat = u + u * u * z
    tf = frame("z", "t", order=8, caps={"z": 4, "t": 4})
    psi = reversion(psihat, ("z",), "u", "t", tf)
    # psihat(z, psi(z, t)) == t up to the kept orders
    check = psihat.substitute({"z": Series.variable(tf, "z"), "u": psi})
    assert check == Series.variable(tf, "t")
