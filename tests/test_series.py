"""Truncated weighted power series."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crrigid.bindings import Bindings
from crrigid.geometry import SOURCE_SWAP, zct_frame
from crrigid.linseries import LinSeries
from crrigid.scalars import Scalar
from crrigid.series import Series, frame, power_table, reversion, \
    solve_implicit, table_monomial

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


@st.composite
def zct_pairs(draw):
    """Two series on a (z, chi, tau) frame of weights (1, 1, 2) with a
    random order and random caps, and the admission rule written out."""
    order = draw(st.integers(0, 7))
    caps = draw(st.dictionaries(st.sampled_from(("z", "chi", "tau")),
                                st.integers(0, 3)))
    frm = frame("z", "chi", "tau", order=order, weights=(1, 1, 2),
                caps=caps)
    cap = [caps.get(v, order) for v in frm.vars]

    def admits(e):
        return e[0] + e[1] + 2 * e[2] <= order and \
            all(x <= c for x, c in zip(e, cap))

    exps = [e for e in itertools.product(range(order + 1), repeat=3)
            if admits(e)]
    pair = []
    for _ in range(2):
        coeffs = {}
        for e in draw(st.lists(st.sampled_from(exps), max_size=12)):
            c = Scalar(draw(small), draw(small), draw(small), 0)
            if not c.is_zero():
                coeffs[e] = c
        pair.append(Series(frm, coeffs))
    return pair, admits


@given(zct_pairs())
@settings(max_examples=60, deadline=None)
def test_product_equals_a_double_loop(case):
    """The product, with its weighted-degree break and its caps, against
    every pair of terms summed and truncated by hand."""
    (x, y), admits = case
    want = {}
    for ea, ca in x.coeffs.items():
        for eb, cb in y.coeffs.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            if admits(e):
                want[e] = want.get(e, Scalar(0)) + ca * cb
    want = {e: c for e, c in want.items() if not c.is_zero()}
    for got in (x * y, y * x):
        assert got.frame == x.frame and got.coeffs == want


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


def test_conjugation_renames_only_onto_the_frame_itself():
    """A rename that would move a term past a cap, onto another weight or
    out of the frame raises, where it used to drop the term."""
    chi = Series.variable(zct_frame(8, zcap=2), "chi")
    capped = frame("z", "chi", "w", "tau", order=8, weights=(1, 1, 2, 2),
                   caps={"z": 2})
    skew = frame("z", "chi", order=4, weights=(1, 2))
    for x in (chi * chi * chi, Series.variable(capped, "chi"),
              Series.variable(skew, "z")):
        with pytest.raises(ValueError, match="does not map the frame"):
            x.conj(rename=SOURCE_SWAP)
    both = frame("z", "chi", "w", "tau", order=8, weights=(1, 1, 2, 2),
                 caps={"z": 2, "chi": 2})
    x = Series.monomial(both, (0, 2, 1, 0), I)
    assert x.conj(rename=SOURCE_SWAP) == Series.monomial(both, (2, 0, 0, 1),
                                                         -I)


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
    # the constant term carries over to the target frame
    G = frame("x", order=4)
    x = Series.variable(G, "x")
    one = Series.const(F, 3) + z
    assert one.substitute({"z": x, "w": x * x}) == Series.const(G, 3) + x


#: The frame of the bindings in the Bindings tests, capped so that a
#: shifted term can pass a cap (on a frame without caps, only the order).
ZCT = frame("z", "chi", "tau", order=7, weights=(1, 1, 2), caps={"z": 3})
#: The frame of the series substituted there.
UV = frame("u", "v", order=7, weights=(1, 2))


@st.composite
def uv_elems(draw):
    coeffs = {}
    for e in filter(UV.admits, itertools.product(range(8), range(4))):
        if draw(st.booleans()):
            c = Scalar(draw(small), 0, draw(small), 0)
            if not c.is_zero():
                coeffs[e] = c
    return Series(UV, coeffs)


@st.composite
def uv_bindings(draw):
    """Bindings of u and v on ZCT or ZCT without caps, vanishing to the
    weights 1 and 2: a variable, a monomial with coefficient 1 such as
    z*chi, a single term with another coefficient, or a drawn series."""
    frm = draw(st.sampled_from([ZCT, zct_frame(ZCT.order)]))
    z, chi, tau = (Series.variable(frm, v) for v in frm.vars)
    drawn = []
    for low in (1, 2):
        coeffs = {}
        for e in draw(st.lists(st.sampled_from(
                [e for e in itertools.product(range(8), range(8), range(4))
                 if frm.admits(e) and frm.wdeg(e) >= low]), max_size=6)):
            c = Scalar(draw(small), 0, draw(small), 0)
            if not c.is_zero():
                coeffs[e] = c
        drawn.append(Series(frm, coeffs) if coeffs else z * chi)
    return {"u": draw(st.sampled_from([z, chi, z * chi, z.scale(2),
                                       chi.scale(I), tau.scale(-1),
                                       drawn[0]])),
            "v": draw(st.sampled_from([tau, z * chi, z * z, chi * tau,
                                       (z * chi).scale(3), tau.scale(1 + I),
                                       drawn[1]]))}


def full_products(s, bind):
    """The reference substitution: each monomial of the bindings formed
    by Series products, times its coefficient, summed."""
    target = bind["u"].frame
    table = power_table([bind[v] for v in s.frame.vars], s.coeffs)
    out = type(s)(target)
    for exp, c in s.coeffs.items():
        m = table_monomial(table, exp) if any(exp) \
            else Series.const(target, 1)
        out = out + type(s)(target, {e: c * x for e, x in m.coeffs.items()})
    return out


@given(uv_elems(), uv_elems(), uv_bindings())
@settings(max_examples=80, deadline=None)
def test_shared_bindings_equal_one_shot_dicts_and_full_products(x, y, bind):
    """A Series and a LinSeries substituted through one Bindings, in
    either order, or each through a plain dict, give the reference's
    series; a binding of one term with coefficient 1 shifts exponents."""
    pair = (x, LinSeries.from_tags(UV, {"x": x, "y": y}))
    want = [full_products(s, bind) for s in pair]
    assert [s.substitute(bind) for s in pair] == want
    for order in (slice(None), slice(None, None, -1)):
        shared = Bindings(bind)
        got = [s.substitute(shared) for s in pair[order]][order]
        assert got == want
        assert [type(g) for g in got] == [Series, LinSeries]


def test_bindings_are_read_only_and_checked():
    z, tau = Series.variable(ZCT, "z"), Series.variable(ZCT, "tau")
    bind = Bindings({"u": z, "v": tau})
    assert dict(bind) == {"u": z, "v": tau} and bind.gens == ()
    with pytest.raises(TypeError):
        bind["u"] = tau
    u = Series.variable(UV, "u")
    for bad, match in (({"u": z}, "a binding for every variable"),
                       ({"u": z, "v": z}, "vanishes to too low an order"),
                       ({"u": z + Series.const(ZCT, 1), "v": tau},
                        "nonzero constant term"),
                       ({"u": z, "v": Series.variable(UV, "v")},
                        "mismatched frames")):
        with pytest.raises(ValueError, match=match):
            u.substitute(bad)


def test_table_monomial_needs_a_positive_exponent_entry():
    z, w = Series.variable(F, "z"), Series.variable(F, "w")
    table = power_table([z, w], [(2, 1)])
    assert table_monomial(table, (2, 1)) == z * z * w
    assert table_monomial(table, (0, 1)) == w
    # an empty table (no generators) holds no 1 to return
    for tbl, exp in ((table, (0, 0)), ([], ())):
        with pytest.raises(ValueError, match="positive exponent entry"):
            table_monomial(tbl, exp)


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
