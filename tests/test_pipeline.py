"""Jet-parametrization solver: fiber data, published rows, dimensions."""

import random
from fractions import Fraction
from math import factorial

import pytest

from crrigid.corpus import EXPECTATIONS, load_corpus
from crrigid.jets import JET4_ORDER, column_count, field_row
from crrigid.linalg import rank_of, rref
from crrigid.linseries import LinSeries
from crrigid.maps import MapGerm, map_frame
from crrigid.oracle import direct_solve, infinitesimal_automorphisms
from crrigid.pipeline import conjugate_reflection, direct_reflection, \
    formal_jet, segre_divide, segre_fiber, solve_deformation
from crrigid.scalars import Scalar
from crrigid.series import Series, frame
from closed_forms import compose, cubic_deformation, \
    hyperquadric_hol0_basis, in_span, kernel_of
from test_series import sqrt_unit

I = Scalar(0, 0, 1)


def test_fiber_of_quartic_source(cache):
    spec = cache.spec("example-6-1")
    fiber = segre_fiber(spec.source, 12)
    xf = fiber.qpow[0].frame
    # A1 = 2 i x1, so x1 / A1 = 1 / u1 = -i / 2
    assert fiber.upow[1] == Series.const(xf, I * Scalar(Fraction(-1, 2)))


def test_fiber_closed_form_of_quartic_source(cache):
    """Dividing x1 x2 by the quartic's Segre map gives alpha(z, w) = g(w)
    = -(1 - sqrt(1 - 2 i w)) / 2 and no pole rows."""
    spec = cache.spec("example-6-1")
    kphi = 12
    fiber = segre_fiber(spec.source, kphi)
    xf = fiber.qpow[0].frame
    phi = LinSeries.from_tags(xf, {"v": Series.monomial(xf, (1, 1), 1)})
    alpha, poles = segre_divide(phi, fiber)
    uf = frame("u", order=kphi)
    sq = sqrt_unit(Series.const(uf, 1) + Series.monomial(uf, (1,), -2 * I))
    g = (Series.const(uf, 1) - sq).scale(Scalar(Fraction(-1, 2)))
    assert poles == {}
    assert alpha == {(0, n): {"v": c} for (n,), c in g.coeffs.items()
                     if 2 * n <= kphi}


@pytest.mark.parametrize("entry", [e for e, x in EXPECTATIONS.items()
                                   if not x.aut_only])
def test_segre_divide_inverts_the_segre_pull_back(cache, entry):
    """phi = alpha(x1, Q(x1, x2, 0)) divides back to exactly the rows of a
    random alpha, with no pole rows; x1^m x2^3, m < 3, is exactly one pole
    row."""
    kphi = 12
    source = cache.spec(entry).source
    fiber = segre_fiber(source, kphi)
    xf = fiber.qpow[0].frame
    rng = random.Random(entry)
    alpha = Series(map_frame(kphi), {
        (a, k): Scalar(rng.randint(1, 5), 0, rng.randint(-3, 3))
        for a in range(kphi + 1) for k in range(kphi // 2 + 1)
        if a + 2 * k <= kphi})
    phi = LinSeries.from_tags(
        xf, {"v": alpha.substitute(_segre_map(source, xf))})
    assert segre_divide(phi, fiber) == (
        {e: {"v": c} for e, c in alpha.coeffs.items()}, {})
    for m in range(3):
        pole = LinSeries.from_tags(xf, {"v": Series.monomial(xf, (m, 3), 1)})
        assert segre_divide(pole, fiber) == (
            {}, {(m - 3, 3): {"v": Scalar(1)}})


# published pole-condition rows for the quartic model, in the raw-derivative
# jet convention; row tags give the (component, z-power, w-power) slot
_PUBLISHED_S1 = [
    ((0, -1, 4), {(2, 0, 2): Scalar(3), (2, 0, 3): 2 * I}),
    ((2, -1, 4), {(1, 0, 2): Scalar(12), (1, 0, 3): Scalar(-2),
                  (2, 1, 1): Scalar(3), (2, 1, 2): 3 * I}),
    ((0, -1, 5), {(2, 0, 2): Scalar(12), (2, 0, 3): 7 * I,
                  (2, 0, 4): Scalar(-1)}),
    ((2, -1, 5), {(1, 0, 2): Scalar(18), (1, 0, 3): 4 * I,
                  (1, 0, 4): Scalar(-1), (2, 1, 1): -6 * I,
                  (2, 1, 2): Scalar(3), (2, 1, 3): I}),
    ((0, -1, 6), {(2, 0, 2): Scalar(75), (2, 0, 3): 24 * I,
                  (2, 0, 4): Scalar(-2)}),
    ((2, -1, 6), {(1, 0, 2): Scalar(54), (1, 0, 3): 6 * I,
                  (1, 0, 4): Scalar(-1), (2, 1, 1): -21 * I,
                  (2, 1, 2): Scalar(4), (2, 1, 3): I}),
    ((2, -1, 7), {(1, 0, 2): Scalar(42), (1, 0, 3): I,
                  (2, 1, 1): -18 * I}),
]

# the published rows carry an unstated rescaling of a few jet slots; these
# columns must be halved to land in the pipeline's normalization
_HALVED_COLUMNS = {(2, 0, 3), (2, 0, 4), (1, 0, 2)}


def _pipeline_pole_rows_derivative_convention(cache):
    out = {}
    for idx, row in cache.system("example-6-1").rows_pole.items():
        conv = {}
        for (_, j, m, n), c in row.items():
            conv[(j + 1, m, n)] = c * Fraction(1, factorial(m) * factorial(n))
        out[idx] = conv
    return out


def test_first_pole_conditions_match_published_rows(cache):
    ours_all = _pipeline_pole_rows_derivative_convention(cache)
    ours = [ours_all[idx] for idx, _ in _PUBLISHED_S1]
    published = []
    for k, (_, row) in enumerate(_PUBLISHED_S1):
        conv = {}
        for c, v in row.items():
            # one printed coefficient is off by a factor of i: the leading
            # 12 of the (2, -1, 4) row only fits the rest of its own row
            # (and the pipeline) as 12 i
            if k == 1 and c == (1, 0, 2):
                v = v * I
            if c in _HALVED_COLUMNS:
                v = v * Scalar(Fraction(1, 2))
            conv[c] = v
        published.append(conv)
    cols = sorted(set().union(*ours, *published))
    ci = {c: k for k, c in enumerate(cols)}
    A = [{ci[c]: v for c, v in r.items()} for r in ours]
    B = [{ci[c]: v for c, v in r.items()} for r in published]
    assert rank_of(A, len(cols)) == rank_of(B, len(cols)) == 7
    n = len(cols)
    assert rref(A, n) == rref(B, n)
    assert rref(kernel_of(A, n), n) == rref(kernel_of(B, n), n)


def test_published_rows_as_printed_lie_in_pipeline_span(cache):
    """Without the single-coefficient correction, six of the seven
    published rows already lie in the pipeline row span."""
    ours_all = _pipeline_pole_rows_derivative_convention(cache)
    cols = sorted(set().union(*(r for r in ours_all.values()),
                              *(r for _, r in _PUBLISHED_S1)))
    ci = {c: k for k, c in enumerate(cols)}
    ours = [{ci[c]: v for c, v in ours_all[idx].items()}
            for idx, _ in _PUBLISHED_S1]
    hits = 0
    for _, row in _PUBLISHED_S1:
        conv = {ci[c]: (v * Scalar(Fraction(1, 2)) if c in _HALVED_COLUMNS
                        else v) for c, v in row.items()}
        if in_span(conv, ours, len(cols)):
            hits += 1
    assert hits == 6


def _segre_map(source, xfrm):
    """The bindings (z, w) = (x1, Q(x1, x2, 0)) onto the second Segre set."""
    return {"z": Series.variable(xfrm, "x1"),
            "w": source.Q.project(xfrm, {"z": "x1", "chi": "x2"})}


def _second_segre_values(spec, work_order, fields):
    """phi of the two reflection stages, as jet_conditions forms it, with
    each row contracted with the 4-jet of each field V; and V(x1,
    Q(x1, x2, 0)) in the same frame, which phi must reproduce."""
    kphi = work_order + 1
    xfrm = frame("x1", "x2", order=kphi)
    J = formal_jet(map_frame(max(kphi, JET4_ORDER)))
    H, source, target = spec.H, spec.source, spec.target
    abar = conjugate_reflection(H, source, target, kphi + 4, J)
    phi = direct_reflection(H, source, target, kphi + 2,
                            segre_fiber(source, kphi).qpow[1], abar)
    segre = _segre_map(source, xfrm)
    for V in fields:
        for p, v in zip(phi, V):
            got = {e: sum((c * V[key[1]].coefficient(key[2:])
                           for key, c in row.items()), Scalar(0))
                   for e, row in p.coeffs.items()}
            yield Series(xfrm, {e: c for e, c in got.items() if c}), \
                v.substitute(segre)


@pytest.mark.parametrize("entry", ["example-6-3", "example-6-1",
                                   "sphere-8"])
def test_reflection_stages_reproduce_known_solutions(cache, entry):
    """Stages 1 and 2 give alpha on the second Segre set: contracted with
    the 4-jet of a known solution V, phi is V(x1, Q(x1, x2, 0)).  The
    solutions are the cubic field of example-6-3 and the ten fields V o H
    of example-6-1 and of sphere-8, V an infinitesimal automorphism of the
    hyperquadric; sphere-8 brings sqrt(2) and rational map components."""
    spec = cache.spec(entry)
    if entry == "example-6-3":
        fields = [cubic_deformation(spec.H.frame)]
    else:
        fields = [compose(MapGerm(V), spec.H).components
                  for V in hyperquadric_hol0_basis(1)]
    checks = list(_second_segre_values(spec, 17, fields))
    assert len(checks) == 3 * len(fields)
    for got, want in checks:
        assert got == want


def test_pipeline_dimension_quartic(cache):
    sol = cache.pipeline("example-6-1")
    assert sol.dim == 10
    assert sol.stabilized


def test_pipeline_contains_known_cubic_solution(cache):
    sol = cache.pipeline("example-6-3")
    assert sol.dim == 1
    vec = field_row(cubic_deformation(cache.spec("example-6-3").H.frame))
    assert in_span(vec, sol.kernel_real, column_count(sol.jet_keys))


@pytest.mark.parametrize("entry, solve", [
    pytest.param(e, solve, id=e + suffix)
    for solve, suffix in ((solve_deformation, ""), (direct_solve, "-oracle"))
    for e, x in EXPECTATIONS.items() if not (x.aut_only or x.degenerate)])
def test_low_orders_never_undercount(cache, entry, solve):
    """Every row either route keeps is exact, so at any order its
    dimension is an upper bound on the true one; false jet rows at slots
    beyond the working order would push it below.  Orders 2-16 include
    the orders where the routes stabilize on a wrong, larger dimension."""
    spec = cache.spec(entry)
    for order in range(2, 17):
        sol = solve(spec.H, spec.source, spec.target, order)
        assert sol.dim >= EXPECTATIONS[entry].dim, order


def test_germ_shorter_than_the_solve_raises():
    """sphere-8 expanded to order 12 is too short for either route at the
    default orders; read as zero, its missing terms would give a
    stabilized dimension of 16 instead of 22."""
    spec = load_corpus("sphere-8", order=12)
    with pytest.raises(ValueError, match="to order 22; .* to order 12"):
        solve_deformation(spec.H, spec.source, spec.target, work_order=17)
    with pytest.raises(ValueError, match="to order 17; .* to order 12"):
        direct_solve(spec.H, spec.source, spec.target, keq=16)
    with pytest.raises(ValueError, match="to order 13; .* to order 12"):
        infinitesimal_automorphisms(spec.target, keq=12)
