"""Acceptance gate: one criterion per test, one PASS/FAIL line each.

Criterion 6 checks how the sphere embedding's dimension 22 decomposes.
23 closed-form solution fields (10 restricted target automorphisms, 5
source-reparametrization pushforwards, 8 further generators) are
residual-verified and lie inside the computed kernel.  The trivial space
has dimension 10; the 8 generators add 8 to it (trivial ∪ generators has
rank 18); the pushforwards add 4, since one of the 5 is trivial (trivial
∪ pushforwards has rank 14); all together they span 22 = 10 + 4 + 8,
which is both a lower bound and the computed, stabilized dimension.
"""

from fractions import Fraction

import pytest

from crrigid import cli
from crrigid.corpus import EXPECTATIONS, load_corpus
from crrigid.geometry import Target
from crrigid.jets import JET4, column_count, field_row
from crrigid.linalg import rank_of, rref
from crrigid.maps import nondegeneracy, transversality
from crrigid.oracle import direct_solve, infinitesimal_automorphisms
from crrigid.parser import parse_problem
from crrigid.pipeline import DegenerateMapError, solve_deformation
from crrigid.scalars import Scalar
from crrigid.series import Series
from crrigid.spaces import (VERDICT_INCONCLUSIVE, VERDICT_RIGID_TRIVIAL,
                            VERDICT_RIGID_VANISHING)

from closed_forms import (apply_isotropy, cubic_deformation, field_residual,
                          graph_embedding_text, hyperquadric_hol0_basis,
                          in_span, pushforward, source_hol0_basis,
                          source_isotropy, target_isotropy)

I = Scalar(0, 0, 1)
NC = column_count(JET4)   # real 4-jet coordinates


def _line(num, ok, text):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_01_quartic_dimension_and_verdict(cache):
    sol = cache.pipeline("example-6-1")
    orc = cache.oracle("example-6-1")
    rep = cache.rigidity("example-6-1")
    ok = (sol.dim == 10 and sol.stabilized and orc.dim == 10
          and orc.stabilized and rep.verdict == VERDICT_RIGID_TRIVIAL)
    _line(1, ok, "quartic example: dimension 10 on both routes, "
          "rigid because all deformations are trivial")


def test_criterion_02_fiber_and_published_rows(cache):
    from crrigid.pipeline import segre_fiber
    import test_pipeline as tp
    spec = cache.spec("example-6-1")
    fiber = segre_fiber(spec.source, 12)
    # the x2-linear part of the Segre map q = Q(x1, x2, 0)
    a1_ok = {e: c for e, c in fiber[0][1].coeffs.items()
             if e[1] == 1} == {(1, 1): 2 * I}
    # closed form of the Segre division (checked exactly in test_pipeline)
    tp.test_fiber_closed_form_of_quartic_source(cache)
    tp.test_first_pole_conditions_match_published_rows(cache)
    _line(2, a1_ok, "quartic example: first Segre coefficient 2 i z, "
          "closed-form fiber inversion, and pole-row kernel equality "
          "with the published first condition group")


def test_criterion_03_perturbed_example_dimension_zero(cache):
    sol = cache.pipeline("example-6-2")
    rep = cache.rigidity("example-6-2")
    ok = (sol.dim == 0 and sol.stabilized
          and rep.verdict == VERDICT_RIGID_VANISHING)
    _line(3, ok, "perturbed example: dimension 0, rigid by vanishing")


def test_criterion_04_cubic_example_dimension_one(cache):
    sol = cache.pipeline("example-6-3")
    spec = cache.spec("example-6-3")
    V = cubic_deformation(spec.H.frame)
    res_ok = field_residual(V, spec.H, spec.source, spec.target, 12).is_zero()
    span_ok = in_span(field_row(V), sol.kernel_real, NC)
    ok = sol.dim == 1 and sol.stabilized and res_ok and span_ok
    _line(4, ok, "cubic example: dimension 1 with residual-verified "
          "basis field (i z, i z^2 / 3, 0)")


def test_criterion_05_family_dimensions_and_degeneration(cache):
    s1 = cache.pipeline("example-6-4")
    s2 = cache.pipeline("example-6-4-t2")
    degenerate = False
    spec0 = cache.spec("example-6-4-t0")
    try:
        solve_deformation(spec0.H, spec0.source, spec0.target, work_order=10)
    except DegenerateMapError:
        degenerate = True
    ok = (s1.dim == 10 and s1.stabilized and s2.dim == 10 and s2.stabilized
          and degenerate)
    _line(5, ok, "one-parameter family: dimension 10 at two parameter "
          "values, degeneracy error at the excluded value")


# -- sphere embedding evidence ----------------------------------------

@pytest.fixture(scope="module")
def sphere_fields():
    """Closed-form solution fields for the degree-two sphere embedding."""
    ORDER = 26
    spec = load_corpus("sphere-8", order=ORDER)
    mf = spec.H.frame
    z, w = Series.variable(mf, "z"), Series.variable(mf, "w")
    one = Series.const(mf, 1)
    half = Scalar(Fraction(1, 2))
    sq2 = Scalar(0, 1, 0, 0)
    isq2 = sq2.inverse()
    D1 = ((w + one.scale(I)) * (w * w - one)).invert_unit()
    D2 = ((w + one.scale(I)) * (w * w - one) * (w * w - one)).invert_unit()
    E2 = ((w * w - one) * (w * w - one)).invert_unit()
    z2, z3, z4 = z * z, z * z * z, z * z * z * z
    w2, w3, w4, w5 = w * w, w ** 3, w ** 4, w ** 5
    X = [
        [(w * z).scale(sq2) * D1, ((w - one.scale(I)) * z2) * D1,
         Series.zero(mf)],
        [(w * z2).scale(Scalar(-1)) * D1,
         (z * (w2 + w.scale(I) + z2.scale(Scalar(2)))).scale(I * isq2) * D1,
         Series.zero(mf)],
        [(w2 * z).scale(Scalar(3) * isq2) * D1, z2.scale(Scalar(-3)) * D1,
         Series.zero(mf)],
        [(w * (w2 - z2.scale(Scalar(4)) - one)).scale(half) * D1,
         (z * (w2 + w.scale(Scalar(2) * I) + z2.scale(Scalar(4)) + one))
         .scale(I * isq2) * D1,
         (w * z) * (w2 - one).invert_unit()],
        [(w * z3).scale(Scalar(4) * I * sq2) * D2,
         (w5.scale(I) - w4 - w3.scale(I) + w2
          - (z4 * w).scale(Scalar(4) * I) - z4.scale(Scalar(4)))
         .scale(Scalar(-1)) * D2,
         (w2 * z2).scale(Scalar(2) * sq2) * E2],
        [(w * z3).scale(Scalar(-2) * sq2) * D2,
         (w5 + w4.scale(I) - w3 - w2.scale(I)
          + (z4 * w).scale(Scalar(4)) - z4.scale(Scalar(4) * I))
         .scale(Scalar(Fraction(-1, 2))) * D2,
         (w2 * z2).scale(I * sq2) * E2],
        [(w4 + (z2 * w3).scale(Scalar(4) * I)
          - w2 * (z2.scale(Scalar(2)) + one) + z2.scale(Scalar(2))) * D2,
         (z * (w4.scale(Scalar(-1)) - w3.scale(I)
               + (z2 * w2).scale(Scalar(2))
               + (w * (z2.scale(Scalar(2)) + one)).scale(I) + one))
         .scale(sq2) * D2,
         (w2 * z).scale(Scalar(2)) * E2],
        [(w2 * (w2 + (z2 * w).scale(Scalar(4) * I) - one)).scale(half) * D2,
         (z * (w4.scale(Scalar(-1)) - w3.scale(Scalar(2) * I)
               + w2 * (z2.scale(Scalar(4)) + one)
               + (w * (z2 + one)).scale(Scalar(2) * I)
               - z2.scale(Scalar(2)))).scale(isq2) * D2,
         (w2 * z) * E2],
    ]
    push = [pushforward(spec.H, Xs) for Xs in source_hol0_basis(ORDER)]
    return spec, X, push


def test_criterion_06_sphere_embedding(cache, sphere_fields):
    spec, X, push = sphere_fields
    exp = EXPECTATIONS["sphere-8"]
    sol = cache.pipeline("sphere-8")
    rep = cache.rigidity("sphere-8")
    triv = cache.trivial("sphere-8")

    residual_ok = all(
        field_residual(V, spec.H, spec.source, spec.target, 18).is_zero()
        for V in X + push)
    rows_triv = list(triv.rows)
    rows_push = [field_row(V) for V in push]
    rows_X = [field_row(V) for V in X]
    span_ok = all(in_span(r, sol.kernel_real, NC)
                  for r in rows_triv + rows_push + rows_X)
    structure_ok = (len(triv.rows) == exp.trivial_dim and residual_ok
                    and span_ok and rep.verdict == VERDICT_INCONCLUSIVE
                    and sol.stabilized)
    assert structure_ok, (
        f"sphere structure: trivial dim {len(triv.rows)} (want "
        f"{exp.trivial_dim}), residuals zero {residual_ok}, kernel "
        f"containment {span_ok}, verdict {rep.verdict!r}, stabilized "
        f"{sol.stabilized}")

    # 22 = 10 trivial + 4 from the five source pushforwards (one of them
    # is trivial) + 8 from the generators; 18 is trivial ∪ generators
    with_X = rank_of(rows_triv + rows_X, NC)
    with_push = rank_of(rows_triv + rows_push, NC)
    lower = rank_of(rows_triv + rows_push + rows_X, NC)
    ok = (with_X == 18 and with_push == 14
          and lower == sol.dim == exp.dim)
    _line(6, ok, "sphere embedding: closed-form fields residual-verified "
          "and inside the computed kernel, verdict inconclusive; rank of "
          f"trivial {len(triv.rows)} (want {exp.trivial_dim}), trivial ∪ 8 "
          f"generators {with_X} (want 18), trivial ∪ 5 pushforwards "
          f"{with_push} (want 14), all fields {lower} = computed "
          f"stabilized dimension {sol.dim} (want {exp.dim})")


def test_criterion_07_automorphism_dimensions(cache):
    ok = True
    for eps in (1, -1):
        res = infinitesimal_automorphisms(Target.hyperquadric(eps, 16), keq=7)
        rows = [field_row(V, res.jet_keys)
                for V in hyperquadric_hol0_basis(eps)]
        ncols = column_count(res.jet_keys)
        ok = ok and res.dim == 10 and res.stabilized \
            and rank_of(rows, ncols) == 10 \
            and all(in_span(r, res.kernel_real, ncols) for r in rows)
    for entry in ("example-6-2", "example-6-3", "example-6-4"):
        res = cache.automorphisms(entry)
        ok = ok and res.dim == 0 and res.stabilized
    res = cache.automorphisms("target-6-4")
    ok = ok and res.dim == 1 and res.stabilized
    _line(7, ok, "automorphism dimensions: 10 for both hyperquadrics "
          "(cross-checked against the closed-form bases), 0 for the "
          "rigid targets, 1 for the two-dimensional target")


def test_criterion_08_pipeline_matches_oracle_everywhere(cache):
    ok = True
    details = []
    for entry, exp in EXPECTATIONS.items():
        if exp.degenerate or exp.aut_only:
            continue
        sol = cache.pipeline(entry)
        orc = cache.oracle(entry)
        agree = (sol.dim == orc.dim and sol.stabilized and orc.stabilized
                 and rref(sol.kernel_real, NC) == rref(orc.kernel_real, NC))
        details.append(f"{entry}: {sol.dim}/{orc.dim}")
        ok = ok and agree
    _line(8, ok, "independent solvers agree in dimension and kernel span "
          "on every corpus entry, both stabilized (" + ", ".join(details) + ")")


def test_criterion_09_isotropy_invariance(cache):
    spec = cache.spec("example-6-1")
    base_nd = nondegeneracy(spec.H, spec.source, spec.target)
    ok = True
    for u in (I, Scalar(-1), -1 * I):
        # the rotation sigma_u acts through its inverse, sigma_conj(u)
        sigma_inv = source_isotropy(1, 0, u.conjugate(), 0, 24)
        sig_prime = target_isotropy(
            1, 0, [[u, Scalar(0)], [Scalar(0), u * u]], [0, 0], 1, 24)
        moved = apply_isotropy(spec.H, sigma_inv, sig_prime)
        nd = nondegeneracy(moved, spec.source, spec.target)
        res = direct_solve(moved, spec.source, spec.target, keq=16)
        ok = ok and transversality(moved) and nd.k0 == base_nd.k0 == 2 \
            and res.dim == 10 and res.stabilized
    _line(9, ok, "quartic example: dimension and nondegeneracy order are "
          "invariant under three exact isotropy representatives")


def test_criterion_10_genericity_certificates(cache):
    cert = cache.genericity("example-6-1")
    ok = cert.rank == cert.ncols == 74
    logged = []
    # perturbations F of the quadratic graph, each expected at rank 74/74
    for F in ("z^2 + z^3", "z^2 - z^3/2", "z^2 + z^3 + z^4/2"):
        spec = parse_problem(graph_embedding_text(F), order=24)
        doc, _ = cli.answer("genericity", spec, spec.orders())
        ok = ok and (doc["rank"], doc["columns"], doc["full_rank"]) == \
            (74, 74, True)
        logged.append(f"{F}: rank {doc['rank']}/{doc['columns']}"
                      + ("" if doc["full_rank"] else " (not full)"))
    _line(10, ok, "genericity: full column rank 74 away from the free "
          "slots for the quadratic graph and for three perturbations: "
          + "; ".join(logged))
