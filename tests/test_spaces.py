"""Deformation spaces, trivial solutions, verdicts, genericity."""

import pytest

from crrigid.corpus import load_corpus
from crrigid.geometry import Source, Target, zct_frame
from crrigid.maps import MapGerm, map_frame
from crrigid.jets import field_row, jet_unknowns
from crrigid.scalars import Scalar
from crrigid.series import Series, frame
from crrigid.spaces import FREE_SLOTS, NotMappedError, validate_embedding
from crrigid.pipeline import DegenerateMapError

from closed_forms import (cubic_deformation, field_residual,
                          hyperquadric_hol0_basis, pushforward,
                          source_hol0_basis, verify_tangent)

I = Scalar(0, 0, 1)


def test_hyperquadric_bases_have_dimension_ten():
    # construction runs an exact tangency check and raises on failure
    for eps in (1, -1):
        basis = hyperquadric_hol0_basis(eps)
        assert len(basis) == 10


def test_verify_tangent_rejects_unscaled_dilation():
    f = frame("z1", "z2", "w1", order=8, weights=(1, 1, 2))
    z1, z2, w = (Series.variable(f, v) for v in ("z1", "z2", "w1"))
    target = Target.hyperquadric(1, 8)
    verify_tangent(target, [[z1, z2, w.scale(2)]])
    with pytest.raises(ArithmeticError):
        verify_tangent(target, [[z1, z2, w]])


def test_source_basis_is_tangent_to_the_sphere():
    basis = source_hol0_basis(order=10)
    assert len(basis) == 5
    src = Source.hyperquadric(12)
    frm = zct_frame(10)
    zv = Series.variable(frm, "z")
    cv = Series.variable(frm, "chi")
    tv = Series.variable(frm, "tau")
    wstar = src.Q.project(frm)
    for X in basis:
        x1 = X[0].substitute({"z": zv, "w": wstar})
        x2 = X[1].substitute({"z": zv, "w": wstar})
        b1 = Series(X[0].frame,
                    {e: c.conjugate() for e, c in X[0].coeffs.items()}) \
            .substitute({"z": cv, "w": tv})
        b2 = Series(X[1].frame,
                    {e: c.conjugate() for e, c in X[1].coeffs.items()}) \
            .substitute({"z": cv, "w": tv})
        # tangency to Im w = |z|^2: (X2 - bX2)/2i = X1 chi + z bX1 on M
        lhs = (x2 - b2).scale(Scalar(0, 0, -1) / 2)
        rhs = x1 * cv + zv * b1
        assert lhs == rhs


def test_pushforward_of_scaling_field():
    frm = map_frame(10)
    z = Series.variable(frm, "z")
    w = Series.variable(frm, "w")
    H = MapGerm([z, z * z, w])
    V = pushforward(H, [z, w.scale(2)])
    assert V[0] == z
    assert V[1] == (z * z).scale(2)
    assert V[2] == w.scale(2)


def test_field_residual_of_known_solution(cache):
    spec = cache.spec("example-6-3")
    frm = spec.H.frame
    z = Series.variable(frm, "z")
    V = cubic_deformation(frm)
    assert field_residual(V, spec.H, spec.source, spec.target, 12).is_zero()
    bad = [z, Series.zero(frm), Series.zero(frm)]
    assert not field_residual(bad, spec.H, spec.source,
                              spec.target, 12).is_zero()


def test_jet_row_of_field_coordinates():
    frm = map_frame(8)
    z = Series.variable(frm, "z")
    w = Series.variable(frm, "w")
    row = field_row([z.scale(1 + I), Series.zero(frm), w * w])
    keys = jet_unknowns(3, (1, 1), 4)
    col = {k: i for i, k in enumerate(keys)}
    assert row[2 * col[("jet", 0, 1, 0)]] == Scalar(1)
    assert row[2 * col[("jet", 0, 1, 0)] + 1] == Scalar(1)
    assert row[2 * col[("jet", 2, 0, 2)]] == Scalar(1)


def test_trivial_subspace_of_quartic(cache):
    triv = cache.trivial("example-6-1")
    assert len(triv.rows) == 10
    assert triv.aut.dim == 10


def test_validate_embedding_errors():
    spec = load_corpus("example-6-1", order=16)
    frm = spec.H.frame
    z = Series.variable(frm, "z")
    bad = MapGerm([spec.H[0], spec.H[1] + z * z * z, spec.H[2]])
    with pytest.raises(NotMappedError):
        validate_embedding(bad, spec.source, spec.target)
    t0 = load_corpus("example-6-4-t0", order=16)
    with pytest.raises(DegenerateMapError):
        validate_embedding(t0.H, t0.source, t0.target)


def test_validate_embedding_needs_the_order_it_reads():
    # sphere-8 maps by a rational H, here cut at order 9: validation
    # reads the germs to order 9 only, where the cut H still maps
    spec = load_corpus("sphere-8", order=9)
    nd = validate_embedding(spec.H, spec.source, spec.target)
    assert not nd.s0.is_zero()


def test_free_slots():
    assert len(FREE_SLOTS) == 10
    assert len(set(FREE_SLOTS)) == 10


def test_genericity_certificate_quartic(cache):
    cert = cache.genericity("example-6-1")
    assert cert.rank == cert.ncols == 74


def test_rigidity_verdicts(cache):
    from crrigid.spaces import VERDICT_RIGID_TRIVIAL, VERDICT_RIGID_VANISHING
    rep1 = cache.rigidity("example-6-1")
    assert rep1.verdict == VERDICT_RIGID_TRIVIAL
    assert rep1.deformations.dim == rep1.trivial.aut.dim \
        == len(rep1.trivial.rows) == 10
    assert rep1.trivial_contained
    rep2 = cache.rigidity("example-6-2")
    assert rep2.verdict == VERDICT_RIGID_VANISHING
    assert rep2.deformations.dim == 0


def test_all_trivial_verdict_needs_the_whole_kernel(cache, monkeypatch):
    """Restricted automorphisms that lie in the kernel but span less than
    it leave the verdict open, though dim equals the automorphism dim."""
    from crrigid import spaces
    spec = cache.spec("example-6-1")
    full = cache.trivial("example-6-1")
    monkeypatch.setattr(spaces, "trivial_subspace",
                        lambda *args, **kwargs: spaces.TrivialSubspace(
                            full.rows[:-1], full.aut))
    rep = spaces.decide_rigidity(spec.H, spec.target,
                                 cache.pipeline("example-6-1"),
                                 aut_keq=cache.orders("example-6-1")[2])
    assert rep.deformations.dim == rep.trivial.aut.dim == 10
    assert len(rep.trivial.rows) == 9 and rep.trivial_contained
    assert rep.verdict == spaces.VERDICT_INCONCLUSIVE


def test_trivial_rows_outside_a_smaller_kernel(cache, monkeypatch):
    """A kernel that lacks one vector of the trivial span does not contain
    the restricted automorphisms."""
    from dataclasses import replace
    from crrigid import spaces
    spec = cache.spec("example-6-1")
    sol = cache.pipeline("example-6-1")
    monkeypatch.setattr(spaces, "trivial_subspace", lambda *args, **kwargs:
                        cache.trivial("example-6-1"))
    smaller = replace(sol, kernel_real=sol.kernel_real[1:])
    rep = spaces.decide_rigidity(spec.H, spec.target, smaller,
                                 aut_keq=cache.orders("example-6-1")[2])
    assert rep.deformations.dim == 9 and len(rep.trivial.rows) == 10
    assert rep.trivial_contained is False
    assert rep.verdict == spaces.VERDICT_INCONCLUSIVE
