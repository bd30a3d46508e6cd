"""Map germs, nondegeneracy, normal form, isotropies."""

import pytest

from crrigid.corpus import load_corpus
from crrigid.maps import (MapGerm, embedding_residual, nondegeneracy,
                          transversality)
from crrigid.jets import field_row, jet_unknowns
from crrigid.scalars import Scalar
from crrigid.series import Series

from closed_forms import apply_isotropy, source_isotropy, target_isotropy

I = Scalar(0, 0, 1)
ORDER = 16


def _quartic_embedding():
    spec = load_corpus("example-6-1", order=ORDER)
    return spec


def test_immersion_and_transversality():
    spec = _quartic_embedding()
    assert spec.H.is_immersion()
    assert transversality(spec.H)
    frm = spec.H.frame
    z = Series.variable(frm, "z")
    flat = MapGerm([z, z * z, z * z * z])  # no w dependence in last slot
    assert not transversality(flat)


def test_embedding_residual_vanishes_on_corpus_maps():
    for entry in ("example-6-1", "example-6-3"):
        spec = load_corpus(entry, order=ORDER)
        res = embedding_residual(spec.H, spec.source, spec.target, 10)
        assert res.is_zero()


def test_embedding_residual_detects_non_maps():
    spec = _quartic_embedding()
    frm = spec.H.frame
    bad = MapGerm([spec.H[0], spec.H[1] + Series.variable(frm, "z"),
                   spec.H[2]])
    assert not embedding_residual(bad, spec.source, spec.target, 10).is_zero()


def test_nondegeneracy_k0():
    spec = _quartic_embedding()
    nd = nondegeneracy(spec.H, spec.source, spec.target)
    assert not nd.s0.is_zero()
    assert nd.k0 == 2


@pytest.mark.parametrize("entry", ["example-6-1", "sphere-8"])
def test_nondegeneracy_reads_weighted_order_4(entry):
    # values at 0 of at most 4 chi-derivatives: germs cut at order 4 give
    # the answer of the full germs, and germs cut at 3 are refused
    deep = load_corpus(entry)
    want = nondegeneracy(deep.H, deep.source, deep.target)
    cut = load_corpus(entry, order=4)
    assert nondegeneracy(cut.H, cut.source, cut.target) == want
    low = load_corpus(entry, order=3)
    with pytest.raises(ValueError, match="expanded to order 4"):
        nondegeneracy(low.H, low.source, low.target)


def test_degenerate_image_in_hyperplane():
    # (z, 0, w) maps the sphere into {z2 = 0}: not 2-nondegenerate
    spec = load_corpus("example-6-4-t0", order=ORDER)
    nd = nondegeneracy(spec.H, spec.source, spec.target)
    assert nd.s0.is_zero()


def test_jet_row_of_quartic_embedding():
    spec = _quartic_embedding()
    col = {k: i for i, k in enumerate(jet_unknowns(3, (1, 1), 4))}
    row = field_row(spec.H.components)
    # H = (z, z^2, w): three real 4-jet coordinates, all equal to one
    assert row == {2 * col[("jet", 0, 1, 0)]: Scalar(1),
                   2 * col[("jet", 1, 2, 0)]: Scalar(1),
                   2 * col[("jet", 2, 0, 1)]: Scalar(1)}


def test_source_isotropy_preserves_sphere():
    from crrigid.geometry import Source, zct_frame
    src = Source.hyperquadric(ORDER)
    sigma = source_isotropy(1, Scalar(1), I, 1 + I, ORDER)
    # check Im(sigma_2) = |sigma_1|^2 on the germ via the 2D residual:
    # embed the sphere in itself through sigma using a rank-2 "target"
    # identity: Q(sigma_1, conj sigma_1, conj sigma_2) = sigma_2
    frm = zct_frame(10)
    wstar = src.Q.project(frm)
    s1 = sigma[0].substitute({"z": Series.variable(frm, "z"), "w": wstar})
    s2 = sigma[1].substitute({"z": Series.variable(frm, "z"), "w": wstar})
    b1 = sigma[0].conj().substitute({"z": Series.variable(frm, "chi"),
                                     "w": Series.variable(frm, "tau")})
    b2 = sigma[1].conj().substitute({"z": Series.variable(frm, "chi"),
                                     "w": Series.variable(frm, "tau")})
    lhs = (s2 - b2).scale(Scalar(0, 0, -1) / 2)  # (s2 - b2) / 2i
    assert lhs == s1 * b1


def test_target_isotropy_preserves_hyperquadric():
    from crrigid.geometry import Target
    eps = 1
    tgt = Target.hyperquadric(eps, 12)
    sig = target_isotropy(2, 1, [[Scalar(0), Scalar(1)],
                                 [Scalar(1), Scalar(0)]], [1, I], eps, 12)
    # parametrize the complexified hyperquadric by (z1, z2, bz1, bz2, bw1)
    # with w1 = bw1 + 2i (z1 bz1 + eps z2 bz2); on it rho(sigma, bar sigma)
    # must vanish identically
    gv = tgt.graph_chart(12)      # over z1, z2, bz1, bz2, bw1
    w1 = gv["bw1"] + (gv["z1"] * gv["bz1"]
                      + (gv["z2"] * gv["bz2"]).scale(eps)).scale(2 * I)
    sub = {"z1": gv["z1"], "z2": gv["z2"], "w1": w1}
    barsub = {"z1": gv["bz1"], "z2": gv["bz2"], "w1": gv["bw1"]}
    lifts = [c.substitute(sub) for c in sig.components]
    bars = []
    for c in sig.components:
        conj = Series(c.frame, {e: v.conjugate() for e, v in c.coeffs.items()})
        bars.append(conj.substitute(barsub))
    res = (lifts[2] - bars[2]).scale(Scalar(0, 0, -1) / 2) \
        - lifts[0] * bars[0] - (lifts[1] * bars[1]).scale(eps)
    assert res.is_zero()


def test_isotropy_action_preserves_embedding():
    spec = _quartic_embedding()
    # sigma: z -> iz, whose inverse z -> -iz is the rotation by conj(i)
    sigma_inv = source_isotropy(1, 0, I.conjugate(), 0, ORDER)
    sig_prime = target_isotropy(1, 0, [[-1 * I, Scalar(0)],
                                       [Scalar(0), Scalar(-1)]],
                                [0, 0], 1, ORDER)
    moved = apply_isotropy(spec.H, sigma_inv, sig_prime)
    res = embedding_residual(moved, spec.source, spec.target, 10)
    assert res.is_zero()


def test_bad_isotropy_parameters_rejected():
    with pytest.raises(ValueError):
        source_isotropy(-1, 0, 1, 0, 8)       # lam must be positive
    with pytest.raises(ValueError):
        source_isotropy(1, 0, Scalar(2), 0, 8)  # u not unimodular
    with pytest.raises(ValueError):
        target_isotropy(1, 0, [[Scalar(2), Scalar(0)],
                               [Scalar(0), Scalar(1)]], [0, 0], 1, 8)
