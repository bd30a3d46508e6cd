"""Hypersurface germs: normal coordinates, reality, Levi data."""

from fractions import Fraction

import pytest

from crrigid.geometry import (Source, Target, check_defining_reality,
                              defining_frame, normalize_defining)
from crrigid.parser import parse_problem
from crrigid.scalars import Scalar
from crrigid.series import Series, frame

I = Scalar(0, 0, 1)
ORDER = 12


def _rho_quartic(order=ORDER):
    # Im w = |z|^2 + |z|^4, complexified
    frm = defining_frame(order)
    z = Series.variable(frm, "z")
    chi = Series.variable(frm, "chi")
    w = Series.variable(frm, "w")
    tau = Series.variable(frm, "tau")
    return (w - tau).scale(Scalar(0, 0, Fraction(-1, 2))) - z * chi \
        - (z * chi) ** 2


def test_reality_check():
    rho = _rho_quartic()
    check_defining_reality(rho)
    bad = rho + Series.variable(rho.frame, "z")
    with pytest.raises(ValueError):
        check_defining_reality(bad)


def test_normalize_quartic_source():
    Q, change = normalize_defining(_rho_quartic())
    assert change is None               # |z|^4 keeps the graph normal
    src = Source(Q)                     # verifies normal form
    # leading terms: Q = tau + 2i z chi + ..., Levi nondegenerate
    assert src.Q.coefficient((1, 1, 0)) == 2 * I


def test_hyperquadric_source_is_exact():
    src = Source.hyperquadric(ORDER)
    assert set(src.Q.coeffs) == {(0, 0, 1), (1, 1, 0)}
    assert src.Q.coefficient((1, 1, 0)) == 2 * I
    Q, _ = normalize_defining(
        _rho_quartic() + (Series.variable(defining_frame(ORDER), "z")
                          * Series.variable(defining_frame(ORDER), "chi")) ** 2)
    # adding back |z|^4 cancels the quartic term: sphere again
    assert Q == Source.hyperquadric(ORDER).Q


def test_normal_form_rejects_bad_graph():
    # a pure-z term breaks Q(z, 0, tau) = tau, a pure-chi term the other
    frm = frame("z", "chi", "tau", order=8, weights=(1, 1, 2))
    for exp, message in (((1, 0, 0), r"Q\(z, 0, tau\) != tau"),
                         ((0, 2, 0), r"Q\(0, chi, tau\) != tau")):
        q = Series.variable(frm, "tau") + Series.monomial(frm, exp, Scalar(1))
        with pytest.raises(ValueError, match=message):
            Source(q)


def test_normalize_returns_a_change_exactly_for_a_graph_not_normal():
    frm = defining_frame(ORDER)
    z, chi = Series.variable(frm, "z"), Series.variable(frm, "chi")
    assert normalize_defining(_rho_quartic())[1] is None
    # the real harmonic term z^2 + chi^2 puts a pure-z term in the graph
    Q, change = normalize_defining(_rho_quartic() - z * z - chi * chi)
    assert change is not None and not change.is_zero()
    Source(Q)                           # verifies normal form


def test_target_hyperquadric_levi_signature():
    plus = Target.hyperquadric(1, ORDER)
    minus = Target.hyperquadric(-1, ORDER)
    assert plus.levi_signature() == (2, 0)
    assert minus.levi_signature() == (1, 1)
    assert plus.levi_nondegenerate() and minus.levi_nondegenerate()


@pytest.mark.parametrize("target, signature", [
    ("target: imag(w1) = z1*conj(z1)", (1, 0)),
    ("target: imag(w1) = -z2*conj(z2)", (0, 1)),
    ("target: imag(w1) = z1^2*conj(z1) + conj(z1)^2*z1", (0, 0)),
    ("target: imag(w1) = z1*conj(z2) + z2*conj(z1)", (1, 1)),
    ("target(2): imag(w1) = -z1*conj(z1)", (0, 1)),
    ("target(2): imag(w1) = (z1*conj(z1))^2", (0, 0)),
])
def test_target_levi_signature(target, signature):
    spec = parse_problem(f"vars z w; source: hyperquadric; {target};", 8)
    assert spec.target.levi_signature() == signature


def test_target_reality_enforced():
    frm = Target.hyperquadric(1, 8).frame
    rho = Target.hyperquadric(1, 8).rho + Series.variable(frm, "z1")
    with pytest.raises(ValueError):
        Target(rho, 3)


def test_segre_fiber_data_of_quartic():
    src = Source(normalize_defining(_rho_quartic())[0])
    # Q(z, chi, 0) = 2i z chi + ... : first Segre coefficient 2i z
    ic, it = src.frame.index("chi"), src.frame.index("tau")
    A1 = {e: c for e, c in src.Q.coeffs.items() if e[ic] == 1 and not e[it]}
    assert A1 == {(1, 1, 0): 2 * I}


def test_source_reality_identity():
    # w = Q(z, chi, Qbar(chi, z, w)) holds exactly in the kept orders
    src = Source(normalize_defining(_rho_quartic())[0])
    src.verify_normal_form()  # would raise on failure
