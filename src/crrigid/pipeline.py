"""Jet parametrization of the linearized embedding equation.

The linearized equation

    sum_j r_j(H, Hbar) alpha_j(z, w) + rbar_j(Hbar, H) alphabar_j(chi, tau) = 0
    on w = Q(z, chi, tau)

is solved by parametrizing every candidate solution by its 4-jet Lambda at
the origin and expressing membership as an explicit system of linear
conditions on Lambda.  The construction runs in two stages of one
reflection step (:func:`_reflect`): differentiate the equation twice along
the anti-CR direction of the chart and Cramer-solve the 3x3 system.

1. In the (z, chi, tau) chart alpha is replaced by its 4-jet polynomial.
   Reflecting along d/dz at z = 0 gives the conjugate field
   alphabar_h(chi, tau) as a jet-linear series.
2. In the (z, chi, w) chart the stage-1 series is pulled back to
   alphabar_h(chi, Qbar(chi, z, w)).  Reflecting along d/dchi on the
   second Segre set {w = q}, q = Q(x1, x2, 0) the Segre map of the
   division step, gives a jet-linear series phi_l(x1, x2) = alpha_l(x1, q).

Writing phi_l = sum_k alpha_k(x1) q^k and dividing by the powers of q one
x2-degree at a time (:func:`segre_divide`) recovers alpha_l(z, w) =
sum_k alpha_k(z) w^k.  Since q is divisible by x1, once the lower powers
are removed the x2^k part of phi_l must be divisible by x1^k, and the
candidate solution exists iff

  (i)   the lower x1-powers vanish (rows ``pole``); the quotient is the
        candidate K_l(z, w, Lambda);
  (ii)  the 4-jet of K agrees with Lambda and K(0) = 0 (rows ``jet``);
  (iii) K solves the original equation (rows ``residual``, which also
        involve the conjugate jet).

The real solution space is the kernel of all rows over the realified 4-jet
coordinates; its dimension is the quantity of interest.  All rows kept are
exact: a coefficient of weighted degree m + 2n (or a pole row with
a + 2k) is trusted only up to the working order, and the residual is
harvested at two consecutive orders to certify stabilization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from crrigid.series import Frame, Series, frame, power_table
from crrigid.bindings import Bindings
from crrigid.linseries import LinRow, LinSeries
from crrigid.linalg import adjugate3, det3
from crrigid.geometry import Source, Target, zct_frame, zcw_frame
from crrigid.maps import MapGerm, map_frame, pull_back, require_order
from crrigid.jets import JET4, JET4_ORDER, KernelSolve, harvest_kernel


class DegenerateMapError(ValueError):
    """The embedding is not 2-nondegenerate, so the reflection systems are
    singular and the jet parametrization does not apply."""


# -- the two reflection stages ----------------------------------------

def formal_jet(frm: Frame) -> List[LinSeries]:
    """J_j = sum of ("jet", j, m, n) z^m w^n over :data:`JET4`, per
    component."""
    return [LinSeries.from_tags(frm, {key: Series.monomial(frm, key[2:], 1)
                                      for key in JET4 if key[1] == j})
            for j in range(3)]


def _reflect(r: List[Series], rhs: LinSeries, var: str,
             restrict: Callable) -> List[LinSeries]:
    """One reflection step: x with sum_j d^k r_j x_j = d^k rhs, k = 0..2,
    d = d/d``var``, every entry mapped by ``restrict``.  Cramer's rule,
    x_h = sum_k b_k adj(M)[h][k] / det M, in the frame of the restricted
    right side; raises unless det M is a unit."""
    lhs, rhs_k = [list(r)], [rhs]
    for _ in range(2):
        lhs.append([s.partial(var) for s in lhs[-1]])
        rhs_k.append(rhs_k[-1].partial(var))
    M = [[restrict(s) for s in row] for row in lhs]
    b = [restrict(s) for s in rhs_k]
    det = det3(M)
    if det.constant_term().is_zero():
        raise DegenerateMapError("reflection system is singular")
    detinv = det.invert_unit()
    adj = adjugate3(M)
    return [sum((b[k] * adj[h][k] for k in range(3)), LinSeries(b[0].frame))
            * detinv for h in range(3)]


def conjugate_reflection(H: MapGerm, source: Source, target: Target,
                         order: int, J: List[LinSeries]) -> List[LinSeries]:
    """Stage 1: the conjugate field alphabar_h(chi, tau), h = 0..2, as
    jet-linear series in the (unbarred) 4-jet J of alpha.

    Reflects along d/dz, the anti-CR direction of the (z, chi, tau) chart,
    at z = 0.  Only d/dz up to order 2 is ever applied, so the chart
    carries a z-cap.
    """
    frm = zct_frame(order, zcap=2)
    holo, _ = chart = source.chart(frm)
    r_on, rb_on = target.gradient_on(pull_back(H, chart))
    # the unknown replaced by its 4-jet polynomial evaluated on the germ
    rhs = -sum((J[j].substitute(holo) * r_on[j] for j in range(3)),
               LinSeries(frm))
    # the tau-cap is exact: stage 2 evaluates alphabar at tau = Qbar, which
    # vanishes on the second Segre set, after at most two d/dchi; a term in
    # the ideal (tau^3) never reaches phi
    ct = frame("chi", "tau", order=order, weights=(1, 2), caps={"tau": 2})
    return _reflect(rb_on, rhs, "z", lambda s: s.project(ct))


def direct_reflection(H: MapGerm, source: Source, target: Target,
                      order: int, q: Series, abar: List[LinSeries]
                      ) -> List[LinSeries]:
    """Stage 2: alpha on the second Segre set.

    Works in the (z, chi, w) chart, where the equation reads
    sum_j r_j alpha_j(z, w) = -sum_h rbar_h alphabar_h(chi, Qbar(chi, z, w))
    with ``abar`` the stage-1 field; reflects along d/dchi on
    {z = x1, chi = x2, w = q}, q = Q(x1, x2, 0) the Segre map in the
    frame (x1, x2) of the result.  Returns phi_l(x1, x2) = alpha_l(x1, q).
    """
    frm = zcw_frame(order)
    _, anti = chart = source.chart(frm)
    r_on, rb_on = target.gradient_on(pull_back(H, chart))
    on_chart = Bindings({"chi": anti["z"], "tau": anti["w"]})
    rhs = -sum((abar[h].substitute(on_chart) * rb_on[h] for h in range(3)),
               LinSeries(frm))
    bind = Bindings({"z": Series.variable(q.frame, "x1"),
                     "chi": Series.variable(q.frame, "x2"), "w": q})
    return _reflect(r_on, rhs, "chi", lambda s: s.substitute(bind))


# -- division by the Segre map ---------------------------------------

def segre_fiber(source: Source, kphi: int) -> List[List[Series]]:
    """q^k and u1^-k, k = 0..kphi, as a power table in the frame (x1, x2)
    of phi: q = Q(x1, x2, 0) the Segre map and x1 u1 its x2-linear part."""
    xfrm = frame("x1", "x2", order=kphi)
    q = source.Q.project(xfrm, {"z": "x1", "chi": "x2"})
    u1 = Series(xfrm, {(m - 1, 0): c for (m, n), c in q.coeffs.items()
                       if n == 1})
    if u1.constant_term().is_zero():
        raise DegenerateMapError("source germ is Levi degenerate")
    return power_table([q, u1.invert_unit()], kphi)


def segre_divide(phi: LinSeries, fiber: List[List[Series]]
                 ) -> Tuple[Dict[tuple, LinRow], Dict[tuple, LinRow]]:
    """Solve phi(x1, x2) = sum_k alpha_k(x1) q^k for alpha(z, w) =
    sum_k alpha_k(z) w^k, one power k of x2 at a time.

    The x2^k part of the remainder is alpha_k x1^k u1^k x2^k plus terms
    x1^m x2^k with m < k, which must vanish: they are the pole rows, keyed
    (a, k) with a = m - k < 0.  The part is exact for m + k <= kphi, so
    alpha_k is exact for a + 2k <= kphi; only those rows, keyed (a, k),
    enter K.  Returns (alpha rows, pole rows).
    """
    kphi = phi.frame.order
    rest, alpha, poles = phi, {}, {}
    for k, (qk, uk) in enumerate(zip(*fiber)):
        part = [(m, row) for (m, n), row in rest.coeffs.items() if n == k]
        poles.update({(m - k, k): row for m, row in part if m < k})
        top = {(m - k, 0): row for m, row in part if m >= k}
        prod = (LinSeries(phi.frame, top) * uk).coeffs
        ak = LinSeries(phi.frame, {e: r for e, r in prod.items()
                                   if e[0] + 2 * k <= kphi})
        alpha.update({(a, k): r for (a, _), r in ak.coeffs.items()})
        rest = rest - ak * qk
    return alpha, poles


# -- conditions -------------------------------------------------------

def germ_order(work_order: int) -> int:
    """The order the germs must be expanded to for the pipeline at
    ``work_order``: that of the stage-1 frame of :func:`jet_conditions`."""
    return work_order + 5


def jet_conditions(H: MapGerm, source: Source, target: Target,
                   work_order: int
                   ) -> Tuple[List[LinSeries], Dict[tuple, LinRow],
                              Dict[tuple, LinRow]]:
    """The parametrized candidate solution K(z, w) and its pole rows,
    keyed (l, a, k), and jet rows, keyed (l, m, n).

    ``work_order`` bounds the trusted weighted degree; internally one more
    plain degree is carried so that pole rows with a + 2 k = work_order + 1
    (which occur already in the quadric model) are available exactly.
    """
    kphi = work_order + 1
    # K's frame holds the whole 4-jet, also when kphi < JET4_ORDER
    mf = map_frame(max(kphi, JET4_ORDER))
    J = formal_jet(mf)
    fiber = segre_fiber(source, kphi)
    abar = conjugate_reflection(H, source, target, germ_order(work_order), J)
    phi = direct_reflection(H, source, target, kphi + 2, fiber[0][1], abar)

    rows_pole: Dict[tuple, LinRow] = {}
    K: List[LinSeries] = []
    for ell in range(3):
        alpha, poles = segre_divide(phi[ell], fiber)
        rows_pole.update({(ell, a, k): row for (a, k), row in poles.items()})
        K.append(LinSeries(mf, alpha))

    diffs = [k - j for k, j in zip(K, J)]
    # K(0) = 0, and the 4-jet of K is Lambda where K is known: K holds no
    # coefficient of weighted degree beyond kphi, and comparing there
    # would force Lambda = 0
    slots = [(ell, 0, 0) for ell in range(3)] + [key[1:] for key in JET4]
    rows_jet = {(ell, m, n): diffs[ell].coefficient_row((m, n))
                for ell, m, n in slots
                if m + 2 * n <= kphi and (m, n) in diffs[ell].coeffs}
    return K, rows_pole, rows_jet


def residual_rows(K: List[LinSeries], H: MapGerm, source: Source,
                  target: Target, order: int) -> Dict[tuple, LinRow]:
    """Condition (iii): the candidate K re-inserted into the linearized
    equation on the complexified germ, harvested to the given weighted
    order.  Rows involve both the jet and its conjugate."""
    frm = zct_frame(order)
    holo, anti = chart = source.chart(frm)
    r_on, rb_on = target.gradient_on(pull_back(H, chart))
    res = LinSeries(frm)
    for ell in range(3):
        Kc = K[ell].substitute(holo)
        Kb = K[ell].conj().substitute(anti)
        res = res + Kc * r_on[ell] + Kb * rb_on[ell]
    return {exp: res.coefficient_row(exp)
            for exp in sorted(res.coeffs, key=frm.wdeg)}


# -- assembled solver -------------------------------------------------

@dataclass
class ConditionSystem:
    """Conditions (i)-(iii) at one working order, before elimination."""
    work_order: int
    rows_pole: Dict[tuple, LinRow]   # (l, a, k) -> complex row
    rows_jet: Dict[tuple, LinRow]    # (l, m, n) -> complex row
    residuals: Dict[tuple, LinRow]   # (z, chi, tau) exponent -> row


def condition_system(H: MapGerm, source: Source, target: Target,
                     work_order: int) -> ConditionSystem:
    """The pole, jet and residual rows of H, the residual harvested to
    ``work_order``.  The germs must be expanded to
    ``germ_order(work_order)``."""
    require_order(germ_order(work_order), H, source, target)
    K, rows_pole, rows_jet = jet_conditions(H, source, target, work_order)
    return ConditionSystem(work_order, rows_pole, rows_jet,
                           residual_rows(K, H, source, target, work_order))


def solve_conditions(system: ConditionSystem) -> KernelSolve:
    """The real kernel of a condition system.

    The pole and jet rows are complex-linear in the 4-jet; the residual
    rows also involve the conjugate jet.  :func:`harvest_kernel` realifies
    them over the 84 real 4-jet coordinates and reports the kernel after
    the pole, jet and lower residual rows (order work_order - 1) and again
    after the residual rows of weighted order work_order, with
    stabilization over those two orders.
    """
    work_order = system.work_order
    wdeg, residuals = zct_frame(work_order).wdeg, system.residuals.items()
    first = [*system.rows_pole.values(), *system.rows_jet.values(),
             *(r for e, r in residuals if wdeg(e) < work_order)]
    return harvest_kernel(
        JET4, [],
        [(work_order - 1, first),
         (work_order, [r for e, r in residuals if wdeg(e) == work_order])])


def solve_deformation(H: MapGerm, source: Source, target: Target,
                      work_order: int) -> KernelSolve:
    """Dimension of the space of infinitesimal deformations of H: the
    kernel of its :func:`condition_system` at ``work_order``."""
    return solve_conditions(condition_system(H, source, target, work_order))
