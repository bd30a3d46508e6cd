"""Jet parametrization of the linearized embedding equation.

The linearized equation

    sum_j r_j(H, Hbar) alpha_j(z, w) + rbar_j(Hbar, H) alphabar_j(chi, tau) = 0
    on w = Q(z, chi, tau)

is solved by parametrizing every candidate solution by its 4-jet Lambda at
the origin and expressing membership as an explicit system of linear
conditions on Lambda.  The construction runs in two reflection stages:

1. In the (z, chi, tau) chart alpha is replaced by its 4-jet polynomial.
   Differentiating the equation along d/dz (the anti-CR direction there)
   and Cramer-solving the resulting 3x3 system at z = 0 gives the
   conjugate field alphabar_h(chi, tau) as a jet-linear series.
2. In the (z, chi, w) chart the stage-1 series is pulled back to
   alphabar_h(chi, Qbar(chi, z, w)).  Differentiating along d/dchi,
   evaluating on the second Segre set {w = Q(z, chi, 0)} and
   Cramer-solving gives a jet-linear series phi_l(x1, x2) with
   alpha_l(x1, Q(x1, x2, 0)) = phi_l(x1, x2).

Writing Q(z, chi, 0) = B(z) t with B = A_1^2 and inverting the fiber
coordinate gives Psi_l(z, t) with alpha_l(z, w) = Psi_l(z, w / B(z)).
Since B vanishes to second order in z, Psi_l(z, w / B(z)) is a priori
Laurent in z, and the candidate solution exists iff

  (i)   all negative z-powers vanish (rows ``pole``); the regular part is
        the candidate K_l(z, w, Lambda);
  (ii)  the 4-jet of K agrees with Lambda and K(0) = 0 (rows ``jet``);
  (iii) K solves the original equation (rows ``residual``, which also
        involve the conjugate jet).

The real solution space is the kernel of all rows over the realified 4-jet
coordinates; its dimension is the quantity of interest.  All rows kept are
exact: a coefficient of weighted degree m + 2n (or a pole row with
a + 2 m2) is trusted only up to the working order, and the residual is
harvested at two consecutive orders to certify stabilization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from crrigid.scalars import Scalar
from crrigid.series import Frame, Series, frame, reversion
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
    J: List[Dict[tuple, LinRow]] = [{} for _ in range(3)]
    for key in JET4:
        J[key[1]][tuple(key[2:])] = {key: Scalar(1)}
    return [LinSeries(frm, rows) for rows in J]


def _cramer(M: List[List[Series]], b: List[LinSeries], frm: Frame,
            singular: str) -> List[LinSeries]:
    """x with M x = b by Cramer's rule, x_h = sum_k b_k adj(M)[h][k] / det M,
    in the frame of b; raises ``singular`` unless det M is a unit."""
    det = det3(M)
    if det.constant_term().is_zero():
        raise DegenerateMapError(singular)
    detinv = det.invert_unit()
    adj = adjugate3(M)
    return [sum((b[k] * adj[h][k] for k in range(3)), LinSeries(frm)) * detinv
            for h in range(3)]


def conjugate_reflection(H: MapGerm, source: Source, target: Target,
                         order: int, J: List[LinSeries]) -> List[LinSeries]:
    """Stage 1: the conjugate field alphabar_h(chi, tau), h = 0..2, as
    jet-linear series in the (unbarred) 4-jet J of alpha.

    Differentiates the equation along d/dz, the anti-CR direction of the
    (z, chi, tau) chart, and Cramer-solves at z = 0.  Only d/dz up to
    order 2 is ever applied, so the chart carries a z-cap.
    """
    frm = zct_frame(order, zcap=2)
    holo, _ = chart = source.chart(frm)
    r_on, rb_on = target.gradient_on(pull_back(H, chart))

    # the unknown replaced by its 4-jet polynomial evaluated on the germ
    rhs = -sum((J[j].substitute(holo) * r_on[j] for j in range(3)),
               LinSeries(frm))
    lhs = [list(rb_on)]
    rhs_k = [rhs]
    for _ in range(2):
        lhs.append([s.partial("z") for s in lhs[-1]])
        rhs_k.append(rhs_k[-1].partial("z"))

    # the tau-cap is exact: stage 2 evaluates alphabar at tau = Qbar, which
    # vanishes on the second Segre set, after at most two d/dchi; a term in
    # the ideal (tau^3) never reaches phi
    ct = frame("chi", "tau", order=order, weights=(1, 2), caps={"tau": 2})
    return _cramer([[s.project(ct) for s in row] for row in lhs],
                   [r.project(ct) for r in rhs_k], ct,
                   "conjugate reflection system is singular")


def direct_reflection(H: MapGerm, source: Source, target: Target,
                      order: int, xfrm: Frame, abar: List[LinSeries]
                      ) -> List[LinSeries]:
    """Stage 2: alpha on the second Segre set.

    Works in the (z, chi, w) chart, where the equation reads
    sum_j r_j alpha_j(z, w) = -sum_h rbar_h alphabar_h(chi, Qbar(chi, z, w))
    with ``abar`` the stage-1 field; applies d/dchi up to twice, evaluates
    on {z = x1, chi = x2, w = Q(x1, x2, 0)} and Cramer-solves.  Returns
    the jet-linear series phi_l(x1, x2) = alpha_l(x1, Q(x1, x2, 0)).
    """
    frm = zcw_frame(order)
    _, anti = chart = source.chart(frm)
    r_on, rb_on = target.gradient_on(pull_back(H, chart))
    on_chart = {"chi": anti["z"], "tau": anti["w"]}
    rhs = -sum((abar[h].substitute(on_chart) * rb_on[h] for h in range(3)),
               LinSeries(frm))
    lhs = [list(r_on)]
    rhs_k = [rhs]
    for _ in range(2):
        lhs.append([s.partial("chi") for s in lhs[-1]])
        rhs_k.append(rhs_k[-1].partial("chi"))

    bind = {"z": Series.variable(xfrm, "x1"),
            "chi": Series.variable(xfrm, "x2"),
            "w": source.Q.project(xfrm, {"z": "x1", "chi": "x2"})}
    return _cramer([[s.substitute(bind) for s in row] for row in lhs],
                   [r.substitute(bind) for r in rhs_k], xfrm,
                   "reflection system is singular")


# -- fiber coordinate on the second Segre set -------------------------

@dataclass
class SegreFiber:
    A1: Series      # Q_chi(z, 0, 0), vanishing to first order in z
    Uinv: Series    # z^2 / A1(z)^2, a unit
    psi: Series     # fiber inverse: Q(z, A1(z) psi(z, t), 0) = A1(z)^2 t
    lift: Series    # A1(z) psi(z, t), in the frame of psi


def segre_fiber(source: Source, kphi: int) -> SegreFiber:
    zf = frame("z", order=max(kphi, source.order))
    A = source.segre_coefficients(zf)
    A1 = A.get(1, Series.zero(zf))
    u1 = Series(zf, {(e - 1,): c for (e,), c in A1.coeffs.items() if e >= 1})
    if u1.constant_term().is_zero():
        raise DegenerateMapError("source germ is Levi degenerate")
    Uinv = (u1 * u1).invert_unit()

    pf = frame("z", "u", order=2 * kphi, caps={"z": kphi, "u": kphi})
    psihat = Series.variable(pf, "u")
    upow = psihat
    zk = frame("z", order=kphi)
    for j in range(2, kphi + 1):
        upow = upow * Series.variable(pf, "u")
        Aj = A.get(j)
        if Aj is None:
            continue
        Cj = (Aj * (A1 ** (j - 2))).project(zk)
        psihat = psihat + upow * Cj.rebase(pf)
    tf = frame("z", "t", order=2 * kphi, caps={"z": kphi, "t": kphi})
    psi = reversion(psihat, ("z",), "u", "t", tf)

    # check the defining identity Q(z, A1 psi, 0) = A1^2 t on the kept ball
    zD = Series.variable(tf, "z")
    lift = A1.project(zk).rebase(tf) * psi
    qcheck = source.Q.substitute({"z": zD, "chi": lift,
                                  "tau": Series.zero(tf)})
    b_t = (A1 * A1).project(zk).rebase(tf) * Series.variable(tf, "t")
    if qcheck != b_t:
        raise ArithmeticError("fiber inversion failed to verify")
    return SegreFiber(A1, Uinv, psi, lift)


# -- conditions -------------------------------------------------------

@dataclass
class JetConditions:
    K: List[LinSeries]                             # candidate solution, (z, w)
    rows_pole: Dict[Tuple[int, int, int], LinRow]  # (l, a, m2) -> complex row
    rows_jet: Dict[Tuple[int, int, int], LinRow]   # (l, m, n) -> complex row


def jet_conditions(H: MapGerm, source: Source, target: Target,
                   work_order: int) -> JetConditions:
    """Pole and jet conditions of the parametrized candidate solution.

    ``work_order`` bounds the trusted weighted degree; internally one more
    plain degree is carried so that pole rows with a + 2 m2 = work_order + 1
    (which occur already in the quadric model) are available exactly.
    """
    kphi = work_order + 1
    xfrm = frame("x1", "x2", order=kphi)
    # K's frame holds the whole 4-jet, also when kphi < JET4_ORDER
    mf = map_frame(max(kphi, JET4_ORDER))
    J = formal_jet(mf)
    abar = conjugate_reflection(H, source, target, kphi + 4, J)
    phi = direct_reflection(H, source, target, kphi + 2, xfrm, abar)
    fiber = segre_fiber(source, kphi)

    # Psi_l(z, t) = phi_l(z, A1(z) psi(z, t))
    zt = Series.variable(fiber.psi.frame, "z")
    Psi = [p.substitute({"x1": zt, "x2": fiber.lift}) for p in phi]

    # t -> w / B(z) stratum by stratum: B^m2 = z^(2 m2) / Uinv^m2
    zf = frame("z", order=kphi)
    uipow = [Series.const(zf, 1)]
    for _ in range(kphi):
        uipow.append(uipow[-1] * fiber.Uinv.project(zf))

    rows_pole: Dict[Tuple[int, int, int], LinRow] = {}
    K: List[LinSeries] = []
    for ell in range(3):
        # the z-series at each power m2 of t (tf caps z at kphi)
        strata: Dict[int, Dict[tuple, LinRow]] = {}
        for (m1, m2), row in Psi[ell].rows.items():
            strata.setdefault(m2, {})[(m1,)] = row
        krows: Dict[tuple, LinRow] = {}
        for m2, zrows in strata.items():
            prod = LinSeries(zf, zrows) * uipow[m2]
            for (m1,), row in prod.rows.items():
                a = m1 - 2 * m2
                if a < 0:
                    rows_pole[(ell, a, m2)] = row
                elif a + 2 * m2 <= kphi:
                    krows[(a, m2)] = row
        K.append(LinSeries(mf, krows))

    diffs = [k - j for k, j in zip(K, J)]
    # K(0) = 0, and the 4-jet of K is Lambda
    slots = [(ell, 0, 0) for ell in range(3)] + [key[1:] for key in JET4]
    rows_jet = {(ell, m, n): diffs[ell].coefficient_row((m, n))
                for ell, m, n in slots if (m, n) in diffs[ell].support()}
    return JetConditions(K, rows_pole, rows_jet)


def residual_rows(cond: JetConditions, H: MapGerm, source: Source,
                  target: Target, order: int) -> Dict[tuple, LinRow]:
    """Condition (iii): the candidate K re-inserted into the linearized
    equation on the complexified germ, harvested to the given weighted
    order.  Rows involve both the jet and its conjugate."""
    frm = zct_frame(order)
    holo, anti = chart = source.chart(frm)
    r_on, rb_on = target.gradient_on(pull_back(H, chart))
    res = LinSeries(frm)
    for ell in range(3):
        Kc = cond.K[ell].substitute(holo)
        Kb = cond.K[ell].conj().substitute(anti)
        res = res + Kc * r_on[ell] + Kb * rb_on[ell]
    return {exp: res.coefficient_row(exp)
            for exp in sorted(res.support(), key=frm.wdeg)}


# -- assembled solver -------------------------------------------------

@dataclass
class ConditionSystem:
    """Conditions (i)-(iii) at one working order, before elimination."""
    jet: JetConditions
    residuals: Dict[tuple, LinRow]   # (z, chi, tau) exponent -> row
    frame: Frame                  # the residual's frame, at the work order


def condition_system(H: MapGerm, source: Source, target: Target,
                     work_order: int) -> ConditionSystem:
    """The pole, jet and residual rows of H, the residual harvested to
    ``work_order``.  The germs must be expanded to the order of the
    stage-1 frame, work_order + 5."""
    require_order(work_order + 5, H, source, target)
    cond = jet_conditions(H, source, target, work_order)
    return ConditionSystem(
        cond, residual_rows(cond, H, source, target, work_order),
        zct_frame(work_order))


def solve_conditions(system: ConditionSystem) -> KernelSolve:
    """The real kernel of a condition system.

    The pole and jet rows are complex-linear in the 4-jet; the residual
    rows also involve the conjugate jet.  :func:`harvest_kernel` realifies
    them over the 84 real 4-jet coordinates and reports the kernel after
    the pole, jet and lower residual rows (order work_order - 1) and again
    after the residual rows of weighted order work_order, with
    stabilization over those two orders.
    """
    work_order, wdeg = system.frame.order, system.frame.wdeg
    jet, residuals = system.jet, system.residuals.items()
    first = [*jet.rows_pole.values(), *jet.rows_jet.values(),
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
