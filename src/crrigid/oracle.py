"""Direct truncated solvers for the deformation equation and for
infinitesimal automorphisms.

These treat the full jet of the unknown field as linear unknowns, expand
the defining real-linear equation on the complexified germ to a working
order, and compute the exact kernel, projected to low-order jets.  They
serve as the independent cross-check ("oracle") for the jet
parametrization pipeline, and as the general-purpose automorphism solver
for target germs.  Both harvest one coefficient per conjugate pair
(:func:`mirror_half`).
"""

from __future__ import annotations

from operator import add
from typing import Callable, Dict, Hashable, List, Sequence, Tuple

from crrigid.series import Exponent, Series
from crrigid.bindings import Bindings
from crrigid.linseries import LinSeries
from crrigid.geometry import Source, Target, target_vars, zct_frame
from crrigid.maps import MapGerm, pull_back, require_order
from crrigid.jets import JET4, KernelSolve, LinRow, bar_key, \
    harvest_kernel, jet_unknowns


# -- the truncated tangency equation ----------------------------------

def jet_residual(r_on: Sequence[Series], rb_on: Sequence[Series],
                 holo: Tuple[Bindings, Sequence[str]],
                 anti: Tuple[Bindings, Sequence[str]],
                 keys: Sequence[Hashable]) -> LinSeries:
    """sum_j r_j V_j + rbar_j conj(V_j) on a chart, with V the formal jet
    over ``keys``: ("jet", j, exp) is the coefficient in V_j of the
    monomial with exponent exp in the variables ``names`` of
    ``holo = (chart, names)``, bound by the chart, and ("jetbar", j, exp)
    its conjugate, whose monomial is taken in ``anti`` likewise.

    The rows are written directly, in the order of ``keys`` with each jet
    tag before its jetbar tag: a tag's terms are those of its
    :func:`monomial_multiples` product, shifted, where the frame admits
    them.  That is the truncation of the full product, since a term past
    the order or a cap has every multiple past it too.
    """
    frm = r_on[0].frame
    admits = frm.admits if frm.caps else None
    exps = [tuple(key[2:]) for key in keys]
    sides = (monomial_multiples(r_on, *holo),
             monomial_multiples(rb_on, *anti))
    out: Dict[Exponent, LinRow] = {}
    for key, exp in zip(keys, exps):
        for tag, multiple in zip((key, bar_key(key)), sides):
            shift, limit, terms = multiple(key[1], exp)
            for w, e, c in terms:
                if w > limit:    # the terms are sorted by weighted degree
                    break
                if shift is not None:
                    e = tuple(map(add, e, shift))
                    if admits is not None and not admits(e):
                        continue
                row = out.get(e)
                if row is None:
                    row = out[e] = LinRow()
                row[tag] = c
    return LinSeries(frm, out)


def monomial_multiples(r: Sequence[Series], chart: Bindings,
                       names: Sequence[str]) -> Callable:
    """r[j] * prod_i chart[names[i]]^exp[i], as a function of (j, exp)
    giving (shift, limit, terms): the terms (wdeg, e, c) of a product,
    sorted, each moved to e + shift (None when it is zero) and kept up to
    the weighted degree ``limit`` before the move.

    The chart splits each monomial into the shift of its bindings of one
    term with coefficient 1, such as chart variables, and a monomial of
    its other bindings, which it keeps (:meth:`Bindings.splitter`).  So
    one product is formed for each j and monomial of the other bindings,
    none for their power 0, and the split of each exp is found once.
    """
    frm, split = r[0].frame, chart.splitter(names)
    cuts: Dict[Exponent, tuple] = {}
    products: Dict[Tuple[int, Exponent], list] = {}

    def multiple(j: int, exp: Exponent) -> tuple:
        cut = cuts.get(exp)
        if cut is None:
            cut = cuts[exp] = split(exp)
        shift, limit, power = cut
        terms = products.get((j, power))
        if terms is None:
            prod = r[j] * chart.monomial(power) if any(power) else r[j]
            terms = products[j, power] = sorted(
                (frm.wdeg(e), e, c) for e, c in prod.coeffs.items())
        return shift, limit, terms

    return multiple


def truncated_solve(residual_at: Callable[[int], LinSeries], n: int,
                    weights: Tuple[int, ...], proj_keys: List[Hashable],
                    keq: int) -> KernelSolve:
    """Kernel of a truncated tangency equation, projected onto the jet
    tags ``proj_keys``.

    The unknowns are the jet coordinates of the n components of weighted
    degree <= keq + 1 (variable weights ``weights``).  At truncation keq
    every coefficient of ``residual_at(keq)``, all of weighted order
    <= keq, is harvested; at keq + 1 the coefficients of weighted order
    keq + 1 of ``residual_at(keq + 1)`` are added.  An equation of
    weighted order W involves only jet coordinates of weighted degree
    <= W, so each harvested row is complete and the projected kernel can
    only overcount the true dimension.  Stabilization requires the two
    projected dimensions to agree.
    """
    proj = set(proj_keys)
    rest = [k for k in jet_unknowns(n, weights, keq + 1) if k not in proj]

    def harvest(K: int):
        # the new rows of residual_at(K), by weighted order
        residual = residual_at(K)
        wdeg = residual.frame.wdeg
        exps = [e for e in residual.coeffs if K == keq or wdeg(e) == K]
        return (K, K), (residual.coefficient_row(e)
                        for e in sorted(exps, key=wdeg))

    # residual_at(keq + 1) is built once the order-keq rows are eliminated
    return harvest_kernel(proj_keys, rest, map(harvest, (keq, keq + 1)))


# -- deformation oracle -----------------------------------------------

def deformation_residual(H: MapGerm, source: Source, target: Target,
                         work_order: int) -> LinSeries:
    """The deformation equation residual as a jet-linear series on the
    (z, chi, tau) parametrization of the complexified source germ.

    The unknown deformation field alpha is replaced by its formal jet of
    *weighted* order ``work_order`` (z-degree + 2 w-degree); the residual
    is linear in the jet and its conjugate.
    """
    holo, anti = chart = source.chart(zct_frame(work_order))
    r_on, rb_on = target.gradient_on(pull_back(H, chart))
    keys = jet_unknowns(target.n, (1, 2), work_order)
    return jet_residual(r_on, rb_on, (holo, ("z", "w")), (anti, ("z", "w")),
                        keys)


def mirror_half(residual: LinSeries, m: int) -> LinSeries:
    """The coefficients of a residual at exponents (a, b, c) with
    a <= b, as tuples, whose real rows span those of all its
    coefficients at every weighted order.

    The residual is a :func:`deformation_residual` on the (x, y, omega) =
    (z, chi, tau) chart, m = 1, or an :func:`automorphism_residual` on
    the (z', zeta', bw1) graph chart, m = n - 1: a, b and c are the
    exponents of x, y and omega, and W(x, y, omega) is the chart's value
    of the conjugate variable of omega, w = Q or w1 = W.

    Proof: the equation is real and the germ too, so R(x, y, omega) =
    Rbar(y, x, W(x, y, omega)), Rbar with conjugate coefficients and jet,
    jetbar tags swapped.  W = omega + terms of weighted degree >= 2 in x
    and y: a normal form has no linear term but tau, and
    :meth:`~crrigid.geometry.Target.verify` fixes the linear part.  So
    the row of R at (a, b, c) is conj(row at (b, a, c)), plus conjugates
    of rows of its own weighted order and omega-degree > c, plus rows of
    lower weighted order.  For a > b, (b, a, c) is kept.  A complex row,
    its conjugate and their complex multiples span the same real rows, so
    by induction on the weighted order, then on descending omega-degree,
    the kept rows span all.
    """
    return LinSeries(residual.frame, {
        e: row for e, row in residual.coeffs.items() if e[:m] <= e[m:2 * m]})


def direct_solve(H: MapGerm, source: Source, target: Target,
                 keq: int) -> KernelSolve:
    """Independent deformation-space computation by brute truncation:
    :func:`truncated_solve` of the deformation equation, projected onto
    the 4-jet, harvesting the :func:`mirror_half` of each residual.  The
    germs must be expanded to order keq + 1."""
    require_order(keq + 1, H, source, target)
    return truncated_solve(
        lambda K: mirror_half(deformation_residual(H, source, target, K), 1),
        target.n, (1, 2), JET4, keq)


# -- infinitesimal automorphisms of a target germ ---------------------

def automorphism_residual(target: Target, order: int) -> LinSeries:
    """The automorphism equation residual sum_j rho_{Z_j} V_j + conj as a
    jet-linear series on the graph chart of the complexified target
    germ, V replaced by its formal jet of weighted order ``order`` in the
    weights of that chart."""
    n = target.n
    names = target_vars(n)
    chart = target.graph_chart(order)
    r_on, rb_on = target.gradient_on(chart)
    return jet_residual(r_on, rb_on, (chart, names[:n]), (chart, names[n:]),
                        jet_unknowns(n, target.frame.weights[:n], order))


def infinitesimal_automorphisms(target: Target, keq: int,
                                proj_order: int = 2) -> KernelSolve:
    """dim of the space of infinitesimal CR automorphisms of M' fixing 0.

    Solves Re sum_j rho_{Z_j}(Z, conj Z) V_j(Z) = 0 on the graph chart of
    M' with the jet of V as unknowns: :func:`truncated_solve` of the
    :func:`mirror_half` of :func:`automorphism_residual`.  The kernel is
    projected onto jets of plain degree <= ``proj_order`` (automorphisms
    of a Levi-nondegenerate germ are determined by their 2-jets).  The
    target must be expanded to order keq + 1.
    """
    require_order(keq + 1, target)
    n = target.n
    return truncated_solve(
        lambda K: mirror_half(automorphism_residual(target, K), n - 1), n,
        target.frame.weights[:n], jet_unknowns(n, (1,) * n, proj_order), keq)
