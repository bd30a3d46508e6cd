"""Direct truncated solvers for the deformation equation and for
infinitesimal automorphisms.

These treat the full jet of the unknown field as linear unknowns, expand
the defining real-linear equation on the complexified germ to a working
order, and compute the exact kernel, projected to low-order jets.  They
serve as the independent cross-check ("oracle") for the jet
parametrization pipeline, and as the general-purpose automorphism solver
for target germs.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Sequence, Tuple

from crrigid.series import Series, power_table, table_monomial
from crrigid.linseries import LinSeries
from crrigid.geometry import Source, Target, target_vars, zct_frame
from crrigid.maps import MapGerm, pull_back, require_order
from crrigid.jets import JET4, KernelSolve, bar_key, harvest_kernel, \
    jet_unknowns


# -- the truncated tangency equation ----------------------------------

def jet_residual(r_on: Sequence[Series], rb_on: Sequence[Series],
                 holo: Sequence[Series], anti: Sequence[Series],
                 keys: Sequence[Hashable]) -> LinSeries:
    """sum_j r_j V_j + rbar_j conj(V_j) on a chart, with V the formal jet
    over ``keys``: ("jet", j, exp) is the coefficient of the monomial in
    ``holo`` with exponent exp in V_j, ("jetbar", j, exp) its conjugate,
    whose monomial is taken in ``anti``.

    A run of keys sharing one exponent, as :func:`jet_unknowns` orders
    them, forms its monomial once.
    """
    exps = [tuple(key[2:]) for key in keys]
    holo_pow, anti_pow = power_table(holo, exps), power_table(anti, exps)
    comps: Dict[Hashable, Series] = {}
    last = None
    for key, exp in zip(keys, exps):
        if exp != last:
            mono = table_monomial(holo_pow, exp)
            monob = table_monomial(anti_pow, exp)
            last = exp
        comps[key] = r_on[key[1]] * mono
        comps[bar_key(key)] = rb_on[key[1]] * monob
    return LinSeries.from_tags(r_on[0].frame, comps)


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
    # the projected jet occupies the leading columns
    rest = [k for k in jet_unknowns(n, weights, keq + 1, by_weight=True)
            if k not in proj]

    def harvest(K: int):
        # the new rows of residual_at(K), by weighted order, ties by
        # exponent: of the orders tried, the one needing the fewest row
        # operations on the corpus
        residual = residual_at(K)
        wdeg = residual.frame.wdeg
        exps = [e for e in residual.coeffs if K == keq or wdeg(e) == K]
        return (K, K), (residual.coefficient_row(e)
                        for e in sorted(exps, key=lambda e: (wdeg(e), e)))

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
    frm = zct_frame(work_order)
    holo, anti = chart = source.chart(frm)
    r_on, rb_on = target.gradient_on(pull_back(H, chart))
    keys = jet_unknowns(target.n, (1, 2), work_order, by_weight=True)
    return jet_residual(r_on, rb_on, [holo["z"], holo["w"]],
                        [anti["z"], anti["w"]], keys)


def direct_solve(H: MapGerm, source: Source, target: Target,
                 keq: int) -> KernelSolve:
    """Independent deformation-space computation by brute truncation:
    :func:`truncated_solve` of the deformation equation, projected onto
    the 4-jet.  The germs must be expanded to order keq + 1."""
    require_order(keq + 1, H, source, target)
    return truncated_solve(
        lambda K: deformation_residual(H, source, target, K),
        target.n, (1, 2), JET4, keq)


# -- infinitesimal automorphisms of a target germ ---------------------

def infinitesimal_automorphisms(target: Target, keq: int,
                                proj_order: int = 2) -> KernelSolve:
    """dim of the space of infinitesimal CR automorphisms of M' fixing 0.

    Solves Re sum_j rho_{Z_j}(Z, conj Z) V_j(Z) = 0 on the graph chart of
    M' with the jet of V as unknowns, by :func:`truncated_solve`.  The
    kernel is projected onto jets of order <= ``proj_order``
    (automorphisms of a Levi-nondegenerate germ are determined by their
    2-jets).  The target must be expanded to order keq + 1.
    """
    require_order(keq + 1, target)
    n = target.n
    names = target_vars(n)
    weights = (1,) * (n - 1) + (2,)

    def residual_at(K: int) -> LinSeries:
        bind = target.graph_chart(K)
        r_on, rb_on = target.gradient_on(bind)
        return jet_residual(r_on, rb_on, [bind[v] for v in names[:n]],
                            [bind[v] for v in names[n:]],
                            jet_unknowns(n, weights, K, by_weight=True))

    return truncated_solve(residual_at, n, weights,
                           jet_unknowns(n, weights, proj_order), keq)
