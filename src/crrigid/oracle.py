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

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from crrigid.scalars import Scalar
from crrigid.series import Frame, Series, frame
from crrigid.linseries import LinSeries
from crrigid.geometry import Source, Target, target_vars
from crrigid.maps import MapGerm, pull_back
from crrigid.linalg import Eliminator, rank_of, rref

Row = Dict[int, Scalar]


# -- unknown bookkeeping ----------------------------------------------

def jet_unknowns(ncomp: int, nvars_weights: Sequence[int], kmax: int,
                 by_weight: bool = False):
    """Ordered unknown tags ("jet", j, exp...) with 1 <= deg(exp) <= kmax.

    With ``by_weight`` the degree bound uses the weighted degree
    sum(w_i e_i); this matters for soundness of the truncated solvers: an
    equation row of weighted order W only involves jet coordinates of
    weighted degree <= W, so a weighted unknown set never silently drops
    contributions of admissible rows.
    """
    from itertools import product
    nv = len(nvars_weights)
    exps = []
    for exp in product(*(range(kmax + 1) for _ in range(nv))):
        deg = sum(e * w for e, w in zip(exp, nvars_weights)) if by_weight \
            else sum(exp)
        if deg > kmax or sum(exp) == 0:
            continue
        exps.append(exp)
    exps.sort(key=lambda e: (sum(e), tuple(-x for x in e)))
    keys = []
    for exp in exps:
        for j in range(ncomp):
            keys.append(("jet", j) + tuple(exp))
    return keys


def realify_row(row, col: Dict[Hashable, int]) -> List[Row]:
    """Split a complex-linear row in (Lambda, conj Lambda) into real-linear
    rows over (Re Lambda, Im Lambda).

    ``col`` numbers the unbarred unknown tags; column 2k holds Re, 2k+1 Im
    of unknown k.  The row contributes its nonzero real and imaginary
    parts, at most two real rows.
    """
    re_row: Row = {}
    im_row: Row = {}
    for key, coef in row.items():
        if key[0] == "jet":
            k = col[key]
            a, b = coef, Scalar(0)
        else:
            k = col[("jet",) + tuple(key[1:])]
            a, b = Scalar(0), coef
        # (a Lam + b conj Lam) with Lam = x + i y contributes
        # (a+b) x + i (a-b) y
        s = a + b
        t = (a - b) * Scalar(0, 0, 1, 0)
        for cidx, c in ((2 * k, s), (2 * k + 1, t)):
            rp, ip = c.real_part(), c.imag_part()
            if not rp.is_zero():
                re_row[cidx] = re_row.get(cidx, Scalar(0)) + rp
            if not ip.is_zero():
                im_row[cidx] = im_row.get(cidx, Scalar(0)) + ip
    out = []
    for r in (re_row, im_row):
        r = {c: v for c, v in r.items() if not v.is_zero()}
        if r:
            out.append(r)
    return out


def projected_dim(kernel: List[Row], proj_cols: List[int]) -> int:
    cols = set(proj_cols)
    vecs = [{c: v for c, v in vec.items() if c in cols} for vec in kernel]
    vecs = [v for v in vecs if v]
    return rank_of(vecs, max(proj_cols) + 1 if proj_cols else 0)


# -- deformation oracle -----------------------------------------------

def deformation_residual(H: MapGerm, source: Source, target: Target,
                         work_order: int, kjet: int) -> Tuple[LinSeries, Frame]:
    """The deformation equation residual as a jet-linear series on the
    (z, chi, tau) parametrization of the complexified source germ.

    The unknown deformation field alpha is replaced by its formal jet of
    *weighted* order ``kjet`` (z-degree + 2 w-degree); the residual is
    linear in the jet and its conjugate.
    """
    frm = source.zct_frame(work_order)
    holo, anti = chart = source.chart(frm)
    r_on, rb_on = target.gradient_on(pull_back(H, chart))
    zv, wstar, cv, tv = holo["z"], holo["w"], anti["z"], anti["w"]

    # cached powers of wstar and tau
    wpow = [Series.const(frm, 1)]
    tpow = [Series.const(frm, 1)]
    zpow = [Series.const(frm, 1)]
    cpow = [Series.const(frm, 1)]
    for _ in range(kjet):
        wpow.append(wpow[-1] * wstar)
        tpow.append(tpow[-1] * tv)
        zpow.append(zpow[-1] * zv)
        cpow.append(cpow[-1] * cv)

    comps: Dict[Hashable, Series] = {}
    for key in jet_unknowns(1, (1, 2), kjet, by_weight=True):
        _, _, m, n = key
        mono = zpow[m] * wpow[n]
        monob = cpow[m] * tpow[n]
        for j in range(target.n):
            s = r_on[j] * mono
            if not s.is_zero():
                comps[("jet", j, m, n)] = s
            sb = rb_on[j] * monob
            if not sb.is_zero():
                comps[("jetbar", j, m, n)] = sb
    return LinSeries(frm, comps), frm


@dataclass
class DirectSolveResult:
    dims: Dict[Tuple[int, int], int]   # (kjet, harvest order) -> projected dim
    dim: int
    stabilized: bool
    kernel_real: List[Row]             # canonical basis, 4-jet real coords
    jet_keys: List[Hashable]           # unbarred 4-jet tags, column k <-> 2k/2k+1


def direct_solve(H: MapGerm, source: Source, target: Target,
                 keq: int = 16) -> DirectSolveResult:
    """Independent deformation-space computation by brute truncation.

    For K in (keq, keq + 1): the unknowns are the jet coordinates of the
    field of weighted degree <= K, and every coefficient equation of
    weighted order <= K is harvested.  An equation of weighted order W
    involves only jet coordinates of weighted degree <= W, so each
    harvested row is complete and the kernel, projected onto the 4-jet,
    can only overcount the true dimension.  Stabilization requires the
    two projected dimensions to agree.
    """
    dims: Dict[Tuple[int, int], int] = {}
    final_kernel: List[Row] = []
    keys4 = jet_unknowns(target.n, (1, 2), 4)
    for K in (keq, keq + 1):
        residual, frm = deformation_residual(H, source, target, K, K)
        keys = jet_unknowns(target.n, (1, 2), K, by_weight=True)
        # reorder so the 4-jet occupies the leading columns
        keys = keys4 + [k for k in keys if k not in set(keys4)]
        col = {k: i for i, k in enumerate(keys)}
        elim = Eliminator(2 * len(keys))
        proj_cols = list(range(2 * len(keys4)))
        exps = sorted(residual.support(), key=lambda e: frm.wdeg(e))
        for exp in exps:
            crow = residual.coefficient_row(exp)
            for r in realify_row(crow, col):
                elim.add_row(r)
        kernel = elim.kernel_basis()
        dims[(K, K)] = projected_dim(kernel, proj_cols)
        if K == keq + 1:
            cols = set(proj_cols)
            vecs = [{c: v for c, v in vec.items() if c in cols}
                    for vec in kernel]
            final_kernel = rref([v for v in vecs if v], len(proj_cols))
    vals = set(dims.values())
    stabilized = len(vals) == 1
    return DirectSolveResult(dims, dims[(keq + 1, keq + 1)], stabilized,
                             final_kernel, keys4)


# -- infinitesimal automorphisms of a target germ ---------------------

@dataclass
class AutomorphismResult:
    dims: Dict[Tuple[int, int], int]
    dim: int
    stabilized: bool
    kernel_real: List[Row]
    jet_keys: List[Hashable]


def infinitesimal_automorphisms(target: Target, keq: int = 9,
                                proj_order: int = 2) -> AutomorphismResult:
    """dim of the space of infinitesimal CR automorphisms of M' fixing 0.

    Solves Re sum_j rho_{Z_j}(Z, conj Z) V_j(Z) = 0 on M' with the jet of
    V as unknowns.  As in :func:`direct_solve`, for K in (keq, keq + 1)
    the unknown jet coordinates are those of weighted degree <= K and all
    equation rows of weighted order <= K are harvested, so rows are never
    incomplete.  The kernel is projected onto jets of order <=
    ``proj_order`` (automorphisms of a Levi-nondegenerate germ are
    determined by their 2-jets).
    """
    n = target.n
    dims: Dict[Tuple[int, int], int] = {}
    final_kernel: List[Row] = []
    weights = (1,) * (n - 1) + (2,)
    keysP = jet_unknowns(n, weights, proj_order)
    names = target_vars(n)
    for K in (keq, keq + 1):
        frm = target.graph_frame(K)
        bind = {v: Series.variable(frm, v) for v in frm.vars}
        bind["w1"] = target.graph(frm)
        r_on, rb_on = target.gradient_on(bind)
        holo = [bind[v] for v in names[:n]]
        anti = [bind[v] for v in names[n:]]
        keys = jet_unknowns(n, weights, K, by_weight=True)
        keys = keysP + [k for k in keys if k not in set(keysP)]
        comps: Dict[Hashable, Series] = {}
        monocache: Dict[Tuple[int, ...], Series] = {}
        monocache_b: Dict[Tuple[int, ...], Series] = {}
        for key in keys:
            j, exp = key[1], tuple(key[2:])
            mono = _monomial_of(holo, exp, frm, monocache)
            s = r_on[j] * mono
            if not s.is_zero():
                comps[key] = s
            monob = _monomial_of(anti, exp, frm, monocache_b)
            sb = rb_on[j] * monob
            if not sb.is_zero():
                comps[("jetbar",) + tuple(key[1:])] = sb
        residual = LinSeries(frm, comps)
        col = {k: i for i, k in enumerate(keys)}
        elim = Eliminator(2 * len(keys))
        proj_cols = list(range(2 * len(keysP)))
        for exp in sorted(residual.support(), key=lambda e: frm.wdeg(e)):
            for r in realify_row(residual.coefficient_row(exp), col):
                elim.add_row(r)
        kernel = elim.kernel_basis()
        dims[(K, K)] = projected_dim(kernel, proj_cols)
        if K == keq + 1:
            cols = set(proj_cols)
            vecs = [{c: v for c, v in vec.items() if c in cols}
                    for vec in kernel]
            final_kernel = rref([v for v in vecs if v], len(proj_cols))
    vals = set(dims.values())
    return AutomorphismResult(dims, dims[(keq + 1, keq + 1)],
                              len(vals) == 1, final_kernel, keysP)


def _monomial_of(gens: List[Series], exp: Tuple[int, ...], frm: Frame,
                 cache: Dict[Tuple[int, ...], Series]) -> Series:
    if exp in cache:
        return cache[exp]
    out = Series.const(frm, 1)
    for g, e in zip(gens, exp):
        for _ in range(e):
            out = out * g
    cache[exp] = out
    return out
