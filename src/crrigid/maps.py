"""Holomorphic map germs and their CR-geometric analysis.

A :class:`MapGerm` is a tuple of truncated series in the source variables
(z, w) (or (z1, .., w1) for self-maps of the target side), vanishing at 0.
This module provides the immersion, transversality and
finite-nondegeneracy certificates and the pull-back of (H, Hbar) onto the
complexified source germ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from crrigid.scalars import Scalar
from crrigid.series import Frame, Series, frame
from crrigid.geometry import Source, Target, target_vars, zct_frame, \
    zcw_frame
from crrigid.linalg import Eliminator, det3, integer_row, rank_of

# frames --------------------------------------------------------------

def map_frame(order: int) -> Frame:
    """Frame of source variables (z, w) with CR weights (1, 2)."""
    return frame("z", "w", order=order, weights=(1, 2))


def require_order(needed: int, *germs) -> None:
    """Raise unless every germ (map, source or target) is expanded to at
    least order ``needed``; a solver would read the missing terms as zero
    and answer for another germ."""
    have = min(g.frame.order for g in germs)
    if have < needed:
        raise ValueError(f"the germs must be expanded to order {needed}; "
                         f"they are expanded to order {have}")


class MapGerm:
    """A germ of a holomorphic map vanishing at the origin."""

    def __init__(self, components: Sequence[Series]):
        self.components = tuple(components)
        if not self.components:
            raise ValueError("empty map germ")
        self.frame = self.components[0].frame
        for c in self.components:
            if c.frame != self.frame:
                raise ValueError("map components in mismatched frames")
            if not c.constant_term().is_zero():
                raise ValueError("map germ must vanish at the origin")

    def __len__(self) -> int:
        return len(self.components)

    def __getitem__(self, i: int) -> Series:
        return self.components[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, MapGerm) and self.components == other.components

    def jacobian0(self) -> List[List[Scalar]]:
        """Differential at 0 (rows = components, columns = variables)."""
        nv = len(self.frame.vars)
        rows = []
        for comp in self.components:
            row = []
            for i in range(nv):
                exp = tuple(1 if j == i else 0 for j in range(nv))
                row.append(comp.coefficient(exp))
            rows.append(row)
        return rows

    def is_immersion(self) -> bool:
        jac = self.jacobian0()
        rows = [{j: v for j, v in enumerate(r) if not v.is_zero()} for r in jac]
        return rank_of(rows, len(self.frame.vars)) == len(self.frame.vars)


# -- analysis of embeddings M -> M' -----------------------------------

def transversality(H: MapGerm) -> bool:
    """CR transversality: (dH_w'/dz, dH_w'/dw)(0) != (0, 0) for the last
    component (the target normal direction)."""
    last = H.components[-1]
    return not (last.coefficient((1, 0)).is_zero()
                and last.coefficient((0, 1)).is_zero())


def pull_back(H: MapGerm, chart: Tuple[Dict[str, Series], Dict[str, Series]]
              ) -> Dict[str, Series]:
    """The target variables bound to (H, Hbar) on a chart of the
    complexified source germ, as returned by :meth:`Source.chart`:
    z_i, w1 to the components of H and bz_i, bw1 to their conjugates."""
    holo, anti = chart
    frm = holo["z"].frame
    # a (z, chi, w) chart binds z and w to themselves
    hol = [c.project(frm) if "w" in frm.vars else c.substitute(holo)
           for c in H.components]
    return dict(zip(target_vars(len(H)),
                    hol + [c.conj().substitute(anti) for c in H.components]))


def embedding_residual(H: MapGerm, source: Source, target: Target,
                       order: int) -> Series:
    """rho'(H, Hbar) restricted to the complexified source germ; zero iff
    H maps M into M' (to the working order)."""
    chart = source.chart(zct_frame(order))
    return target.rho.substitute(pull_back(H, chart))


@dataclass
class NondegeneracyCheck:
    """Finite nondegeneracy data of an embedding at 0."""
    span_dims: List[int]          # dim E_k(0) for k = 0, 1, 2, ...
    k0: Optional[int]             # first k with full span, None if not reached
    s0: Scalar                    # det(r, Lr, L^2 r)(0), nonzero iff H is
                                  # 2-nondegenerate


#: The chart order and the highest chi-derivative that
#: :func:`nondegeneracy` reads; it needs values at 0 only.
_ND_ORDER, _ND_KMAX = 8, 4


def nondegeneracy(H: MapGerm, source: Source, target: Target
                  ) -> NondegeneracyCheck:
    """Finite nondegeneracy of H at 0: the spans at 0 of the rows
    rows[k][j] = (d/dchi)^k r_j(H, Hbar), k <= 4, the pulled-back gradient
    on the (z, chi, w) parametrization of the complexified source germ."""
    # only r_j is needed here, so Target.gradient_on (which also forms
    # rbar_j) is not used
    bind = pull_back(H, source.chart(zcw_frame(_ND_ORDER)))
    rows = [[g.substitute(bind) for g in target.gradient()]]
    for _ in range(_ND_KMAX):
        rows.append([s.partial("chi") for s in rows[-1]])
    n = target.n
    elim = Eliminator(n)
    dims = []
    k0 = None
    for k, row in enumerate(rows):
        elim.add_row(integer_row({j: s.constant_term()
                                  for j, s in enumerate(row)}))
        dims.append(elim.rank)
        if k0 is None and elim.rank == n:
            k0 = k
    s0 = Scalar(0)
    if n == 3:
        mat = [[rows[k][j].constant_term() for j in range(3)] for k in range(3)]
        s0 = det3(mat)
    return NondegeneracyCheck(dims, k0, s0)
