"""Holomorphic map germs and their CR-geometric analysis.

A :class:`MapGerm` is a tuple of truncated series in the source variables
(z, w) (or (z1, .., w1) for self-maps of the target side), vanishing at 0.
This module provides composition and inversion of germs, the
transversality and finite-nondegeneracy certificates, the pull-back of
(H, Hbar) onto the complexified source germ, and the isotropy actions of
the sphere and hyperquadric automorphism groups on embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from crrigid.scalars import Scalar, I as IMAG, scalar
from crrigid.series import Frame, Series, frame
from crrigid.geometry import Source, Target, target_vars
from crrigid.linalg import rank_of

# frames --------------------------------------------------------------

def map_frame(order: int) -> Frame:
    """Frame of source variables (z, w) with CR weights (1, 2)."""
    return frame("z", "w", order=order, weights=(1, 2))


def self_map_frame(n: int, order: int) -> Frame:
    """Frame of target-side variables (z1, .., z_{n-1}, w1)."""
    names = tuple(f"z{i+1}" for i in range(n - 1)) + ("w1",)
    return Frame(names, order, (1,) * (n - 1) + (2,))


def require_order(needed: int, *germs) -> None:
    """Raise unless every germ (map, source or target) is expanded to at
    least order ``needed``; a solver would read the missing terms as zero
    and answer for another germ."""
    have = min(g.frame.order for g in germs)
    if have < needed:
        raise ValueError(f"this solve needs the germs expanded to order "
                         f"{needed}; they are expanded to order {have}")


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

    @staticmethod
    def identity(frm: Frame) -> "MapGerm":
        return MapGerm([Series.variable(frm, v) for v in frm.vars])

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

    def compose(self, inner: "MapGerm") -> "MapGerm":
        """self o inner; the inner germ must land in this germ's variables."""
        if len(inner) != len(self.frame.vars):
            raise ValueError("composition dimension mismatch")
        bindings = dict(zip(self.frame.vars, inner.components))
        return MapGerm([c.substitute(bindings) for c in self.components])

    def inverse(self) -> "MapGerm":
        """Inverse germ of a self-map with invertible triangular linear part.

        For weighted frames the linear part must not mix a weight-2 slot
        into weight-1 slots (true for all hypersurface-preserving germs in
        normal coordinates).
        """
        frm = self.frame
        nv = len(frm.vars)
        if len(self) != nv:
            raise ValueError("only self-maps can be inverted")
        jac = self.jacobian0()
        inv = _invert_matrix(jac)
        ident = MapGerm.identity(frm)
        phi = MapGerm(_matvec_series(inv, ident.components))
        for _ in range(frm.order + 2):
            err = [c - i for c, i in zip(self.compose(phi).components,
                                         ident.components)]
            if all(e.is_zero() for e in err):
                return phi
            corr = _matvec_series(inv, err)
            phi = MapGerm([p - c for p, c in zip(phi.components, corr)])
        raise ArithmeticError("germ inversion did not converge")


def _invert_matrix(m: List[List[Scalar]]) -> List[List[Scalar]]:
    n = len(m)
    aug = [[m[i][j] for j in range(n)] + [Scalar(1 if k == i else 0) for k in range(n)]
           for i, _ in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if not aug[r][col].is_zero()), None)
        if piv is None:
            raise ValueError("singular linear part")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = aug[col][col].inverse()
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and not aug[r][col].is_zero():
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _matvec_series(m: List[List[Scalar]], vec: Sequence[Series]) -> List[Series]:
    out = []
    for row in m:
        acc = Series.zero(vec[0].frame)
        for c, s in zip(row, vec):
            if not c.is_zero():
                acc = acc + s.scale(c)
        out.append(acc)
    return out


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
    return dict(zip(target_vars(len(H)),
                    [c.substitute(holo) for c in H.components]
                    + [c.conj().substitute(anti) for c in H.components]))


def embedding_residual(H: MapGerm, source: Source, target: Target,
                       order: int) -> Series:
    """rho'(H, Hbar) restricted to the complexified source germ; zero iff
    H maps M into M' (to the working order)."""
    chart = source.chart(source.zct_frame(order))
    return target.rho.substitute(pull_back(H, chart))


@dataclass
class NondegeneracyCheck:
    """Finite nondegeneracy data of an embedding at 0."""
    span_dims: List[int]          # dim E_k(0) for k = 0, 1, 2, ...
    k0: Optional[int]             # first k with full span, None if not reached
    s0: Scalar                    # det(r, Lr, L^2 r)(0)
    two_nondegenerate: bool


def nondegeneracy(H: MapGerm, source: Source, target: Target,
                  order: int = 8, kmax: int = 4) -> NondegeneracyCheck:
    """Finite nondegeneracy of H at 0: the spans at 0 of the rows
    rows[k][j] = (d/dchi)^k r_j(H, Hbar), the pulled-back gradient on the
    (z, chi, w) parametrization of the complexified source germ."""
    from crrigid.linalg import det3, Eliminator
    # only r_j is needed here, so Target.gradient_on (which also forms
    # rbar_j) is not used
    bind = pull_back(H, source.chart(source.zcw_frame(order)))
    rows = [[g.substitute(bind) for g in target.gradient()]]
    for _ in range(kmax):
        rows.append([s.partial("chi") for s in rows[-1]])
    n = target.n
    elim = Eliminator(n)
    dims = []
    k0 = None
    for k, row in enumerate(rows):
        vec = {j: s.constant_term() for j, s in enumerate(row)
               if not s.constant_term().is_zero()}
        elim.add_row(vec)
        dims.append(elim.rank)
        if k0 is None and elim.rank == n:
            k0 = k
    s0 = Scalar(0)
    if n == 3:
        mat = [[rows[k][j].constant_term() for j in range(3)] for k in range(3)]
        s0 = det3(mat)
    return NondegeneracyCheck(dims, k0, s0, not s0.is_zero())


# -- isotropies -------------------------------------------------------

def source_isotropy(lam, r, u, c, order: int) -> MapGerm:
    """Automorphism of the sphere germ {Im w = |z|^2} fixing 0:

        sigma(z, w) = (lam u (z + c w), lam^2 w) / (1 - 2 i cbar z + (r - i |c|^2) w)

    with lam > 0 rational, r rational, |u| = 1, c in Q(i, sqrt 2).
    """
    lam, r, u, c = (x if isinstance(x, Scalar) else scalar(x) for x in (lam, r, u, c))
    if not (lam.is_real() and lam.sign() > 0 and r.is_real()):
        raise ValueError("lam must be positive real, r real")
    if not (u * u.conjugate() - Scalar(1)).is_zero():
        raise ValueError("u must be unimodular")
    frm = map_frame(order)
    z = Series.variable(frm, "z")
    w = Series.variable(frm, "w")
    den = Series.const(frm, 1) - z.scale(2 * IMAG * c.conjugate()) \
        + w.scale(r - IMAG * (c * c.conjugate()))
    dinv = den.invert_unit()
    return MapGerm([(z + w.scale(c)).scale(lam * u) * dinv,
                    w.scale(lam * lam) * dinv])


def target_isotropy(lam, r, U: Sequence[Sequence], c: Sequence, eps: int,
                    order: int) -> MapGerm:
    """Automorphism of the hyperquadric {Im w = |z1|^2 + eps |z2|^2} fixing 0:

        sigma'(z', w') = (lam U (z' + c w'), lam^2 w') / delta,
        delta = 1 - 2 i <cbar, z'>_eps + (r - i ||c||^2_eps) w',

    with U an eps-unitary 2x2 matrix (U* J U = J, J = diag(1, eps))."""
    lam = lam if isinstance(lam, Scalar) else scalar(lam)
    r = r if isinstance(r, Scalar) else scalar(r)
    U = [[x if isinstance(x, Scalar) else scalar(x) for x in row] for row in U]
    c = [x if isinstance(x, Scalar) else scalar(x) for x in c]
    if not (lam.is_real() and lam.sign() > 0 and r.is_real()):
        raise ValueError("lam must be positive real, r real")
    _check_eps_unitary(U, eps)
    frm = self_map_frame(3, order)
    z1 = Series.variable(frm, "z1")
    z2 = Series.variable(frm, "z2")
    w = Series.variable(frm, "w1")
    zc = [z1 + w.scale(c[0]), z2 + w.scale(c[1])]
    norm2 = c[0] * c[0].conjugate() + c[1] * c[1].conjugate() * eps
    pairing = z1.scale(c[0].conjugate()) + z2.scale(c[1].conjugate() * eps)
    den = Series.const(frm, 1) - pairing.scale(2 * IMAG) \
        + w.scale(r - IMAG * norm2)
    dinv = den.invert_unit()
    top = [zc[0].scale(U[0][0]) + zc[1].scale(U[0][1]),
           zc[0].scale(U[1][0]) + zc[1].scale(U[1][1])]
    return MapGerm([(top[0] * dinv).scale(lam), (top[1] * dinv).scale(lam),
                    (w * dinv).scale(lam * lam)])


def _check_eps_unitary(U, eps: int) -> None:
    J = [[Scalar(1), Scalar(0)], [Scalar(0), scalar(eps)]]
    for i in range(2):
        for j in range(2):
            acc = Scalar(0)
            for k in range(2):
                acc = acc + U[k][i].conjugate() * J[k][k] * U[k][j]
            if not (acc - J[i][j]).is_zero():
                raise ValueError("U is not eps-unitary")


def apply_isotropy(H: MapGerm, sigma: MapGerm, sigma_prime: MapGerm) -> MapGerm:
    """The action H -> sigma' o H o sigma^{-1} on embeddings."""
    return sigma_prime.compose(H.compose(sigma.inverse()))
