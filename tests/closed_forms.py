"""Closed forms the tests check the solvers against.

The isotropy groups of the sphere and of the hyperquadrics (criterion 9),
the source reparametrization fields of the sphere and their pushforwards
along an embedding (criterion 6), the tangency residual of an explicit
field, the cubic example's deformation field, and the kernel of a row
set.  The library computes none of these; the tests import them from
here as they import from ``test_series``.
"""

from fractions import Fraction
from typing import List, Sequence

from crrigid.geometry import Source, Target
from crrigid.linalg import Eliminator, Row
from crrigid.maps import MapGerm, map_frame, pull_back
from crrigid.scalars import Scalar, I as IMAG, scalar
from crrigid.series import Frame, Series


# -- isotropies -------------------------------------------------------

def self_map_frame(n: int, order: int) -> Frame:
    """Frame of target-side variables (z1, .., z_{n-1}, w1)."""
    names = tuple(f"z{i+1}" for i in range(n - 1)) + ("w1",)
    return Frame(names, order, (1,) * (n - 1) + (2,))


def compose(outer: MapGerm, inner: MapGerm) -> MapGerm:
    """outer o inner; the inner germ must land in the outer germ's
    variables."""
    if len(inner) != len(outer.frame.vars):
        raise ValueError("composition dimension mismatch")
    bindings = dict(zip(outer.frame.vars, inner.components))
    return MapGerm([c.substitute(bindings) for c in outer.components])


def source_isotropy(lam, r, u, c, order: int) -> MapGerm:
    """Automorphism of the sphere germ {Im w = |z|^2} fixing 0:

        sigma(z, w) = (lam u (z + c w), lam^2 w) / (1 - 2 i cbar z + (r - i |c|^2) w)

    with lam > 0 rational, r rational, |u| = 1, c in Q(i, sqrt 2).  The
    rotation (1, 0, u, 0) has the inverse (1, 0, conj u, 0).
    """
    lam, r, u, c = (x if isinstance(x, Scalar) else scalar(x) for x in (lam, r, u, c))
    if not (lam == lam.conjugate() and lam.sign() > 0 and r == r.conjugate()):
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
    if not (lam == lam.conjugate() and lam.sign() > 0 and r == r.conjugate()):
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


def apply_isotropy(H: MapGerm, sigma_inv: MapGerm,
                   sigma_prime: MapGerm) -> MapGerm:
    """The action H -> sigma' o H o sigma^{-1} on embeddings, given
    sigma^{-1}."""
    return compose(sigma_prime, compose(H, sigma_inv))


# -- explicit deformation fields --------------------------------------

def source_hol0_basis(order: int = 8) -> List[List[Series]]:
    """Real basis (5 fields) of the infinitesimal automorphisms fixing 0
    of the source hyperquadric Im w = |z|^2, as (z, w) component pairs."""
    f = map_frame(order)
    z, w = Series.variable(f, "z"), Series.variable(f, "w")
    zero = Series.zero(f)
    ih = Scalar(0, 0, Fraction(1, 2))
    basis = [
        [z, w.scale(Scalar(2))],          # dilation
        [z.scale(IMAG), zero],            # rotation
        [z * w, w * w],                   # parabolic s
    ]
    for b in (Scalar(1), IMAG):           # parabolic b
        basis.append([w.scale(b.conjugate() * ih) + (z * z).scale(b),
                      (z * w).scale(b)])
    return basis


def pushforward(H: MapGerm, X: Sequence[Series]) -> List[Series]:
    """The field dH(X) along H, for X a field in the source variables."""
    mf = H.frame
    Xs = [x.rebase(mf) for x in X]
    out = []
    for comp in H.components:
        s = Series.zero(mf)
        for var, x in zip(mf.vars, Xs):
            s = s + comp.partial(var) * x
        out.append(s)
    return out


def field_residual(V: Sequence[Series], H: MapGerm, source: Source,
                   target: Target, order: int) -> Series:
    """Re sum_j rho_{Z_j}(H, conj H) V_j on the complexified source germ;
    zero (to the working order) iff V is an infinitesimal deformation."""
    frm = source.zct_frame(order)
    holo, anti = chart = source.chart(frm)
    r_on, rb_on = target.gradient_on(pull_back(H, chart))
    res = Series.zero(frm)
    for j in range(target.n):
        Vc = V[j].substitute(holo)
        Vb = V[j].conj().substitute(anti)
        res = res + r_on[j] * Vc + rb_on[j] * Vb
    return res


def cubic_deformation(frm: Frame) -> List[Series]:
    """(i z, i z^2 / 3, 0), which spans the deformations of example-6-3."""
    z = Series.variable(frm, "z")
    return [z.scale(IMAG), (z * z).scale(IMAG * Fraction(1, 3)),
            Series.zero(frm)]


# -- linear algebra ---------------------------------------------------

def kernel_of(rows: Sequence[Row], ncols: int) -> List[Row]:
    elim = Eliminator(ncols)
    for r in rows:
        elim.add_row(r)
    return elim.kernel_basis()
