"""Closed forms the tests check the solvers against.

The isotropy groups of the sphere and of the hyperquadrics (criterion 9),
the infinitesimal automorphisms of the hyperquadrics (criterion 7), the
source reparametrization fields of the sphere and their pushforwards
along an embedding (criterion 6), the tangency residual of an explicit
field, the cubic example's deformation field, the graph embeddings of
criterion 10 as problem text, the real parts of a complex-linear row, the
kernel and the span test of a row set, and the Scalar Gauss-Jordan
elimination that ``crrigid.linalg`` is checked against.  The library
computes none of these; the tests import them from here as they import
from ``test_series``.
"""

from fractions import Fraction
from typing import Dict, List, Sequence

from crrigid.geometry import Source, Target, target_vars, zct_frame
from crrigid.jets import bar_key
from crrigid.linalg import Eliminator, Row, integer_row
from crrigid.maps import MapGerm, map_frame, pull_back
from crrigid.scalars import Scalar, I as IMAG, scalar
from crrigid.series import Frame, Series, frame


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


# -- the hyperquadrics' automorphism algebra --------------------------

def hyperquadric_hol0_basis(eps: int) -> List[List[Series]]:
    """Real basis (10 fields) of the infinitesimal automorphisms fixing 0
    of the hyperquadric Im w' = |z1'|^2 + eps |z2'|^2.

    Fields are returned as component triples over (z1, z2, w1), in a
    frame of order 8; all are polynomial of degree <= 2, and their
    tangency is checked to order 8.  Parameters: a real dilation t, real
    rotations h11, h22, a complex rotation h12, complex parabolic
    directions b1, b2 and a real parabolic direction s.
    """
    f = frame("z1", "z2", "w1", order=8, weights=(1, 1, 2))
    z1, z2, w = (Series.variable(f, v) for v in ("z1", "z2", "w1"))
    zero = Series.zero(f)
    e = Scalar(eps)
    basis = [
        # dilation t and rotations h11, h22
        [z1, z2, w.scale(Scalar(2))],
        [z1.scale(IMAG), zero, zero],
        [zero, z2.scale(IMAG), zero],
        # complex rotation h12 = 1 and h12 = i
        [z2, z1.scale(-e), zero],
        [z2.scale(IMAG), z1.scale(e * IMAG), zero],
        # parabolic s
        [z1 * w, z2 * w, w * w],
    ]
    # parabolic b1 in {1, i} and b2 in {1, i}
    ih = Scalar(0, 0, Fraction(1, 2))
    for j, bval in ((0, Scalar(1)), (0, IMAG), (1, Scalar(1)), (1, IMAG)):
        lead = [zero, zero]
        lead[j] = w.scale(bval.conjugate() * ih)
        mix = z1.scale(bval) if j == 0 else z2.scale(bval * e)
        basis.append([lead[0] + z1 * mix, lead[1] + z2 * mix, w * mix])
    verify_tangent(Target.hyperquadric(eps, 8), basis)
    return basis


def verify_tangent(target: Target, fields: Sequence[Sequence[Series]]) -> None:
    """Check Re sum_j rho_{Z_j} V_j = 0 on the target germ, exactly."""
    bind = target.graph_chart(target.graph_frame(fields[0][0].frame.order))
    r_on, rb_on = target.gradient_on(bind)
    names = target_vars(target.n)[:target.n]
    holo = {v: bind[v] for v in names}
    anti = {v: bind[target.swap[v]] for v in names}
    for V in fields:
        res = Series.zero(r_on[0].frame)
        for j in range(target.n):
            res = res + r_on[j] * V[j].substitute(holo) \
                + rb_on[j] * V[j].conj().substitute(anti)
        if not res.is_zero():
            raise ArithmeticError("field is not tangent to the target germ")


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
    Xs = [x.project(mf) for x in X]
    assert all(len(p.coeffs) == len(x.coeffs) for p, x in zip(Xs, X))
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
    frm = zct_frame(order)
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


# -- problems as text -------------------------------------------------

def graph_embedding_text(F: str) -> str:
    """The problem of the embedding (z, F, w) of {Im w = |z|^2 + |F|^2}
    into the positive hyperquadric in C^3, for F an expression in z, w."""
    return (f"vars z w; source: imag(w) = z*conj(z) + ({F})*conj({F}); "
            f"target: hyperquadric +1; map: (z, {F}, w);")


# -- linear algebra ---------------------------------------------------

def realified(row: Dict, col: Dict) -> List[Row]:
    """The real and imaginary parts of a complex-linear row in (Lambda,
    conj Lambda), in Scalar arithmetic, over the columns (Re, Im) of the
    tags that ``col`` numbers: with Lambda_k = x_k + i y_k, v Lambda_k
    = v x_k + i v y_k and v conj Lambda_k = v x_k - i v y_k."""
    parts: List[Row] = [{}, {}]
    for key, v in row.items():
        k = col[bar_key(key)] if key[0] == "jetbar" else col[key]
        iv = v * IMAG if key[0] == "jet" else -v * IMAG
        for c, coef in ((2 * k, v), (2 * k + 1, iv)):
            for part, x in zip(parts, (coef.real_part(), coef.imag_part())):
                part[c] = part.get(c, Scalar(0)) + x
    return [{c: x for c, x in part.items() if x} for part in parts]


def eliminated(rows: Sequence[Row], ncols: int) -> Eliminator:
    elim = Eliminator(ncols)
    for r in rows:
        elim.add_row(integer_row(r))
    return elim


def kernel_of(rows: Sequence[Row], ncols: int) -> List[Row]:
    return eliminated(rows, ncols).kernel_basis()


def in_span(vec: Row, basis: Sequence[Row], ncols: int) -> bool:
    return not eliminated(basis, ncols).add_row(integer_row(vec))


class ReferenceEliminator:
    """Gauss-Jordan elimination on sparse Scalar rows, one field operation
    at a time: the reference :class:`crrigid.linalg.Eliminator` must
    agree with."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivot_rows: Dict[int, Row] = {}  # pivot column -> normalized row

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def reduce(self, row: Row) -> Row:
        """Fully reduce a row against the current pivots (row not stored)."""
        row = {c: v for c, v in row.items() if not v.is_zero()}
        while row:
            hits = [c for c in row if c in self.pivot_rows]
            if not hits:
                break
            lead = min(hits)
            piv = self.pivot_rows[lead]
            factor = row[lead]
            for c, v in piv.items():
                cur = row.get(c)
                s = (cur - factor * v) if cur is not None else -factor * v
                if s.is_zero():
                    row.pop(c, None)
                else:
                    row[c] = s
        return row

    def add_row(self, row: Row) -> bool:
        """Insert a row; returns True if it increased the rank."""
        row = self.reduce(row)
        if not row:
            return False
        lead = min(row)
        inv = row[lead].inverse()
        norm = {c: v * inv for c, v in row.items()}
        # back-eliminate the new pivot column from existing rows
        for p, prow in self.pivot_rows.items():
            f = prow.get(lead)
            if f is None:
                continue
            for c, v in norm.items():
                cur = prow.get(c)
                s = (cur - f * v) if cur is not None else -f * v
                if s.is_zero():
                    prow.pop(c, None)
                else:
                    prow[c] = s
        self.pivot_rows[lead] = norm
        return True

    def rref(self) -> List[Row]:
        return [self.pivot_rows[p] for p in sorted(self.pivot_rows)]

    def kernel_basis(self) -> List[Row]:
        """Canonical kernel basis (one vector per free column, unit there)."""
        pivots = self.pivot_rows
        free = [c for c in range(self.ncols) if c not in pivots]
        basis = []
        for f in free:
            vec: Row = {f: Scalar(1)}
            for p, prow in pivots.items():
                v = prow.get(f)
                if v is not None and not v.is_zero():
                    vec[p] = -v
            basis.append(vec)
        return basis
