"""CR geometry of real-analytic hypersurface germs.

Source germs M in C^2 are kept in normal coordinates {w = Q(z, chi, tau)}
with Q(z, 0, tau) = Q(0, chi, tau) = tau, where (chi, tau) are the
complexifications of (conj z, conj w).  Target germs M' in C^N' are kept
as complexified defining functions rho(Z, zeta) normalized so that the
linear part is (w - bw) / 2i.

Functions on the complexified germ of M can be parametrized either by
(z, chi, w) (eliminating tau = Qbar(chi, z, w)) or by (z, chi, tau)
(eliminating w = Q(z, chi, tau)).  In the first parametrization the CR
vector fields L, T, S act as the coordinate derivatives d/dchi, d/dw,
d/dz; in the second Lbar, Tbar, Sbar act as d/dz, d/dtau, d/dchi.  All
vector-field applications in this package use this device.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from crrigid.scalars import ZERO, Scalar, I as IMAG
from crrigid.series import Frame, Series, frame, solve_implicit

# canonical frames ----------------------------------------------------

def zct_frame(order: int, zcap: Optional[int] = None) -> Frame:
    """The (z, chi, tau) chart of the complexified source germ, where
    w = Q, with the CR weights (1, 1, 2); also the frame of Q itself."""
    return frame("z", "chi", "tau", order=order, weights=(1, 1, 2),
                 caps=None if zcap is None else {"z": zcap})


def zcw_frame(order: int) -> Frame:
    """The (z, chi, w) chart of the complexified source germ: tau = Qbar."""
    return frame("z", "chi", "w", order=order, weights=(1, 1, 2))


#: The conjugation z <-> chi, w <-> tau of the source variables.
SOURCE_SWAP = {"z": "chi", "chi": "z", "w": "tau", "tau": "w"}


def defining_frame(order: int) -> Frame:
    """Frame for a complexified defining function rho(z, w, chi, tau)."""
    return frame("z", "w", "chi", "tau", order=order, weights=(1, 2, 1, 2))


def target_vars(n: int) -> Tuple[str, ...]:
    zs = tuple(f"z{i+1}" for i in range(n - 1))
    return zs + ("w1",) + tuple("b" + v for v in zs) + ("bw1",)


def target_swap(n: int) -> Dict[str, str]:
    """The conjugation z_i <-> bz_i, w1 <-> bw1 of the target variables."""
    names = target_vars(n)
    return dict(zip(names, names[n:] + names[:n]))


def target_frame(n: int, order: int) -> Frame:
    zs = n - 1
    w = (1,) * zs + (2,) + (1,) * zs + (2,)
    return Frame(target_vars(n), order, w)


# source germs --------------------------------------------------------

class Source:
    """A hypersurface germ M in C^2 in normal coordinates w = Q(z, chi, tau)."""

    def __init__(self, Q: Series):
        self.Q = Q
        self.frame = Q.frame
        self.verify_normal_form()

    @property
    def order(self) -> int:
        return self.frame.order

    # -- construction -------------------------------------------------

    @staticmethod
    def hyperquadric(order: int) -> "Source":
        """The sphere germ {Im w = |z|^2}, i.e. Q = tau + 2 i z chi."""
        frm = zct_frame(order)
        Q = Series.variable(frm, "tau") \
            + Series.monomial(frm, (1, 1, 0), IMAG * 2)
        return Source(Q)

    # -- invariant checks ---------------------------------------------

    def verify_normal_form(self) -> None:
        defect = normal_form_defect(self.Q)
        if defect:
            raise ValueError(f"normal form violated: {defect}")
        # reality: Q(z, chi, Qbar(chi, z, w)) = w, checked in the
        # (z, chi, w) chart.
        holo, anti = self.chart(zcw_frame(self.order))
        q = self.Q.substitute({"z": holo["z"], "chi": anti["z"],
                               "tau": anti["w"]})
        if q != holo["w"]:
            raise ValueError("normal form violated: reality identity fails")

    # -- parametrizations of the complexified germ --------------------

    def chart(self, frm: Frame) -> Tuple[Dict[str, Series], Dict[str, Series]]:
        """(z, w) and their conjugates as series on a chart of the
        complexified germ: ({"z": z, "w": w}, {"z": chi, "w": tau}).

        The chart is read from the frame's variables: (z, chi, tau) with
        w = Q (a :func:`zct_frame`), or (z, chi, w) with tau = Qbar (a
        :func:`zcw_frame`).  A function f(z, w) pulls back as
        f.substitute(holo), its conjugate as f.conj().substitute(anti).
        """
        z, chi = Series.variable(frm, "z"), Series.variable(frm, "chi")
        if "tau" in frm.vars:
            w, tau = self.Q.project(frm), Series.variable(frm, "tau")
        else:
            w = Series.variable(frm, "w")
            tau = self.Q.conj().project(frm, SOURCE_SWAP)
        return {"z": z, "w": w}, {"z": chi, "w": tau}


# normalization -------------------------------------------------------

def normal_form_defect(Q: Series) -> Optional[str]:
    """Which of Q(z, 0, tau) = tau and Q(0, chi, tau) = tau fails, in that
    order; None when both hold, that is when every term of Q - tau has
    positive z and chi exponents."""
    rest = (Q - Series.variable(Q.frame, "tau")).coeffs
    for var, side in (("chi", "Q(z, 0, tau)"), ("z", "Q(0, chi, tau)")):
        i = Q.frame.index(var)
        if not all(e[i] for e in rest):
            return f"{side} != tau"
    return None


def check_defining_reality(rho: Series) -> None:
    if rho.conj(rename=SOURCE_SWAP) != rho:
        raise ValueError("defining function is not real")


def normalize_defining(rho: Series) -> Tuple[Series, Optional[Series]]:
    """Straighten a complexified defining function rho(z, w, chi, tau)
    into normal coordinates: the graph Q(z, chi, tau) of the germ, in the
    frame (z, chi, tau), and the change g.

    rho must vanish at 0, be real (rho(z, w, chi, tau) =
    conj-rho(chi, tau, z, w)) and have linear part (w - tau) / 2i.  Solves
    rho = 0 for w, then constructs the unique change of coordinates
    (z, w) -> (z, w + i g(z, w)) with g = O(2), g(0, w) real, that makes
    the graph satisfy Q(z, 0, tau) = Q(0, chi, tau) = tau: the point
    (z, w) in normal coordinates is (z, w + i g(z, w)) in the given ones.
    g is a series in (z, w) with weights (1, 2), None when the graph is
    already normal.
    """
    if not rho.constant_term().is_zero():
        raise ValueError("defining function must vanish at 0")
    check_defining_reality(rho)
    order = rho.frame.order
    sfrm = zct_frame(order)
    qtilde = solve_implicit(rho, "w", ("z", "chi", "tau"), sfrm)

    if normal_form_defect(qtilde) is None:
        return qtilde, None

    # step 1: G(w) = g(0, w) from  w + i G - Qtilde(0, 0, w - i G) = 0
    gfrm = frame("w", "y", order=order, weights=(2, 2))
    wv = Series.variable(gfrm, "w")
    yv = Series.variable(gfrm, "y")
    qt00 = qtilde.substitute({
        "z": Series.zero(gfrm), "chi": Series.zero(gfrm),
        "tau": wv - yv.scale(IMAG),
    })
    FG = wv + yv.scale(IMAG) - qt00
    wfrm = frame("w", order=order, weights=(2,))
    G = solve_implicit(FG, "y", ("w",), wfrm)
    if G.conj() != G:
        raise ArithmeticError("normalization produced a non-real gauge G")

    # step 2: g(z, w) = -i (Qtilde(z, 0, w - i G(w)) - w)
    zwfrm = frame("z", "w", order=order, weights=(1, 2))
    zz, ww = (Series.variable(zwfrm, v) for v in zwfrm.vars)
    Gw = G.project(zwfrm)
    qt_z0 = qtilde.substitute({
        "z": zz, "chi": Series.zero(zwfrm), "tau": ww - Gw.scale(IMAG),
    })
    g = (qt_z0 - ww).scale(-IMAG)

    # step 3: solve  y + i g(z, y) = Qtilde(z, chi, tau - i gbar(chi, tau))
    qfrm = frame("z", "chi", "tau", "y", order=order, weights=(1, 1, 2, 2))
    zq, cq, tq, yq = (Series.variable(qfrm, v) for v in qfrm.vars)
    gbar_ct = g.conj().project(qfrm, SOURCE_SWAP)
    g_zy = g.project(qfrm, {"w": "y"})
    FQ = yq + g_zy.scale(IMAG) - qtilde.substitute({
        "z": zq, "chi": cq, "tau": tq - gbar_ct.scale(IMAG),
    })
    return solve_implicit(FQ, "y", ("z", "chi", "tau"), sfrm), g


# target germs --------------------------------------------------------

class Target:
    """A hypersurface germ M' in C^n given by a complexified defining
    function rho(Z, zeta) with linear part (w1 - bw1) / 2i."""

    def __init__(self, rho: Series, n: int):
        self.rho = rho
        self.n = n
        self.frame = rho.frame
        self.swap = target_swap(n)
        if tuple(self.frame.vars) != target_vars(n):
            raise ValueError("target frame variables must be " + str(target_vars(n)))
        self.verify()

    @staticmethod
    def hyperquadric(eps: int, order: int, n: int = 3) -> "Target":
        """{Im w = sum_j eps_j |z_j|^2} with eps_1 = 1, eps_2 = eps."""
        frm = target_frame(n, order)
        rho = (Series.variable(frm, "w1") - Series.variable(frm, "bw1")) \
            .scale(Scalar(0, 0, -1, 0) / 2)
        signs = [1] + [eps] * (n - 2)
        swap = target_swap(n)
        for zj, sign in zip(target_vars(n), signs):
            rho = rho - (Series.variable(frm, zj)
                         * Series.variable(frm, swap[zj])).scale(sign)
        return Target(rho, n)

    def verify(self) -> None:
        if not self.rho.constant_term().is_zero():
            raise ValueError("target defining function must vanish at 0")
        if self.rho.conj(rename=self.swap) != self.rho:
            raise ValueError("target defining function is not real")
        ihalf = Scalar(0, 0, 1, 0) / 2
        linear = {self.frame.vars[e.index(1)]: c
                  for e, c in self.rho.coeffs.items() if sum(e) == 1}
        if linear != {"w1": -ihalf, "bw1": ihalf}:
            raise ValueError("target linear part must be (w1 - bw1)/2i")

    # -- derived data --------------------------------------------------

    def gradient(self) -> List[Series]:
        """r_j = d rho / d Z_j for Z = (z1, .., z_{n-1}, w1)."""
        return [self.rho.partial(v) for v in target_vars(self.n)[:self.n]]

    def gradient_on(self, bind: Dict[str, Series]
                    ) -> Tuple[List[Series], List[Series]]:
        """r_j and rbar_j (r_j conjugated, its variables swapped), with
        every target variable bound by ``bind``."""
        grad = self.gradient()
        return ([g.substitute(bind) for g in grad],
                [g.conj(rename=self.swap).substitute(bind) for g in grad])

    def graph(self, frm: Frame) -> Series:
        """w1 = W(z', zeta') solving rho = 0, over a frame of
        :meth:`graph_frame`: the target variables except w1."""
        return solve_implicit(self.rho, "w1", frm.vars, frm)

    def graph_chart(self, frm: Frame) -> Dict[str, Series]:
        """Every target variable as a series on the graph chart
        {w1 = W} of the complexified germ (a frame of
        :meth:`graph_frame`): w1 is bound to W, the others to themselves.
        A field V(Z) pulls back there as V.substitute over the bindings
        of z_i, w1, its conjugate as V.conj().substitute over those of
        bz_i, bw1."""
        bind = {v: Series.variable(frm, v) for v in frm.vars}
        bind["w1"] = self.graph(frm)
        return bind

    def graph_frame(self, order: int) -> Frame:
        xvars = tuple(v for v in self.frame.vars if v != "w1")
        weights = tuple(w for v, w in zip(self.frame.vars, self.frame.weights)
                        if v != "w1")
        return Frame(xvars, order, weights)

    def levi_matrix(self) -> List[List[Scalar]]:
        """Hermitian matrix h with rho = (w1-bw1)/2i - sum h_jk z_j bz_k + ..."""
        m = self.n - 1
        nvars = len(self.frame.vars)
        out = []
        for j in range(m):
            row = []
            for k in range(m):
                exp = [0] * nvars
                exp[self.frame.index(f"z{j+1}")] += 1
                exp[self.frame.index(self.swap[f"z{k+1}"])] += 1
                row.append(-self.rho.coefficient(tuple(exp)))
            out.append(row)
        return out

    def levi_signature(self) -> Tuple[int, int]:
        """(positive, negative) eigenvalue counts of the Levi matrix."""
        h = self.levi_matrix()
        if len(h) not in (1, 2):
            raise ValueError("levi_signature supports targets in C^2 and C^3")
        if len(h) == 2:
            det = h[0][0] * h[1][1] - h[0][1] * h[1][0]
            if det.sign() < 0:
                return (1, 1)
            if det.sign() > 0:
                return (2, 0) if h[0][0].sign() > 0 else (0, 2)
        # rank <= 1, so the trace is the one eigenvalue that may be
        # nonzero (h is Hermitian: det = 0 with a zero diagonal forces h = 0)
        s = sum((h[j][j] for j in range(len(h))), ZERO).sign()
        return (1, 0) if s > 0 else ((0, 1) if s < 0 else (0, 0))

    def levi_nondegenerate(self) -> bool:
        p, q = self.levi_signature()
        return p + q == self.n - 1
