"""Truncated multivariate power series: the one series algebra, over
Q(i, sqrt(2)) or over linear forms.

A :class:`Series` is a sparse hash-map from exponent tuples to nonzero
coefficients, truncated to a fixed total (weighted) degree recorded in its
:class:`Frame`.  Frames may additionally impose per-variable degree caps.
The coefficients are :class:`~crrigid.scalars.Scalar` elements, or, in a
:class:`~crrigid.linseries.LinSeries`, :class:`~crrigid.jets.LinRow`
linear forms; the methods use only what both rings provide, so each
serves both.  A sum takes two series of one type, a product a plain
Series on the right and gives the type of its left factor (linear forms
stand on the left); both need equal frames, and :meth:`Series.scale` is
the one scalar multiple.  Any other operand is a TypeError.  A
substitution adds up, term by term, the truncated products that
:meth:`~crrigid.bindings.Bindings.image` gives, which owns the truncation
of substituted monomials and keeps them for the next series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add, mul
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from crrigid.scalars import ZERO, Scalar, scalar

Exponent = Tuple[int, ...]


@dataclass(frozen=True)
class Frame:
    """Variable frame: names, truncation order, weights, and the
    (index, cap) pairs of the capped variables, sorted by index."""

    vars: Tuple[str, ...]
    order: int
    weights: Tuple[int, ...]
    caps: Tuple[Tuple[int, int], ...] = ()

    def __post_init__(self):
        if len(set(self.vars)) != len(self.vars):
            raise ValueError("duplicate variable names")

    def index(self, var: str) -> int:
        return self.vars.index(var)

    def wdeg(self, exp: Exponent) -> int:
        return sum(map(mul, exp, self.weights))

    def admits(self, exp: Exponent) -> bool:
        for i, cap in self.caps:
            if exp[i] > cap:
                return False
        return self.wdeg(exp) <= self.order

    def zero_exp(self) -> Exponent:
        return (0,) * len(self.vars)


def frame(*vars: str, order: int, weights: Optional[Iterable[int]] = None,
          caps: Optional[Mapping[str, int]] = None) -> Frame:
    """Convenience constructor for :class:`Frame`: weights default to 1,
    ``caps`` maps variables of the frame to their caps."""
    caps = caps or {}
    absent = sorted(set(caps) - set(vars))
    if absent:
        raise ValueError(f"caps on variables not in the frame: {absent}")
    w = tuple(weights) if weights is not None else (1,) * len(vars)
    return Frame(tuple(vars), order, w,
                 tuple((i, caps[v]) for i, v in enumerate(vars) if v in caps))


class Series:
    """Sparse truncated power series with exact coefficients."""

    __slots__ = ("frame", "coeffs")

    def __init__(self, frm: Frame, coeffs: Optional[Dict[Exponent, Scalar]] = None):
        self.frame = frm
        self.coeffs = coeffs if coeffs is not None else {}

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(frm: Frame) -> "Series":
        return Series(frm, {})

    @staticmethod
    def const(frm: Frame, value) -> "Series":
        v = scalar(value)
        if v.is_zero():
            return Series(frm, {})
        return Series(frm, {frm.zero_exp(): v})

    @staticmethod
    def variable(frm: Frame, name: str) -> "Series":
        i = frm.index(name)
        exp = tuple(1 if j == i else 0 for j in range(len(frm.vars)))
        if not frm.admits(exp):
            raise ValueError(f"variable {name} not admitted by frame")
        return Series(frm, {exp: Scalar(1)})

    @staticmethod
    def monomial(frm: Frame, exp: Exponent, coeff) -> "Series":
        v = scalar(coeff)
        if v.is_zero() or not frm.admits(exp):
            return Series(frm, {})
        return Series(frm, {tuple(exp): v})

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    #: the coefficient at an absent exponent, made on each call
    zero_coefficient = staticmethod(lambda: ZERO)

    def coefficient(self, exp: Exponent) -> Scalar:
        c = self.coeffs.get(tuple(exp))
        return self.zero_coefficient() if c is None else c

    def constant_term(self) -> Scalar:
        return self.coefficient(self.frame.zero_exp())

    def vanishing_order(self) -> int:
        """Minimal weighted degree of a nonzero term (order+1 if zero)."""
        if not self.coeffs:
            return self.frame.order + 1
        return min(self.frame.wdeg(e) for e in self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.frame == other.frame and self.coeffs == other.coeffs

    # -- linear structure ---------------------------------------------

    def _assert_compatible(self, other: "Series") -> None:
        if self.frame != other.frame:
            raise ValueError("incompatible series frames")

    def __add__(self, other: "Series") -> "Series":
        if type(other) is not type(self):
            raise TypeError("a sum takes two series of one type")
        self._assert_compatible(other)
        out = dict(self.coeffs)
        for exp, c in other.coeffs.items():
            prev = out.get(exp)
            s = c if prev is None else prev + c
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        return type(self)(self.frame, out)

    def __neg__(self) -> "Series":
        return type(self)(self.frame, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "Series") -> "Series":
        return self + (-other)

    def scale(self, value) -> "Series":
        v = scalar(value)
        out = {e: c * v for e, c in self.coeffs.items()} if v else {}
        return type(self)(self.frame, out)

    # -- multiplication -----------------------------------------------

    def __mul__(self, other: "Series") -> "Series":
        if type(other) is not Series:
            raise TypeError("a product takes a plain Series on the right")
        self._assert_compatible(other)
        frm, wdeg = self.frame, self.frame.wdeg
        a = sorted(((wdeg(e), e, c) for e, c in self.coeffs.items()))
        b = sorted(((wdeg(e), e, c) for e, c in other.coeffs.items()))
        # the outer loop: the shorter operand, or the LinSeries (row * scalar)
        if type(self) is Series and len(a) > len(b):
            a, b = b, a
        order = frm.order
        capped = frm.caps
        out = {}
        for wa, ea, ca in a:
            limit = order - wa
            for wb, eb, cb in b:
                if wb > limit:
                    break
                exp = tuple(map(add, ea, eb))
                # the break bounds the weighted degree; only caps remain
                if capped and any(exp[i] > c for i, c in capped):
                    continue
                # a product of nonzero field elements is nonzero; ``out``
                # holds only products formed here, so ``+=`` may be in place
                prod = ca * cb
                prev = out.get(exp)
                if prev is None:
                    out[exp] = prod
                else:
                    prev += prod
                    if prev:
                        out[exp] = prev
                    else:
                        del out[exp]
        return type(self)(frm, out)

    def __pow__(self, n: int) -> "Series":
        if n < 0:
            raise ValueError("negative power; use invert_unit")
        if self.constant_term():    # a unit: by squaring
            out = Series.const(self.frame, 1)
            for bit in bin(n)[2:]:
                out = out * out * self if bit == "1" else out * out
            return out
        if n * self.vanishing_order() > self.frame.order:
            return Series.zero(self.frame)
        return power_table([self], n)[0][n]

    # -- calculus -----------------------------------------------------

    def partial(self, var: str) -> "Series":
        i = self.frame.index(var)
        out = {}
        for exp, c in self.coeffs.items():
            k = exp[i]
            if k:
                out[exp[:i] + (k - 1,) + exp[i + 1:]] = c * k
        return type(self)(self.frame, out)

    def conj(self, rename: Optional[Mapping[str, str]] = None) -> "Series":
        """Conjugate coefficients; optionally rename variables as
        :meth:`project` does, by a swap such as z <-> chi, w <-> tau.  The
        rename must map the frame's variables, weights and caps onto
        themselves, so that no term is dropped; else ValueError."""
        frm = self.frame
        out = type(self)(frm, {e: c.conjugate()
                               for e, c in self.coeffs.items()})
        if not rename:
            return out
        names = [rename.get(v, v) for v in frm.vars]
        caps = dict(frm.caps)
        if sorted(names) != sorted(frm.vars) or any(
                (frm.weights[i], caps.get(i)) != (frm.weights[j], caps.get(j))
                for i, j in enumerate(map(frm.index, names))):
            raise ValueError(f"the rename {dict(rename)} does not map the "
                             "frame's variables, weights and caps onto "
                             "themselves")
        return out.project(frm, rename)

    # -- substitution -------------------------------------------------

    def substitute(self, bindings: Mapping[str, "Series"]) -> "Series":
        """Substitute an ordinary series for every variable, through a
        :class:`~crrigid.bindings.Bindings` (a plain mapping makes one for
        this call alone), which checks the bindings."""
        from crrigid.bindings import Bindings    # which builds on Series
        if not isinstance(bindings, Bindings):
            bindings = Bindings(bindings)
        target = bindings.target(self.frame)
        image = bindings.image(self.frame.vars)
        out = {}
        for exp, c in self.coeffs.items():
            for e, m in image(None, exp):
                if e in out:    # a product formed here, as in __mul__
                    out[e] += c * m
                else:
                    out[e] = c * m
        return type(self)(target, {e: c for e, c in out.items() if c})

    def project(self, target: Frame,
                rename: Optional[Mapping[str, str]] = None) -> "Series":
        """Reinterpret in another frame, dropping the terms the target
        cannot hold: those in a variable it lacks (restricting to
        {var = 0}) and those its truncation does not admit; ``rename``
        maps variables of this frame to the target's names."""
        names = [(rename or {}).get(v, v) for v in self.frame.vars]
        pos = [target.vars.index(v) if v in target.vars else None
               for v in names]
        n = len(target.vars)
        out = {}
        for exp, c in self.coeffs.items():
            nexp = [0] * n
            for p, e in zip(pos, exp):
                if e:
                    if p is None:
                        break
                    nexp[p] = e
            else:
                t = tuple(nexp)
                if target.admits(t):
                    out[t] = c
        return type(self)(target, out)

    # -- units --------------------------------------------------------

    def invert_unit(self) -> "Series":
        c0 = self.constant_term()
        if c0.is_zero():
            raise ValueError("invert_unit needs a nonzero constant term")
        g = Series.const(self.frame, c0.inverse())
        two = Series.const(self.frame, 2)
        steps = max(1, math.ceil(math.log2(self.frame.order + 2)) + 1)
        for _ in range(steps):
            g = g * (two - self * g)
        return g


def power_table(gens: Sequence[Series], top: int) -> List[List[Series]]:
    """Powers g^0, .., g^top of each generator g."""
    table = []
    for g in gens:
        powers = [Series.const(g.frame, 1)]
        for _ in range(top):
            powers.append(powers[-1] * g)
        table.append(powers)
    return table


def solve_implicit(F: Series, yvar: str, xvars: Tuple[str, ...],
                   target: Frame) -> Series:
    """Solve F(x, y) = 0 for y = g(x), g(0) = 0, by Newton iteration.

    ``F`` lives in a frame over ``xvars + (yvar,)``; ``target`` is the frame
    of the result over ``xvars``.  Requires F(0) = 0 and dF/dy(0) invertible.
    """
    if not F.constant_term().is_zero():
        raise ValueError("solve_implicit requires F(0) = 0")
    Fy = F.partial(yvar)
    if Fy.constant_term().is_zero():
        raise ValueError("solve_implicit requires dF/dy(0) != 0")
    from crrigid.bindings import Bindings
    g = Series.zero(target)
    xs = {v: Series.variable(target, v) for v in xvars}
    steps = max(1, math.ceil(math.log2(target.order + 2)) + 2)
    # evaluate each iterate once, F and dF/dy through one Bindings: at
    # most ``steps`` Newton updates
    for step in range(steps + 1):
        bind = Bindings({**xs, yvar: g})
        val = F.substitute(bind)
        if val.is_zero():
            return g
        if step < steps:
            g = g - val * Fy.substitute(bind).invert_unit()
    raise ArithmeticError("implicit solve did not converge")


def reversion(f: Series, zvars: Tuple[str, ...], uvar: str,
              tvar: str, target: Frame) -> Series:
    """Invert f(z, u) = u + O(u^2 and z u) in u.

    Returns g over ``zvars + (tvar,)`` with f(z, g(z, t)) = t.
    The coefficient of u in f at z = 0 must be 1.  No solver calls it;
    it stays because perfbench's layer table names it.
    """
    uidx = f.frame.index(uvar)
    uexp = tuple(1 if i == uidx else 0 for i in range(len(f.frame.vars)))
    if f.coefficient(uexp) != Scalar(1):
        raise ValueError("reversion requires unit linear coefficient in u")
    # F(z, t, y) = f(z, y) - t over vars zvars + (tvar, yvar)
    yvar = "__y"
    w = f.frame.weights
    work = frame(*zvars, tvar, yvar, order=f.frame.order,
                 weights=w[:len(zvars)] + (w[uidx], w[uidx]))
    F = f.project(work, {uvar: yvar}) - Series.variable(work, tvar)
    return solve_implicit(F, yvar, tuple(zvars) + (tvar,), target)
