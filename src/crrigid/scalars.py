"""Exact scalars in the field Q(i, sqrt(2)).

An element is stored as four integer numerators over one positive
integer denominator,

    ((na + nb*sqrt(2)) + i*(nc + ne*sqrt(2))) / nd,

in lowest terms: gcd(na, nb, nc, ne, nd) == 1, and zero is
(0, 0, 0, 0, 1).  Equal elements therefore have equal numerators, so
comparison and hashing are exact.  The real and imaginary parts live in
the real subfield Q(sqrt(2)); zero testing, inversion, conjugation and
(for real elements) sign are all decidable.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction]

_gcd = math.gcd
_FZERO = Fraction(0)


class Scalar:
    """An element of Q(i, sqrt(2)) with exact rational components.

    ``Scalar(a, b, c, e)`` is (a + b sqrt(2)) + i (c + e sqrt(2)) for
    ints or Fractions a, b, c, e, which read back as the Fraction
    properties of the same names.  Scalars are never mutated.
    """

    __slots__ = ("na", "nb", "nc", "ne", "nd")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0,
                 c: RationalLike = 0, e: RationalLike = 0):
        parts = [Fraction(x) for x in (a, b, c, e)]
        # a prime to its full power in the lcm divides some reduced
        # denominator, so not that part's numerator: lowest terms
        d = math.lcm(*(x.denominator for x in parts))
        self.na, self.nb, self.nc, self.ne = (
            x.numerator * (d // x.denominator) for x in parts)
        self.nd = d

    # the rational parts, as Fractions
    a = property(lambda self: _fraction(self.na, self.nd))
    b = property(lambda self: _fraction(self.nb, self.nd))
    c = property(lambda self: _fraction(self.nc, self.nd))
    e = property(lambda self: _fraction(self.ne, self.nd))

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not (self.na or self.nb or self.nc or self.ne)

    def __bool__(self) -> bool:
        return bool(self.na or self.nb or self.nc or self.ne)

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "Scalar":
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        d1, d2 = self.nd, other.nd
        if d1 == d2:
            return reduced(self.na + other.na, self.nb + other.nb,
                           self.nc + other.nc, self.ne + other.ne, d1)
        return reduced(self.na * d2 + other.na * d1,
                       self.nb * d2 + other.nb * d1,
                       self.nc * d2 + other.nc * d1,
                       self.ne * d2 + other.ne * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return reduced(-self.na, -self.nb, -self.nc, -self.ne, self.nd)

    def __sub__(self, other) -> "Scalar":
        return self + (-other)

    def __rsub__(self, other) -> "Scalar":
        return (-self) + other

    def __mul__(self, other) -> "Scalar":
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a1, c1, a2, c2 = self.na, self.nc, other.na, other.nc
        if self.nb or self.ne or other.nb or other.ne:
            # (x1 + i y1)(x2 + i y2) with x, y in Q(sqrt(2)):
            # real: x1 x2 - y1 y2, imag: x1 y2 + y1 x2, where
            # (p + q rt)(r + s rt) = (pr + 2 qs) + (ps + qr) rt.
            b1, e1, b2, e2 = self.nb, self.ne, other.nb, other.ne
            return reduced(
                a1 * a2 - c1 * c2 + 2 * (b1 * b2 - e1 * e2),
                a1 * b2 + b1 * a2 - c1 * e2 - e1 * c2,
                a1 * c2 + c1 * a2 + 2 * (b1 * e2 + e1 * b2),
                a1 * e2 + e1 * a2 + b1 * c2 + c1 * b2,
                self.nd * other.nd)
        d = self.nd * other.nd
        if c1 or c2:  # both in Q(i)
            return reduced(a1 * a2 - c1 * c2, 0, a1 * c2 + c1 * a2, 0, d)
        return reduced(a1 * a2, 0, 0, 0, d)

    __rmul__ = __mul__

    def conjugate(self) -> "Scalar":
        return reduced(self.na, self.nb, -self.nc, -self.ne, self.nd)

    def inverse(self) -> "Scalar":
        a, b, c, e, d = self.na, self.nb, self.nc, self.ne, self.nd
        if not (b or c or e):
            if not a:
                raise ZeroDivisionError("division by zero scalar")
            return reduced(d, 0, 0, 0, a)
        # x = (A + i C)/d with A = a + b rt, C = c + e rt; then
        # 1/x = d (A - i C)(p - q rt) / (p^2 - 2 q^2), where
        # p + q rt = A^2 + C^2 is positive, and so is its conjugate
        # p - q rt (the same sum of squares under rt -> -rt).
        p = a * a + c * c + 2 * (b * b + e * e)
        q = 2 * (a * b + c * e)
        return reduced(d * (a * p - 2 * b * q), d * (b * p - a * q),
                       d * (2 * e * q - c * p), d * (c * q - e * p),
                       p * p - 2 * q * q)

    def __truediv__(self, other) -> "Scalar":
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> "Scalar":
        return self.inverse() * other

    # -- parts and sign -----------------------------------------------

    def real_part(self) -> "Scalar":
        return reduced(self.na, self.nb, 0, 0, self.nd)

    def imag_part(self) -> "Scalar":
        """Imaginary part as a *real* element of Q(sqrt(2))."""
        return reduced(self.nc, self.ne, 0, 0, self.nd)

    def sign(self) -> int:
        """Exact sign of a real element; raises for non-real elements."""
        if self.nc or self.ne:
            raise ValueError("sign of a non-real scalar")
        a, b = self.na, self.nb  # the denominator is positive
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if (a > 0) == (b > 0):
            return 1 if a > 0 else -1
        # opposite signs: a + b sqrt(2) has the sign of a iff a^2 > 2 b^2,
        # and a^2 != 2 b^2 because sqrt(2) is irrational
        sa = 1 if a > 0 else -1
        return sa if a * a > 2 * b * b else -sa

    # -- comparisons / hashing ----------------------------------------

    def __eq__(self, other) -> bool:
        if type(other) is Scalar:
            return (self.na == other.na and self.nd == other.nd
                    and self.nb == other.nb and self.nc == other.nc
                    and self.ne == other.ne)
        if isinstance(other, (int, Fraction)):
            return (not (self.nb or self.nc or self.ne)
                    and self.na == other.numerator
                    and self.nd == other.denominator)
        return NotImplemented

    def __hash__(self):
        if not (self.nb or self.nc or self.ne):
            # equal to hash(q) for the rational q == self
            return hash(self.na if self.nd == 1
                        else Fraction(self.na, self.nd))
        return hash((self.na, self.nb, self.nc, self.ne, self.nd))

    # -- printing -----------------------------------------------------

    def __str__(self) -> str:
        out = ""
        for n, tag in ((self.na, ""), (self.nb, "sqrt(2)"),
                       (self.nc, "i"), (self.ne, "i*sqrt(2)")):
            if n:
                mag = Fraction(abs(n), self.nd)
                body = f"{mag}*{tag}" if mag != 1 and tag else tag or str(mag)
                sign = "-" if n < 0 else "+"
                out = f"{out} {sign} {body}" if out else sign.strip("+") + body
        return out or "0"

    def __repr__(self) -> str:
        return f"Scalar({self})"


_new = object.__new__


def _fraction(n: int, d: int) -> Fraction:
    return Fraction(n, d) if n else _FZERO


def reduced(na: int, nb: int, nc: int, ne: int, nd: int) -> Scalar:
    """A Scalar from numerators over nd != 0, brought to lowest terms."""
    if nd != 1:
        g = _gcd(na, nb, nc, ne, nd)
        if nd < 0:
            g = -g
        if g != 1:
            na //= g
            nb //= g
            nc //= g
            ne //= g
            nd //= g
    s = _new(Scalar)
    s.na = na
    s.nb = nb
    s.nc = nc
    s.ne = ne
    s.nd = nd
    return s


def _coerce(value):
    """An int or Fraction as a Scalar; NotImplemented for anything else."""
    if isinstance(value, (int, Fraction)):
        return reduced(value.numerator, 0, 0, 0, value.denominator)
    return NotImplemented


def scalar(value) -> Scalar:
    """Coerce ints, Fractions or Scalars to a Scalar."""
    if isinstance(value, Scalar):
        return value
    return Scalar(Fraction(value))


#: Shared constants; scalars are never mutated.
ZERO = Scalar(0)
I = Scalar(0, 0, 1, 0)
SQRT2 = Scalar(0, 1, 0, 0)
