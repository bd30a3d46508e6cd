"""Exact scalars in the field Q(i, sqrt(2)).

An element is stored as four rationals (a, b, c, e) representing

    (a + b*sqrt(2)) + i*(c + e*sqrt(2)).

The real and imaginary parts live in the real subfield Q(sqrt(2)); zero
testing, inversion, conjugation and (for real elements) sign are all
decidable.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction]


class Scalar:
    """An element of Q(i, sqrt(2)) with exact rational components."""

    __slots__ = ("a", "b", "c", "e")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0,
                 c: RationalLike = 0, e: RationalLike = 0):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.c = Fraction(c)
        self.e = Fraction(e)

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not (self.a or self.b or self.c or self.e)

    def is_real(self) -> bool:
        return not (self.c or self.e)

    def is_rational(self) -> bool:
        return not (self.b or self.c or self.e)

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "Scalar":
        if not isinstance(other, Scalar):
            if isinstance(other, (int, Fraction)):
                return Scalar(self.a + other, self.b, self.c, self.e)
            return NotImplemented
        return Scalar(self.a + other.a, self.b + other.b,
                      self.c + other.c, self.e + other.e)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return Scalar(-self.a, -self.b, -self.c, -self.e)

    def __sub__(self, other) -> "Scalar":
        if not isinstance(other, Scalar):
            if isinstance(other, (int, Fraction)):
                return Scalar(self.a - other, self.b, self.c, self.e)
            return NotImplemented
        return Scalar(self.a - other.a, self.b - other.b,
                      self.c - other.c, self.e - other.e)

    def __rsub__(self, other) -> "Scalar":
        return (-self) + other

    def __mul__(self, other) -> "Scalar":
        if not isinstance(other, Scalar):
            if isinstance(other, (int, Fraction)):
                return Scalar(self.a * other, self.b * other,
                              self.c * other, self.e * other)
            return NotImplemented
        a1, b1, c1, e1 = self.a, self.b, self.c, self.e
        a2, b2, c2, e2 = other.a, other.b, other.c, other.e
        # fast path: both plainly rational
        if not (b1 or c1 or e1 or b2 or c2 or e2):
            return Scalar(a1 * a2)
        # (x1 + i y1)(x2 + i y2) with x, y in Q(sqrt(2)):
        # real: x1 x2 - y1 y2, imag: x1 y2 + y1 x2, where
        # (p + q rt)(r + s rt) = (pr + 2 qs) + (ps + qr) rt.
        ra = a1 * a2 + b1 * b2 * 2 - (c1 * c2 + e1 * e2 * 2)
        rb = a1 * b2 + b1 * a2 - (c1 * e2 + e1 * c2)
        ia = a1 * c2 + c1 * a2 + (b1 * e2 + e1 * b2) * 2
        ib = a1 * e2 + e1 * a2 + b1 * c2 + c1 * b2
        return Scalar(ra, rb, ia, ib)

    __rmul__ = __mul__

    def conjugate(self) -> "Scalar":
        return Scalar(self.a, self.b, -self.c, -self.e)

    def _real_inverse(self) -> "Scalar":
        """Inverse of a nonzero real element a + b sqrt(2)."""
        a, b = self.a, self.b
        den = a * a - b * b * 2
        if den == 0:
            # only possible when a == b == 0 because sqrt(2) is irrational
            raise ZeroDivisionError("division by zero scalar")
        return Scalar(a / den, -b / den)

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("division by zero scalar")
        if self.is_real():
            return self._real_inverse()
        conj = self.conjugate()
        norm = self * conj  # real and nonzero
        ninv = norm._real_inverse()
        return conj * ninv

    def __truediv__(self, other) -> "Scalar":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero scalar")
            q = Fraction(1, 1) / other
            return self * q
        if not isinstance(other, Scalar):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> "Scalar":
        return self.inverse() * other

    # -- parts and sign -----------------------------------------------

    def real_part(self) -> "Scalar":
        return Scalar(self.a, self.b, 0, 0)

    def imag_part(self) -> "Scalar":
        """Imaginary part as a *real* element of Q(sqrt(2))."""
        return Scalar(self.c, self.e, 0, 0)

    def sign(self) -> int:
        """Exact sign of a real element; raises for non-real elements."""
        if not self.is_real():
            raise ValueError("sign of a non-real scalar")
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: a + b sqrt(2) has the sign of a iff a^2 > 2 b^2
        t = a * a - b * b * 2
        sa = 1 if a > 0 else -1
        if t == 0:
            return 0  # unreachable: sqrt(2) is irrational
        return sa if t > 0 else -sa

    # -- comparisons / hashing ----------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.a == other
        if not isinstance(other, Scalar):
            return NotImplemented
        return (self.a == other.a and self.b == other.b
                and self.c == other.c and self.e == other.e)

    def __hash__(self):
        if self.is_rational():
            return hash(self.a)
        return hash((self.a, self.b, self.c, self.e))

    # -- conversions --------------------------------------------------

    def __complex__(self) -> complex:
        rt = math.sqrt(2)
        return complex(float(self.a) + float(self.b) * rt,
                       float(self.c) + float(self.e) * rt)

    def sqrt_rational(self) -> "Scalar":
        """Exact square root of a nonnegative rational element."""
        if not self.is_rational() or self.a < 0:
            raise ValueError("sqrt_rational needs a nonnegative rational")
        num, den = self.a.numerator, self.a.denominator
        rn, rd = math.isqrt(num), math.isqrt(den)
        if rn * rn != num or rd * rd != den:
            raise ValueError(f"{self.a} is not a rational square")
        return Scalar(Fraction(rn, rd))

    # -- printing -----------------------------------------------------

    def __str__(self) -> str:
        terms = []
        for coef, tag in ((self.a, ""), (self.b, "sqrt(2)"),
                          (self.c, "i"), (self.e, "i*sqrt(2)")):
            if coef == 0:
                continue
            mag = abs(coef)
            if tag == "":
                body = str(mag)
            elif mag == 1:
                body = tag
            else:
                body = f"{mag}*{tag}"
            sign = "-" if coef < 0 else "+"
            terms.append((sign, body))
        if not terms:
            return "0"
        first_sign, first_body = terms[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in terms[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:
        return f"Scalar({self})"


def scalar(value) -> Scalar:
    """Coerce ints, Fractions or Scalars to a Scalar."""
    if isinstance(value, Scalar):
        return value
    return Scalar(Fraction(value))


#: Shared constants; scalars are never mutated.
ZERO = Scalar(0)
I = Scalar(0, 0, 1, 0)
SQRT2 = Scalar(0, 1, 0, 0)
