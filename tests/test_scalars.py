"""Field arithmetic in Q(i, sqrt(2))."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crrigid.scalars import SQRT2 as SQ, Scalar, scalar

I = Scalar(0, 0, 1)

rationals = st.builds(
    Fraction,
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=1, max_value=6))
scalars = st.builds(Scalar, rationals, rationals, rationals, rationals)
nonzero = scalars.filter(lambda s: not s.is_zero())


@given(scalars, scalars, scalars)
@settings(max_examples=100, deadline=None)
def test_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + Scalar(0) == x
    assert x * Scalar(1) == x
    assert x - x == Scalar(0)


@given(nonzero)
@settings(max_examples=100, deadline=None)
def test_inverse(x):
    assert x * x.inverse() == Scalar(1)
    assert x / x == Scalar(1)


@given(scalars, scalars)
@settings(max_examples=100, deadline=None)
def test_conjugation(x, y):
    assert x.conjugate().conjugate() == x
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert (x + y).conjugate() == x.conjugate() + y.conjugate()


@given(scalars)
@settings(max_examples=100, deadline=None)
def test_real_imag_decomposition(x):
    re, im = x.real_part(), x.imag_part()
    assert re.is_real() and im.is_real()
    assert re + I * im == x
    assert x.is_real() == (x == x.conjugate())


def test_special_values():
    assert I * I == Scalar(-1)
    assert SQ * SQ == Scalar(2)
    assert (1 + I).conjugate() == 1 - I
    assert scalar(Fraction(3, 2)) == Scalar(Fraction(3, 2))


def test_sqrt_rational():
    assert Scalar(Fraction(9, 4)).sqrt_rational() == Scalar(Fraction(3, 2))
    assert Scalar(4).sqrt_rational() == Scalar(2)
    with pytest.raises(ValueError):
        Scalar(3).sqrt_rational()
    with pytest.raises(ValueError):
        Scalar(-1).sqrt_rational()


def test_sign_of_real_values():
    assert Scalar(Fraction(1, 7)).sign() == 1
    assert Scalar(-2).sign() == -1
    assert Scalar(0).sign() == 0
    assert (SQ - 1).sign() == 1          # sqrt(2) > 1
    assert (SQ - 2).sign() == -1         # sqrt(2) < 2
    with pytest.raises(ValueError):
        I.sign()


def test_str_is_deterministic():
    assert str(Scalar(Fraction(1, 3), 0, 0, 0)) == "1/3"
    assert str(I) == "i"
    assert str(Scalar(0, 0, Fraction(1, 3))) == "1/3*i"
    assert str(SQ) == "sqrt(2)"
    assert str(Scalar(0)) == "0"


def test_complex_embedding():
    val = complex(Scalar(1, 1, 2))
    assert abs(val.real - (1 + 2 ** 0.5)) < 1e-12
    assert abs(val.imag - 2.0) < 1e-12
