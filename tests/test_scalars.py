"""Field arithmetic in Q(i, sqrt(2))."""

from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crrigid.parser import parse_expression
from crrigid.scalars import SQRT2 as SQ, Scalar, scalar
from crrigid.series import frame
from test_series import sqrt_rational

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
    assert re == re.conjugate() and im == im.conjugate()
    assert re + I * im == x
    assert (x == x.conjugate()) == im.is_zero()


def test_special_values():
    assert I * I == Scalar(-1)
    assert SQ * SQ == Scalar(2)
    assert (1 + I).conjugate() == 1 - I
    assert scalar(Fraction(3, 2)) == Scalar(Fraction(3, 2))


def test_sqrt_rational():
    assert sqrt_rational(Scalar(Fraction(9, 4))) == Scalar(Fraction(3, 2))
    assert sqrt_rational(Scalar(4)) == Scalar(2)
    with pytest.raises(ValueError):
        sqrt_rational(Scalar(3))
    with pytest.raises(ValueError):
        sqrt_rational(Scalar(-1))


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


# -- the integer-numerator kernel against a Fraction reference ---------

wide = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30),
              st.integers(1, 10 ** 12)))
small_int = st.integers(-3, 3).map(Fraction)
part = st.one_of(wide, small_int)
# every shape the kernel branches on: rational, Q(i), Q(sqrt(2)), general
wide_scalars = st.one_of(
    st.builds(Scalar, part),
    st.builds(lambda a, c: Scalar(a, 0, c), part, part),
    st.builds(lambda a, b: Scalar(a, b), part, part),
    st.builds(Scalar, part, part, part, part))
rational_like = st.one_of(st.integers(-10 ** 20, 10 ** 20), wide)


@given(st.one_of(scalars, wide_scalars))
@settings(max_examples=200, deadline=None)
def test_str_parses_back(x):
    assert parse_expression(str(x), frame("z", order=1)).constant_term() == x


def parts(x):
    return (x.a, x.b, x.c, x.e)


def ref_add(x, y):
    return tuple(p + q for p, q in zip(x, y))


def ref_mul(x, y):
    a1, b1, c1, e1 = x
    a2, b2, c2, e2 = y
    return (a1 * a2 + b1 * b2 * 2 - (c1 * c2 + e1 * e2 * 2),
            a1 * b2 + b1 * a2 - (c1 * e2 + e1 * c2),
            a1 * c2 + c1 * a2 + (b1 * e2 + e1 * b2) * 2,
            a1 * e2 + e1 * a2 + b1 * c2 + c1 * b2)


def ref_real_inverse(a, b):
    den = a * a - b * b * 2
    return (a / den, -b / den, Fraction(0), Fraction(0))


def ref_inverse(x):
    a, b, c, e = x
    if not (c or e):
        return ref_real_inverse(a, b)
    conj = (a, b, -c, -e)
    na, nb, _, _ = ref_mul(x, conj)
    return ref_mul(conj, ref_real_inverse(na, nb))


def ref_sign(a, b):
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return (b > 0) - (b < 0)
    if (a > 0) == (b > 0):
        return 1 if a > 0 else -1
    sa = 1 if a > 0 else -1
    return sa if a * a - b * b * 2 > 0 else -sa


def assert_canonical(x):
    assert x.nd > 0
    assert gcd(x.na, x.nb, x.nc, x.ne, x.nd) == 1
    if x.is_zero():
        assert (x.na, x.nb, x.nc, x.ne, x.nd) == (0, 0, 0, 0, 1)


@given(wide_scalars, wide_scalars)
@settings(max_examples=300, deadline=None)
def test_kernel_matches_fraction_reference(x, y):
    px, py = parts(x), parts(y)
    results = [(x + y, ref_add(px, py)),
               (x - y, ref_add(px, tuple(-q for q in py))),
               (-x, tuple(-q for q in px)),
               (x * y, ref_mul(px, py)),
               (x.conjugate(), (px[0], px[1], -px[2], -px[3])),
               (x.real_part(), (px[0], px[1], 0, 0)),
               (x.imag_part(), (px[2], px[3], 0, 0))]
    if not x.is_zero():
        results.append((x.inverse(), ref_inverse(px)))
    for got, want in results:
        assert_canonical(got)
        assert parts(got) == want
    assert_canonical(x)
    assert (x == y) == (px == py)
    if x == x.conjugate():
        assert x.sign() == ref_sign(px[0], px[1])
    assert x + y - y == x
    if not y.is_zero():
        assert x * y / y == x


@given(st.integers(1, 10 ** 30), st.integers(1, 10 ** 12))
@settings(max_examples=100, deadline=None)
def test_sign_next_to_sqrt2(b, d):
    a = isqrt(2 * b * b)  # a < b sqrt(2) < a + 1
    for p, q, want in ((a, -b, -1), (a + 1, -b, 1), (-a, b, 1),
                       (-a - 1, b, -1)):
        assert Scalar(Fraction(p, d), Fraction(q, d)).sign() == want
        assert ref_sign(Fraction(p, d), Fraction(q, d)) == want


@given(wide_scalars)
@settings(max_examples=200, deadline=None)
def test_components_round_trip(x):
    px = parts(x)
    assert all(type(p) is Fraction for p in px)
    assert Scalar(*px) == x
    assert parts(Scalar(*px)) == px
    assert x.is_zero() == (x == Scalar(0)) == (px == (0, 0, 0, 0))
    assert (x == Scalar(px[0])) == (px[1:] == (0, 0, 0))


@given(rational_like)
@settings(max_examples=200, deadline=None)
def test_rational_hash_and_equality(q):
    x = Scalar(q)
    assert hash(x) == hash(q) == hash(Fraction(q))
    assert x == q and q == x
    assert x == Scalar(Fraction(q)) == scalar(q)
    assert x + I != q


@given(wide_scalars, rational_like)
@settings(max_examples=200, deadline=None)
def test_mixed_operands(x, q):
    px, pq = parts(x), (Fraction(q), 0, 0, 0)
    results = [(x + q, ref_add(px, pq)), (q + x, ref_add(pq, px)),
               (x - q, ref_add(px, (-pq[0], 0, 0, 0))),
               (q - x, ref_add(pq, tuple(-p for p in px))),
               (x * q, ref_mul(px, pq)), (q * x, ref_mul(pq, px))]
    if q != 0:
        results.append((x / q, ref_mul(px, (1 / pq[0], 0, 0, 0))))
    if not x.is_zero():
        results.append((q / x, ref_mul(pq, ref_inverse(px))))
    for got, want in results:
        assert type(got) is Scalar
        assert_canonical(got)
        assert parts(got) == want
