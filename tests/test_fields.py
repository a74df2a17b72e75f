"""The coefficient fields: over Q every operation gives the value plain
Fraction arithmetic gives, as an int exactly when it is integral and never
as a float; over GF(p) every operation gives the residue in [0, p)."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import Phase, given, settings, strategies as st

from equipure.fields import GF, QQ

# integers big and small, and fractions with small denominators, so that
# sums and products of two non-integral operands are often integral
RATIONALS = st.one_of(
    st.integers(-10**20, 10**20),
    st.integers(-6, 6),
    st.fractions(min_value=-50, max_value=50, max_denominator=6),
)

# no shrink phase: the operations are one-liners, a failing example is
# readable as it is
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                    phases=(Phase.explicit, Phase.generate))


def assert_canonical(x, value):
    """x is the rational `value`, an int when integral, else a Fraction."""
    assert x == value
    assert type(x) is (int if value.denominator == 1 else Fraction)


def test_the_inverse_of_an_integer_is_an_exact_rational():
    # an int reaching the Q inverse gave the float 0.5
    assert_canonical(QQ.inv(2), Fraction(1, 2))
    assert_canonical(QQ.mul(QQ.of(1), QQ.inv(2)), Fraction(1, 2))
    assert_canonical(QQ.inv(-1), Fraction(-1))
    assert_canonical(QQ.inv(QQ.of(1, 3)), Fraction(3))


def test_zero_and_one_are_ints():
    for field in (QQ, GF(7)):
        assert type(field.zero) is int and field.zero == 0
        assert type(field.one) is int and field.one == 1


@PROPERTY
@given(RATIONALS, RATIONALS)
def test_qq_arithmetic_is_exact_and_canonical(x, y):
    a, b = QQ.of(x), QQ.of(y)
    fa, fb = Fraction(x), Fraction(y)
    assert_canonical(a, fa)
    assert_canonical(b, fb)
    assert_canonical(QQ.add(a, b), fa + fb)
    assert_canonical(QQ.sub(a, b), fa - fb)
    assert_canonical(QQ.mul(a, b), fa * fb)
    assert_canonical(QQ.neg(a), -fa)
    if fb:
        assert_canonical(QQ.inv(b), 1 / fb)
        assert_canonical(QQ.mul(a, QQ.inv(b)), fa / fb)
    else:
        with pytest.raises(ZeroDivisionError):
            QQ.inv(b)


@PROPERTY
@given(st.integers(-10**6, 10**6), st.integers(-60, 60).filter(bool))
def test_qq_of_a_numerator_and_denominator(num, den):
    assert_canonical(QQ.of(num, den), Fraction(num, den))


@PROPERTY
@given(st.sampled_from([2, 3, 7, 32003]), st.integers(-10**6, 10**6),
       st.integers(-10**6, 10**6))
def test_prime_field_arithmetic_is_residue_arithmetic(p, x, y):
    field = GF(p)
    a, b = field.of(x), field.of(y)
    assert (a, b) == (x % p, y % p)
    for got, want in [(field.add(a, b), x + y), (field.sub(a, b), x - y),
                      (field.mul(a, b), x * y), (field.neg(a), -x)]:
        assert type(got) is int and got == want % p
    if b:
        inv = field.inv(b)
        assert type(inv) is int and 0 < inv < p and inv * y % p == 1
        assert field.mul(a, inv) == x * inv % p
        assert field.of(x, y) == x * inv % p
    else:
        with pytest.raises(ZeroDivisionError):
            field.inv(b)
