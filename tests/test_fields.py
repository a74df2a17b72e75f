"""The coefficient fields: over Q every operation gives the value the
standard library's Fraction arithmetic gives, as an int exactly when it is
integral, else as a `fields.Rational` that prints, orders and compares as
that Fraction does, and never as a float; over GF(p) every operation gives
the residue in [0, p)."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import Phase, given, settings, strategies as st

from equipure.fields import GF, QQ, Rational

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

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
    """x is the rational `value`, an int when integral, else a Rational
    with the coprime numerator and denominator of `value`, printed as
    `value` prints."""
    if value.denominator == 1:
        assert type(x) is int and x == value
    else:
        assert type(x) is Rational
        assert (x.numerator, x.denominator) == (value.numerator, value.denominator)
    assert str(x) == str(value)


def test_the_inverse_of_an_integer_is_an_exact_rational():
    # an int reaching the Q inverse gave the float 0.5
    assert_canonical(QQ.inv(2), Fraction(1, 2))
    assert_canonical(QQ.mul(QQ.of(1), QQ.inv(2)), Fraction(1, 2))
    assert_canonical(QQ.inv(-1), Fraction(-1))
    assert_canonical(QQ.inv(QQ.of(1, 3)), Fraction(3))
    assert_canonical(QQ.inv(QQ.of(-2, 3)), Fraction(-3, 2))


def test_zero_and_one_are_ints():
    for field in (QQ, GF(7)):
        assert type(field.zero) is int and field.zero == 0
        assert type(field.one) is int and field.one == 1


@PROPERTY
@given(RATIONALS, RATIONALS)
def test_qq_arithmetic_is_exact_and_canonical(x, y):
    """Arithmetic, `str`, equality and order as Fraction's; equal values
    hash alike."""
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
        assert_canonical(QQ.of(a, b), fa / fb)
    else:
        with pytest.raises(ZeroDivisionError):
            QQ.inv(b)
        with pytest.raises(ZeroDivisionError):
            QQ.of(a, b)
    # equality, order and hash: the order `sorted` needs, mixed with ints
    assert (a == b, a != b) == (fa == fb, fa != fb)
    assert (a < b, a <= b, a > b, a >= b) == (fa < fb, fa <= fb, fa > fb, fa >= fb)
    if a == b:
        assert hash(a) == hash(b)
    values = [a, b, QQ.of(x, 3), QQ.of(y, -2), QQ.zero]
    oracle = [fa, fb, fa / 3, fb / -2, Fraction(0)]
    assert [str(v) for v in sorted(values)] == [str(v) for v in sorted(oracle)]


@PROPERTY
@given(st.integers(-10**6, 10**6), st.integers(-60, 60).filter(bool))
def test_qq_of_a_numerator_and_denominator(num, den):
    assert_canonical(QQ.of(num, den), Fraction(num, den))
    assert_canonical(QQ.of(Fraction(num, den)), Fraction(num, den))


def test_a_rational_has_no_arithmetic_operators():
    r = QQ.of(1, 2)
    for raw in (lambda: r + r, lambda: r - 1, lambda: 2 * r, lambda: r * r, lambda: r / 2,
                lambda: r ** 2, lambda: -r, lambda: abs(r), lambda: int(r), lambda: r % 2):
        with pytest.raises(TypeError):
            raw()


HASHED = ((1, 2), (-7, 3), (10**30 + 1, 10**20), (5, -12))


def test_the_hash_of_a_rational_is_the_same_under_every_hash_seed():
    code = ("from equipure.fields import QQ\n"
            f"print(hash('equipure'), *(hash(QQ.of(n, d)) for n, d in {HASHED!r}))")
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=seed),
                         timeout=60, check=True).stdout.split()
    assert int(out[0]) != hash("equipure")  # the two interpreters hash strings apart
    assert [int(h) for h in out[1:]] == [hash(QQ.of(n, d)) for n, d in HASHED]


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
