"""Exact coefficient fields: the rationals and prime fields F_p.

All arithmetic is exact. Prime-field coefficients are ints in [0, p) with
inverses computed by the extended Euclid built into `pow(a, -1, p)`.

A rational has one canonical form: a Python `int` when it is integral, a
`fractions.Fraction` (denominator > 1) only when it is not. Every operation
below returns that form, so integers never pay for Fraction arithmetic, and
no operation returns a float. This module is the only one that knows the
representation: the others make rationals through `of` and combine them
through the arithmetic below. Report bytes do not depend on the form, since
an int and the Fraction of the same value agree on `==`, `hash` and `str`.
"""

from __future__ import annotations

from fractions import Fraction


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _canonical(q):
    """The canonical form of a rational: its numerator when it is integral."""
    return q.numerator if q.denominator == 1 else q


class FieldSpec:
    """A coefficient field: characteristic 0 (rationals) or a prime p."""

    __slots__ = ("char", "zero", "one")

    def __init__(self, char: int = 0):
        if char != 0 and not is_prime(char):
            raise ValueError(f"characteristic must be 0 or prime, got {char}")
        self.char = char
        self.zero = 0
        self.one = 1

    @property
    def kind(self) -> str:
        return "rationals" if self.char == 0 else "prime-field"

    # -- element constructors ------------------------------------------

    def of(self, num, den=1):
        """Coerce num/den into a field element."""
        if self.char == 0:
            if den != 1:
                num = Fraction(num, den)
            return _canonical(num)
        p = self.char
        num = num % p
        if den % p == 0:
            raise ZeroDivisionError(f"denominator {den} is 0 mod {p}")
        if den % p != 1:
            num = num * pow(den % p, -1, p) % p
        return num

    # -- arithmetic ----------------------------------------------------
    # over Q an int result is canonical as it stands; only a Fraction
    # result needs the denominator test

    def add(self, a, b):
        if self.char:
            return (a + b) % self.char
        c = a + b
        return c if c.__class__ is int else _canonical(c)

    def sub(self, a, b):
        if self.char:
            return (a - b) % self.char
        c = a - b
        return c if c.__class__ is int else _canonical(c)

    def mul(self, a, b):
        if self.char:
            return (a * b) % self.char
        c = a * b
        return c if c.__class__ is int else _canonical(c)

    def neg(self, a):
        return (-a) % self.char if self.char else -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        if self.char:
            return pow(a, -1, self.char)
        if a.__class__ is int:
            return a if a == 1 or a == -1 else Fraction(1, a)
        return _canonical(Fraction(a.denominator, a.numerator))

    # -- misc ----------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self.char == other.char

    def __hash__(self):
        return hash(("FieldSpec", self.char))

    def __repr__(self):
        return "QQ" if self.char == 0 else f"GF({self.char})"


QQ = FieldSpec(0)


def GF(p: int) -> FieldSpec:
    return FieldSpec(p)
