"""Exact coefficient fields: the rationals and prime fields F_p.

All arithmetic is exact. Prime-field coefficients are ints in [0, p) with
inverses computed by the extended Euclid built into `pow(a, -1, p)`.

A rational has one canonical form: a Python `int` when it is integral, a
`Rational` (a pair of coprime ints, denominator > 1) only when it is not.
Every operation below returns that form, so integers never pay for pair
arithmetic, and no operation returns a float. This module is the only one
that knows the representation: the others make rationals through `of` and
combine them through the arithmetic below. A `Rational` has no arithmetic
operators, so a raw `+`, `*` or `**` on one raises TypeError. It prints
`n/d` with the sign on the numerator; it never equals an int, and its hash
is the hash of its pair of ints, the same under every PYTHONHASHSEED.
"""

from __future__ import annotations

from math import gcd


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


class Rational:
    """A non-integral rational numerator/denominator: coprime ints,
    denominator > 1. Built only here, by `_ratio` and the arithmetic of
    `FieldSpec`; it has the order `sorted` needs and no arithmetic."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int):
        self.numerator = numerator
        self.denominator = denominator

    def __str__(self):
        return f"{self.numerator}/{self.denominator}"

    def __repr__(self):
        return f"Rational({self.numerator}, {self.denominator})"

    def __eq__(self, other):
        if other.__class__ is not Rational:
            return NotImplemented
        return (self.numerator == other.numerator
                and self.denominator == other.denominator)

    def __hash__(self):
        return hash((self.numerator, self.denominator))

    def _cross(self, other):
        """(self, other) scaled to a common positive denominator, as ints;
        None when `other` is neither an int nor a Rational."""
        if other.__class__ is int:
            return self.numerator, other * self.denominator
        if other.__class__ is Rational:
            return (self.numerator * other.denominator,
                    other.numerator * self.denominator)
        return None

    def __lt__(self, other):
        pair = self._cross(other)
        return NotImplemented if pair is None else pair[0] < pair[1]

    def __le__(self, other):
        pair = self._cross(other)
        return NotImplemented if pair is None else pair[0] <= pair[1]

    def __gt__(self, other):
        pair = self._cross(other)
        return NotImplemented if pair is None else pair[0] > pair[1]

    def __ge__(self, other):
        pair = self._cross(other)
        return NotImplemented if pair is None else pair[0] >= pair[1]


def _ratio(n: int, d: int):
    """The canonical form of n/d for ints n and d."""
    if d < 0:
        n, d = -n, -d
    elif not d:
        raise ZeroDivisionError(f"rational {n}/0")
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    return n if d == 1 else Rational(n, d)


def _coprime(n: int, d: int):
    """The canonical form of n/d for coprime ints n and d > 0."""
    return n if d == 1 else Rational(n, d)


def _add(na: int, da: int, nb: int, db: int):
    """na/da + nb/db for coprime pairs with positive denominators, not
    both 1 (the method of the standard library's `fractions`: divide out
    gcd(da, db) first)."""
    g = gcd(da, db)
    if g == 1:
        return Rational(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return Rational(t, s * db)
    return _coprime(t // g2, s * (db // g2))


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
        """Coerce num/den into a field element. Over Q, num and den may
        be ints or rationals of any kind with `numerator` and
        `denominator`, a standard-library Fraction included."""
        if self.char == 0:
            if num.__class__ is int and den == 1:
                return num
            return _ratio(num.numerator * den.denominator, num.denominator * den.numerator)
        p = self.char
        num = num % p
        if den % p == 0:
            raise ZeroDivisionError(f"denominator {den} is 0 mod {p}")
        if den % p != 1:
            num = num * pow(den % p, -1, p) % p
        return num

    # -- arithmetic ----------------------------------------------------
    # over Q two ints combine as ints; a Rational operand takes the pair
    # arithmetic, whose result may be integral

    def add(self, a, b):
        if self.char:
            return (a + b) % self.char
        if a.__class__ is int and b.__class__ is int:
            return a + b
        return _add(a.numerator, a.denominator, b.numerator, b.denominator)

    def sub(self, a, b):
        if self.char:
            return (a - b) % self.char
        if a.__class__ is int and b.__class__ is int:
            return a - b
        return _add(a.numerator, a.denominator, -b.numerator, b.denominator)

    def mul(self, a, b):
        if self.char:
            return (a * b) % self.char
        if a.__class__ is int and b.__class__ is int:
            return a * b
        na, da, nb, db = a.numerator, a.denominator, b.numerator, b.denominator
        g = gcd(na, db)
        if g != 1:
            na //= g
            db //= g
        g = gcd(nb, da)
        if g != 1:
            nb //= g
            da //= g
        return _coprime(na * nb, da * db)

    def neg(self, a):
        if self.char:
            return (-a) % self.char
        return -a if a.__class__ is int else Rational(-a.numerator, a.denominator)

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        if self.char:
            return pow(a, -1, self.char)
        n, d = a.numerator, a.denominator
        return _coprime(d, n) if n > 0 else _coprime(-d, -n)

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
