"""Exact coefficient fields: the rationals and prime fields F_p.

All arithmetic is exact. Rational coefficients are `fractions.Fraction`;
prime-field coefficients are ints in [0, p) with inverses computed by
the extended Euclid built into `pow(a, -1, p)`. No floating point anywhere.
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


# the rationals' 0 and 1, shared: a Fraction is immutable
_Q_ZERO = Fraction(0)
_Q_ONE = Fraction(1)


class FieldSpec:
    """A coefficient field: characteristic 0 (rationals) or a prime p."""

    __slots__ = ("char",)

    def __init__(self, char: int = 0):
        if char != 0 and not is_prime(char):
            raise ValueError(f"characteristic must be 0 or prime, got {char}")
        self.char = char

    @property
    def kind(self) -> str:
        return "rationals" if self.char == 0 else "prime-field"

    # -- element constructors ------------------------------------------

    @property
    def zero(self):
        return _Q_ZERO if self.char == 0 else 0

    @property
    def one(self):
        return _Q_ONE if self.char == 0 else 1

    def of(self, num, den=1):
        """Coerce num/den into a field element."""
        if self.char == 0:
            return Fraction(num, den)
        p = self.char
        num = num % p
        if den % p == 0:
            raise ZeroDivisionError(f"denominator {den} is 0 mod {p}")
        if den % p != 1:
            num = num * pow(den % p, -1, p) % p
        return num

    # -- arithmetic ----------------------------------------------------

    def add(self, a, b):
        return a + b if self.char == 0 else (a + b) % self.char

    def sub(self, a, b):
        return a - b if self.char == 0 else (a - b) % self.char

    def mul(self, a, b):
        return a * b if self.char == 0 else (a * b) % self.char

    def neg(self, a):
        return -a if self.char == 0 else (-a) % self.char

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a if self.char == 0 else pow(a, -1, self.char)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

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
