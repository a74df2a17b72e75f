"""Monomial orders on exponent vectors, and their packed monomials.

An order is stated once, by its packed fields (`fields`, below); its sort
key `key(exp)` is the tuple of those fields' values, which compares the way
the monomials do (bigger key == bigger monomial). Supported kinds:

  lex            plain lexicographic in the ring's variable order
  grevlex        graded reverse lexicographic (the default everywhere)
  block          elimination order: the `front` variable block is compared
                 first (grevlex within each block), so the order eliminates
                 exactly the front set
  grevlex-perm   grevlex after a permutation of variable priorities; used
                 internally to hunt for generator sets whose leading terms
                 are pairwise coprime

Variable priority is fixed by index at ring creation, which keeps every
computed basis byte-reproducible.

Packed monomials (Bachmann & Schoenemann, ISSAC 1998; Monagan & Pearce,
J. Symb. Comp. 46, 2011). `order.packing(nvars)` is a `Packing`: it writes
an exponent vector as one int K whose fields, most significant first, are
the entries of the order key. A degree field holds the sum of a block of
exponents, a lex entry holds an exponent, and a grevlex entry -e holds the
complement top - e; a module order adds position fields. Every field is
`bits` wide and its top bit is a guard that is 0 in every valid K, so K
compares exactly as `key` does, and

  * the product of a and b is K(a) + K(b) - one, with one = K(1);
  * D = K(b) - K(a) + one has D & divmask == 0 exactly when a divides b
    (and, for modules, sits in the same position), and then D = K(b / a).

A field that would overflow sets a guard bit in the first key it spoils
(or is refused by `encode`); the loops raise `PackingOverflow` there and
`_packed_run` runs them again on a packing twice as wide. The division and
Buchberger loops work on K only. Exponent tuples stay at the boundary:
`Polynomial.terms`, the parser, printing and canonical JSON.
"""

from __future__ import annotations

from operator import mul

# field width of a first packing; a run that overflows it doubles the width
PACKING_BITS = 16


class MonomialOrder:
    __slots__ = ("kind", "front", "perm", "_packings")

    def __init__(self, kind: str = "grevlex", front=(), perm=None):
        if kind not in ("lex", "grevlex", "block", "grevlex-perm"):
            raise ValueError(f"unknown order kind {kind!r}")
        self.kind = kind
        self.front = tuple(sorted(front))
        self.perm = tuple(perm) if perm is not None else None
        if kind == "block" and not self.front:
            raise ValueError("block order needs a nonempty front set")
        if kind == "grevlex-perm" and self.perm is None:
            raise ValueError("grevlex-perm needs a permutation")
        self._packings = {}

    def key(self, exp):
        return _key(self.packing(len(exp)).fields, exp, 0)

    def fields(self, nvars):
        """The packed fields of `key` on `nvars` variables; see `Packing`."""
        if self.kind == "lex":
            return tuple(("exp", i) for i in range(nvars))
        if self.kind == "grevlex":
            return _grevlex_fields(range(nvars))
        if self.kind == "grevlex-perm":
            return _grevlex_fields(self.perm)
        back = [i for i in range(nvars) if i not in self.front]
        return _grevlex_fields(self.front) + _grevlex_fields(back)

    def packing(self, nvars):
        """The first-width `Packing` of this order on `nvars` variables."""
        p = self._packings.get(nvars)
        if p is None:
            p = self._packings[nvars] = _packing(self.fields(nvars), nvars,
                                                 PACKING_BITS)
        return p

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder)
            and self.kind == other.kind
            and self.front == other.front
            and self.perm == other.perm
        )

    def __hash__(self):
        return hash((self.kind, self.front, self.perm))

    def __repr__(self):
        if self.kind == "block":
            return f"block{list(self.front)}"
        if self.kind == "grevlex-perm":
            return f"grevlex-perm{list(self.perm)}"
        return self.kind


def _grevlex_fields(idx):
    """Fields of a grevlex key on the variables `idx`: their degree, then
    each exponent complemented, last variable first."""
    idx = tuple(idx)
    return (("deg", idx),) + tuple(("cexp", i) for i in reversed(idx))


def _key(fields, exp, pos):
    """The sort key of the monomial (pos, exp) under packed `fields` (see
    `Packing`; an ideal's monomials are at position 0): the value of each
    field, most significant first. A degree field gives the sum of its
    block, ("exp", i) gives e_i, ("cexp", i) gives -e_i, ("pos",) gives -pos
    and ("lead", L) gives pos < L."""
    out = []
    for kind, *arg in fields:
        if kind == "deg":
            out.append(sum(exp[i] for i in arg[0]))
        elif kind == "exp":
            out.append(exp[arg[0]])
        elif kind == "cexp":
            out.append(-exp[arg[0]])
        elif kind == "pos":
            out.append(-pos)
        else:
            out.append(pos < arg[0])
    return tuple(out)


class PackingOverflow(ArithmeticError):
    """A monomial does not fit the fields of a packing."""


class Packing:
    """One int per monomial for one order; see the module docstring.

    `fields` lists the fields most significant first: ("deg", indices),
    ("exp", i), ("cexp", i) (the complement top - e_i), and for module
    orders ("pos",) (the complement top - position) and ("lead", L) (1 when
    the position is below L). Each variable has exactly one exp or cexp
    field. Built once per (fields, bits) by `_packing`."""

    __slots__ = ("fields", "nvars", "bits", "top", "one", "guard", "divmask",
                 "steps", "shifts", "_places", "_posshift", "_at", "_wider")

    def __init__(self, fields, nvars, bits):
        self.fields = fields
        self.nvars = nvars
        self.bits = bits
        top = self.top = (1 << (bits - 1)) - 1
        steps = [0] * nvars
        shifts = [None] * nvars
        one = guard = posmask = 0
        places = []
        for j, (kind, *arg) in enumerate(fields):
            off = (len(fields) - 1 - j) * bits
            guard |= 1 << (off + bits - 1)
            if kind == "deg":
                for i in arg[0]:
                    steps[i] += 1 << off
            elif kind in ("exp", "cexp"):
                i = arg[0]
                if shifts[i] is not None:
                    raise ValueError(f"variable {i} packed twice")
                shifts[i] = off
                if kind == "exp":
                    steps[i] += 1 << off
                else:
                    steps[i] -= 1 << off
                    one += top << off
            else:
                posmask |= ((1 << bits) - 1) << off
                places.append((kind, arg, off))
        if None in shifts:
            raise ValueError("every variable needs an exponent field")
        self.one = one
        self.guard = guard
        self.divmask = guard | posmask
        self.steps = tuple(steps)
        self.shifts = tuple(shifts)
        self._places = tuple(places)
        self._posshift = next((off for kind, _, off in places if kind == "pos"), None)
        self._at = {}
        self._wider = None

    def encode(self, exp):
        """K of an exponent vector; PackingOverflow when a field would not
        hold it. No field exceeds the total degree, so a vector of total
        degree up to `top` always fits."""
        if sum(exp) > self.top and not self._fits(exp):
            raise PackingOverflow(f"{exp} needs fields wider than {self.bits} bits")
        return self.one + sum(map(mul, exp, self.steps))

    def _fits(self, exp):
        return all(abs(v) <= self.top for v in _key(self.fields, exp, 0))

    def lcm(self, a, b):
        """K of the lcm of the monomials of a and b, in the position of a."""
        return (a & self.divmask) + self.encode(tuple(map(max, self.decode(a), self.decode(b))))

    def decode(self, k):
        """The exponent vector of K (positions are ignored)."""
        x = k ^ self.one
        top = self.top
        return tuple([(x >> s) & top for s in self.shifts])

    def at(self, pos):
        """The position fields of `pos`: K(pos, e) = at(pos) + encode(e)."""
        k = self._at.get(pos)
        if k is None:
            if pos > self.top:
                raise PackingOverflow(f"position {pos} needs wider fields")
            k = 0
            for kind, arg, off in self._places:
                k += (self.top - pos if kind == "pos" else int(pos < arg[0])) << off
            self._at[pos] = k
        return k

    def position(self, k):
        """The position of a module K."""
        return self.top - ((k >> self._posshift) & self.top)

    def wider(self):
        """The packing with the same fields, twice as wide."""
        if self._wider is None:
            self._wider = _packing(self.fields, self.nvars, 2 * self.bits)
        return self._wider


# (fields, nvars, bits) -> Packing, so that equal orders share packings and
# the per-polynomial caches keyed on them
_PACKINGS = {}


def _packing(fields, nvars, bits):
    key = (fields, nvars, bits)
    p = _PACKINGS.get(key)
    if p is None:
        p = _PACKINGS[key] = Packing(fields, nvars, bits)
    return p


def _packed_run(packing, run):
    """run(packing), run again on a packing twice as wide for as long as it
    raises PackingOverflow. A run is deterministic and depends on the
    packing only through this exception, so the wider run redoes the same
    steps and gets past the overflow."""
    while True:
        try:
            return run(packing)
        except PackingOverflow:
            packing = packing.wider()


LEX = MonomialOrder("lex")
GREVLEX = MonomialOrder("grevlex")


def block_order(front) -> MonomialOrder:
    return MonomialOrder("block", front=front)


def permuted_grevlex(perm) -> MonomialOrder:
    return MonomialOrder("grevlex-perm", perm=perm)


# -- exponent-vector helpers ------------------------------------------------

def exp_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def exp_divides(a, b):
    """True when monomial a divides monomial b."""
    return all(x <= y for x, y in zip(a, b))


def exp_div(a, b):
    """Exponent vector of a / b; caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(a, b))


def exp_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def exp_coprime(a, b):
    return all(x == 0 or y == 0 for x, y in zip(a, b))
