"""Sparse exact multivariate polynomials.

A Polynomial stores a tuple of (exponent_vector, coefficient) pairs sorted
descending by plain lex on the exponent vectors. That storage order is
canonical and independent of whatever monomial order a computation uses, so
printed and serialized forms are byte-stable; Groebner routines locate
leading terms through the active order on demand. A polynomial's packed
terms and leading term under an order's packing (see `orders`), and its
hash, are computed once, on first use, and kept on the polynomial.
"""

from __future__ import annotations

from .fields import FieldSpec
from .orders import _packed_run


class PolynomialRing:
    """k[x_1, ..., x_n] with a fixed variable order."""

    __slots__ = ("field", "vars")

    def __init__(self, field: FieldSpec, variables):
        self.field = field
        self.vars = tuple(variables)
        if len(set(self.vars)) != len(self.vars):
            raise ValueError("duplicate variable names")

    @property
    def nvars(self) -> int:
        return len(self.vars)

    def __eq__(self, other):
        return (
            isinstance(other, PolynomialRing)
            and self.field == other.field
            and self.vars == other.vars
        )

    def __hash__(self):
        return hash((self.field, self.vars))

    def __repr__(self):
        return f"{self.field}[{','.join(self.vars)}]"

    # -- constructors ---------------------------------------------------

    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    def one(self) -> "Polynomial":
        return self.const(self.field.one)

    def const(self, c) -> "Polynomial":
        c = self.field.of(c)
        if not c:
            return self.zero()
        return Polynomial(self, (((0,) * self.nvars, c),))

    def var(self, i: int) -> "Polynomial":
        exp = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, ((exp, self.field.one),))

    def var_named(self, name: str) -> "Polynomial":
        return self.var(self.vars.index(name))

    def gens(self):
        return [self.var(i) for i in range(self.nvars)]

    def from_terms(self, terms) -> "Polynomial":
        """Build from an iterable of (exp tuple, coefficient), merging dups."""
        acc = {}
        for exp, c in terms:
            exp = tuple(exp)
            if len(exp) != self.nvars or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent vector {exp} for {self!r}")
            acc[exp] = self.field.add(acc.get(exp, self.field.zero), c)
        return poly_from_dict(self, acc)

    def extend(self, new_names, front: bool = False) -> "PolynomialRing":
        """Ring with extra variables appended (or prepended when front)."""
        new_names = tuple(new_names)
        for n in new_names:
            if n in self.vars:
                raise ValueError(f"variable {n} already present")
        names = new_names + self.vars if front else self.vars + new_names
        return PolynomialRing(self.field, names)

    def fresh_names(self, base: str, count: int):
        """Deterministic variable names not colliding with existing ones."""
        out = []
        taken = set(self.vars)
        i = 0
        while len(out) < count:
            cand = f"{base}{i}" if count > 1 or i > 0 else base
            if cand not in taken:
                out.append(cand)
                taken.add(cand)
            i += 1
        return out


def poly_from_dict(ring: PolynomialRing, d: dict) -> "Polynomial":
    items = tuple(sorted(((e, c) for e, c in d.items() if c), reverse=True))
    return Polynomial(ring, items)


def _poly_from_packed(ring: PolynomialRing, packing, d: dict) -> "Polynomial":
    """The polynomial of a dict K -> coefficient under `packing`, with its
    packed terms already kept."""
    decode = packing.decode
    items = sorted([(decode(k), k, c) for k, c in d.items() if c], reverse=True)
    f = Polynomial(ring, tuple([(e, c) for e, _, c in items]))
    f._packs = {packing: _pack_entry([k for _, k, _ in items], [c for _, _, c in items])}
    return f


def _pack_entry(keys, coeffs):
    """A `Polynomial._packed` entry: (K, coefficient) pairs and the index
    of the biggest K."""
    return tuple(zip(keys, coeffs)), keys.index(max(keys)) if keys else None


class Polynomial:
    """Immutable sparse polynomial over an exact field."""

    # `_packs` (packing -> packed terms) and `_hash` are set on first use only
    __slots__ = ("ring", "terms", "_packs", "_hash")

    def __init__(self, ring: PolynomialRing, terms):
        self.ring = ring
        self.terms = tuple(terms)

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and not any(self.terms[0][0]))

    def constant_value(self):
        if not self.terms:
            return self.ring.field.zero
        if self.is_constant():
            return self.terms[0][1]
        raise ValueError("not a constant")

    def support_vars(self):
        """Indices of variables actually appearing."""
        seen = set()
        for e, _ in self.terms:
            for i, x in enumerate(e):
                if x:
                    seen.add(i)
        return sorted(seen)

    # -- arithmetic ------------------------------------------------------

    def _check(self, other):
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("polynomials from different rings")

    def __add__(self, other):
        self._check(other)
        fld = self.ring.field
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = fld.add(acc.get(e, fld.zero), c)
        return poly_from_dict(self.ring, acc)

    def __sub__(self, other):
        self._check(other)
        fld = self.ring.field
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = fld.sub(acc.get(e, fld.zero), c)
        return poly_from_dict(self.ring, acc)

    def __neg__(self):
        fld = self.ring.field
        return Polynomial(self.ring, tuple((e, fld.neg(c)) for e, c in self.terms))

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(self.ring.field.of(other))
        self._check(other)
        if not self.terms or not other.terms:
            return self.ring.zero()
        if other.is_constant():
            return self.scale(other.terms[0][1])
        if self.is_constant():
            return other.scale(self.terms[0][1])
        fld = self.ring.field
        acc = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                prod = fld.mul(c1, c2)
                if e in acc:
                    acc[e] = fld.add(acc[e], prod)
                else:
                    acc[e] = prod
        return poly_from_dict(self.ring, acc)

    __rmul__ = __mul__

    def scale(self, c):
        fld = self.ring.field
        if not c:
            return self.ring.zero()
        return Polynomial(self.ring, tuple((e, fld.mul(k, c)) for e, k in self.terms))

    def term_mul(self, exp, coeff):
        """Multiply by the single term coeff * x^exp."""
        fld = self.ring.field
        return Polynomial(
            self.ring,
            tuple(
                (tuple(a + b for a, b in zip(e, exp)), fld.mul(c, coeff))
                for e, c in self.terms
            ),
        )

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = self._hash = hash((self.ring, self.terms))
            return h

    # -- leading data under an order --------------------------------------

    def leading(self, order):
        """(exponent, coefficient) of the leading term under `order`."""
        if not self.terms:
            raise ValueError("leading term of zero")
        lead = _packed_run(order.packing(self.ring.nvars),
                           lambda packing: self._packed(packing)[1])
        return self.terms[lead]

    def _packed(self, packing):
        """(the terms as (K, coefficient) pairs in storage order, index of
        the leading term) under `packing`, computed once per packing.
        Raises PackingOverflow when an exponent does not fit."""
        try:
            packs = self._packs
        except AttributeError:
            packs = self._packs = {}
        entry = packs.get(packing)
        if entry is None:
            encode = packing.encode
            entry = packs[packing] = _pack_entry([encode(e) for e, _ in self.terms],
                                                 [c for _, c in self.terms])
        return entry

    # -- substitution / transport ------------------------------------------

    def embed(self, ring: PolynomialRing, before: int = 0) -> "Polynomial":
        """This polynomial in `ring`, whose variables are `before` others,
        then this polynomial's ring's variables, then others: each exponent
        vector is padded with zeros. Padding keeps the storage order, so
        the terms are not sorted again."""
        front = (0,) * before
        back = (0,) * (ring.nvars - before - self.ring.nvars)
        return Polynomial(ring, tuple((front + e + back, c) for e, c in self.terms))

    def map_vars(self, target_ring: PolynomialRing, images) -> "Polynomial":
        """Image under x_i -> images[i], coefficients carried along.

        `images` are Polynomials in target_ring (or field constants).
        Fields of the two rings must agree.
        """
        if target_ring.field != self.ring.field:
            raise ValueError("field mismatch in map_vars")
        out = target_ring.zero()
        for e, c in self.terms:
            piece = target_ring.const(c)
            for i, k in enumerate(e):
                if k:
                    img = images[i]
                    if not isinstance(img, Polynomial):
                        img = target_ring.const(img)
                    piece = piece * (img ** k)
            out = out + piece
        return out

    def eval_at(self, point):
        """Evaluate at a tuple of field elements."""
        fld = self.ring.field
        total = fld.zero
        for e, c in self.terms:
            v = c
            for i, k in enumerate(e):
                if k:
                    base = point[i]
                    for _ in range(k):
                        v = fld.mul(v, base)
            total = fld.add(total, v)
        return total

    def derivative(self, i: int) -> "Polynomial":
        fld = self.ring.field
        acc = {}
        for e, c in self.terms:
            if e[i]:
                ne = tuple(x - 1 if j == i else x for j, x in enumerate(e))
                acc[ne] = fld.add(acc.get(ne, fld.zero), fld.mul(c, fld.of(e[i])))
        return poly_from_dict(self.ring, acc)

    # -- printing ------------------------------------------------------------

    def __repr__(self):
        return poly_str(self)


def poly_str(f: Polynomial) -> str:
    if not f.terms:
        return "0"
    parts = []
    for e, c in f.terms:
        factors = []
        for i, k in enumerate(e):
            if k == 1:
                factors.append(f.ring.vars[i])
            elif k > 1:
                factors.append(f"{f.ring.vars[i]}^{k}")
        mono = "*".join(factors)
        if not mono:
            piece = str(c)
        elif c == f.ring.field.one:
            piece = mono
        elif f.ring.field.char == 0 and c == -1:
            piece = f"-{mono}"
        else:
            piece = f"{c}*{mono}"
        parts.append(piece)
    out = parts[0]
    for piece in parts[1:]:
        out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
    return out


# -- parsing -----------------------------------------------------------------

class PolyParseError(ValueError):
    pass


def parse_poly(ring: PolynomialRing, text: str) -> Polynomial:
    """Parse `x^2*y - 3/4*z + 1` style expressions into a Polynomial.
    Raises PolyParseError on bad input, also on parentheses nested deeper
    than the interpreter's recursion limit lets the parser descend."""
    tokens = _tokenize(text)
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def take(expected=None):
        tok = peek()
        if tok is None:
            raise PolyParseError(f"unexpected end of input in {text!r}")
        if expected is not None and tok != expected:
            raise PolyParseError(f"expected {expected!r}, got {tok!r} in {text!r}")
        pos[0] += 1
        return tok

    def parse_atom():
        tok = peek()
        if tok == "(":
            take()
            f = parse_sum()
            take(")")
        elif tok is not None and tok[0].isdigit():
            take()
            f = ring.const(ring.field.of(int(tok)))
        elif tok is not None and (tok[0].isalpha() or tok[0] == "_"):
            take()
            if tok not in ring.vars:
                raise PolyParseError(f"unknown variable {tok!r}")
            f = ring.var_named(tok)
        else:
            raise PolyParseError(f"unexpected token {tok!r} in {text!r}")
        if peek() == "^":
            take()
            n = take()
            if not n.isdigit():
                raise PolyParseError(f"bad exponent {n!r}")
            f = f ** int(n)
        return f

    def parse_product():
        f = parse_atom()
        while peek() in ("*", "/"):
            op = take()
            g = parse_atom()
            if op == "*":
                f = f * g
            else:
                if not g.is_constant() or g.is_zero():
                    raise PolyParseError("division only by nonzero constants")
                f = f.scale(ring.field.inv(g.constant_value()))
        return f

    def parse_sum():
        sign = 1
        while peek() in ("+", "-"):
            if take() == "-":
                sign = -sign
        f = parse_product()
        if sign < 0:
            f = -f
        while peek() in ("+", "-"):
            op = take()
            sign = 1 if op == "+" else -1
            while peek() in ("+", "-"):
                if take() == "-":
                    sign = -sign
            g = parse_product()
            f = f + g if sign > 0 else f - g
        return f

    try:
        result = parse_sum()
    except RecursionError:
        raise PolyParseError("parentheses nested too deeply") from None
    if pos[0] != len(tokens):
        raise PolyParseError(f"trailing tokens {tokens[pos[0]:]} in {text!r}")
    return result


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*/^()":
            tokens.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(text[i:j])
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] in "_~"):
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise PolyParseError(f"bad character {ch!r} in {text!r}")
    return tokens
