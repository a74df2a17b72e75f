"""Ideal handles and the operations layered on Groebner bases.

An IdealHandle owns a generator list; its reduced Groebner bases and its
membership and radical membership answers are stored for the process,
keyed by content (see `groebner`). Conventions, fixed once so nothing
downstream has to guess: the zero ideal's reduced basis is the empty list,
the unit ideal's is [1], and the unit ideal has dimension -1.

Intersection and radical membership adjoin a tag variable in front
(`Polynomial.embed`); radical membership first tries to decide from a
basis of the ideal alone, which settles, among others, a prime ideal
whose basis or generators are of pivot shape (`prime_by_pivots`).
Saturation iterates ideal quotients until stable.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

from .errors import EquipureError, RootSearchBudgetExceeded
from .groebner import _memoized, _stored_basis, buchberger, normal_form
from .orders import GREVLEX, MonomialOrder, block_order, exp_coprime, exp_divides, permuted_grevlex
from .poly import Polynomial, PolynomialRing


class IdealError(EquipureError):
    pass


class IdealHandle:
    def __init__(self, ring: PolynomialRing, generators):
        self.ring = ring
        gens = []
        for g in generators:
            if isinstance(g, Polynomial):
                if g.ring != ring:
                    raise IdealError("generator from a different ring")
                if not g.is_zero():
                    gens.append(g)
            else:
                raise IdealError("generators must be Polynomials")
        self.generators = tuple(gens)

    def __repr__(self):
        inner = ", ".join(map(str, self.generators)) or "0"
        return f"Ideal({inner})"

    def groebner(self, order: MonomialOrder = GREVLEX):
        basis = _stored_basis(self.generators, order)
        return list(basis) if basis is not None else buchberger(self.generators, order)

    def groebner_any(self):
        """(basis, order) for membership-style queries.

        Prefers the grevlex basis the process holds. Otherwise scans cyclic
        rotations of the grevlex variable priority for a generator set whose
        leading terms are pairwise coprime: such a set is its own Groebner
        basis by Buchberger's first criterion, which sidesteps expensive runs
        when the generators are bracket powers plus a single relation.
        """
        basis = _stored_basis(self.generators, GREVLEX)
        if basis is not None:
            return list(basis), GREVLEX
        n = self.ring.nvars
        if len(self.generators) > 1 and n > 1:
            for shift in range(n):
                perm = tuple((i + shift) % n for i in range(n))
                order = GREVLEX if shift == 0 else permuted_grevlex(perm)
                leads = [g.leading(order)[0] for g in self.generators]
                if all(exp_coprime(a, b) for a, b in itertools.combinations(leads, 2)):
                    return self.groebner(order), order
        return self.groebner(GREVLEX), GREVLEX

    # -- predicates -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.groebner()

    def is_unit(self) -> bool:
        gb = self.groebner()
        return bool(gb) and gb[0].is_constant()

    def contains(self, f: Polynomial) -> bool:
        """Ideal membership, decided once per process for each (ring,
        generators, f): any Groebner basis gives the same answer."""
        return _memoized(("contains", self.ring, self.generators, f),
                         lambda: self._contains(f))

    def _contains(self, f):
        if f.is_zero():
            return True
        basis, order = self.groebner_any()
        if not basis:
            return False
        return normal_form(f, basis, order).is_zero()

    def same_ideal(self, other: "IdealHandle") -> bool:
        return all(self.contains(g) for g in other.generators) and all(
            other.contains(g) for g in self.generators
        )

    def with_extra(self, extra) -> "IdealHandle":
        return IdealHandle(self.ring, list(self.generators) + list(extra))


# -- elimination -------------------------------------------------------------

def eliminate(handle: IdealHandle, front_vars) -> IdealHandle:
    """Generators of I intersected with k[remaining vars].

    `front_vars` are names or indices of the variables to eliminate; the
    result lives in the subring on the remaining variables.
    """
    ring = handle.ring
    front = _var_indices(ring, front_vars)
    if not front:
        return IdealHandle(ring, handle.generators)
    keep = [i for i in range(ring.nvars) if i not in front]
    sub = PolynomialRing(ring.field, [ring.vars[i] for i in keep])
    basis = handle.groebner(block_order(front))
    out = []
    for g in basis:
        if all(all(e[i] == 0 for i in front) for e, _ in g.terms):
            out.append(
                Polynomial(sub, tuple((tuple(e[i] for i in keep), c) for e, c in g.terms))
            )
    return IdealHandle(sub, out)


def _var_indices(ring, names_or_idx):
    out = set()
    for v in names_or_idx:
        out.add(v if isinstance(v, int) else ring.vars.index(v))
    return sorted(out)


# -- quotient and saturation --------------------------------------------------

def intersect(a: IdealHandle, b: IdealHandle) -> IdealHandle:
    """I cap J via the tag trick (t*I + (1-t)*J) cap k[x]."""
    ring = a.ring
    if b.ring != ring:
        raise IdealError("intersection across rings")
    (tname,) = ring.fresh_names("t~", 1)
    ext = ring.extend([tname], front=True)
    t = ext.var(0)
    gens = [t * g.embed(ext, 1) for g in a.generators]
    one_minus_t = ext.one() - t
    gens += [one_minus_t * g.embed(ext, 1) for g in b.generators]
    inter = eliminate(IdealHandle(ext, gens), [0])
    back = [Polynomial(ring, f.terms) for f in inter.generators]
    return IdealHandle(ring, back)


def exact_divide(f: Polynomial, g: Polynomial) -> Polynomial:
    """f / g when g divides f exactly."""
    r, quots = normal_form(f, [g], GREVLEX, track=True)
    if not r.is_zero():
        raise IdealError("division is not exact")
    return quots[0]


def ideal_quotient(handle: IdealHandle, f: Polynomial) -> IdealHandle:
    """(I : f) computed as (I cap (f)) / f."""
    if f.is_zero():
        raise IdealError("quotient by zero")
    if f.is_constant():
        return IdealHandle(handle.ring, handle.generators)
    inter = intersect(handle, IdealHandle(handle.ring, [f]))
    return IdealHandle(handle.ring, [exact_divide(g, f) for g in inter.generators])


def saturation(handle: IdealHandle, f: Polynomial):
    """(I : f^infinity) by stable quotient iteration.

    Returns (ideal, n) where n is the exponent at which
    (I : f^n) == (I : f^(n+1)).
    """
    if f.is_zero():
        raise IdealError("saturation by zero")
    current = handle
    n = 0
    while True:
        nxt = ideal_quotient(current, f)
        if tuple(nxt.groebner()) == tuple(current.groebner()):
            return current, n
        current = nxt
        n += 1


# -- radical membership -------------------------------------------------------

def prime_by_pivots(basis) -> bool:
    """True when every element of the nonempty `basis` has a pivot: a
    variable that occurs in that element only in one term c*x_i of degree
    one, and in no other element (so the pivots are distinct).

    Then each element is c*(x_i - p_i) with p_i free of every pivot, so
    k[x]/I is the polynomial ring on the other variables, a domain: the
    ideal is prime (Cox, Little & O'Shea, ch. 4 §5). The test is on the
    shape alone, so it holds for any generating set, Groebner or not."""
    if not basis:
        return False
    users = Counter(i for g in basis for i in g.support_vars())
    return all(any(users[i] == 1 and [sum(e) for e, _ in g.terms if e[i]] == [1]
                   for i in g.support_vars())
               for g in basis)


def radical_membership(f: Polynomial, handle: IdealHandle) -> bool:
    """f in sqrt(I), by the Rabinowitsch trick (Cox, Little & O'Shea, ch. 4
    §2) once a Groebner basis of I has not decided it already.

    A constant in that basis makes I the unit ideal: True. With y the
    variables the basis uses and z the others, f sharing no variable with
    it is a nonzero element of k[z] inside k[y,z]/I = (k[y]/I)[z], a
    polynomial ring over the nonzero ring k[y]/I; its coefficients are
    nonzero field elements, units there, so f is not nilpotent: False.
    f in I: True. A basis or a generating set of pivot shape
    (`prime_by_pivots`) makes I prime, so radical: f outside I is outside
    sqrt(I), False. Only the rest adjoins w and asks whether
    I + (1 - w*f) is the unit ideal. Decided once per process for each
    (ring, generators, f)."""
    return _memoized(("radical", handle.ring, handle.generators, f),
                     lambda: _radical_membership(f, handle))


def _radical_membership(f, handle):
    if f.is_zero():
        return True
    basis, _ = handle.groebner_any()
    if any(g.is_constant() for g in basis):
        return True
    if {i for g in basis for i in g.support_vars()}.isdisjoint(f.support_vars()):
        return False
    if handle.contains(f):
        return True
    if prime_by_pivots(basis) or prime_by_pivots(handle.generators):
        return False
    ring = handle.ring
    (wname,) = ring.fresh_names("w~", 1)
    ext = ring.extend([wname], front=True)
    gens = [g.embed(ext, 1) for g in handle.generators]
    gens.append(ext.one() - ext.var(0) * f.embed(ext, 1))
    return IdealHandle(ext, gens).is_unit()


# -- dimension ----------------------------------------------------------------

def krull_dim(handle: IdealHandle) -> int:
    """Dimension of V(I): -1 for the unit ideal, else the maximum size of a
    variable subset independent modulo the leading ideal (grevlex)."""
    gb = handle.groebner(GREVLEX)
    if gb and gb[0].is_constant():
        return -1
    return independent_dim([g.leading(GREVLEX)[0] for g in gb], handle.ring.nvars)


# -- leading-term readouts, for Polynomials and ParamPolys alike ---------------

def independent_dim(leads, n: int) -> int:
    """The largest size of a subset of the n variables that contains the
    support of no exponent in `leads`: the dimension read off the leading
    exponents of a Groebner basis of a proper ideal."""
    supports = [frozenset(i for i, e in enumerate(exp) if e) for exp in leads]
    for size in range(n, -1, -1):
        for combo in itertools.combinations(range(n), size):
            s = frozenset(combo)
            if all(not sup <= s for sup in supports):
                return size
    return 0


def pure_powers(basis, variables, order) -> dict:
    """Variable index -> (leading exponent, element) of the first element
    of `basis` whose leading exponent under `order` is a pure power of that
    variable, for each index in `variables` that has one: the monic
    equations a module-finiteness check reads off."""
    out = {}
    for g in basis:
        exp = g.leading(order)[0]
        nz = [i for i, k in enumerate(exp) if k]
        if len(nz) == 1 and nz[0] in variables and nz[0] not in out:
            out[nz[0]] = (exp, g)
    return out


def standard_exponents(leads, n: int, cap=None, most=None):
    """The exponent vectors of length n that no exponent in `leads`
    divides, sorted by grevlex: the standard monomials of a Groebner basis
    with those leading exponents. Without `cap` every variable must have a
    pure power among `leads`, which bounds its exponent; with `cap` a
    variable's exponent stays below cap and the total degree at most cap.
    With `most`, None as soon as more than `most` of them are found."""
    bounds = [min((e[i] for e in leads if not any(e[:i]) and not any(e[i + 1:])),
                  default=cap) for i in range(n)]
    if cap is not None:
        bounds = [min(b, cap) for b in bounds]
    found = (exps for exps in itertools.product(*map(range, bounds))
             if (cap is None or sum(exps) <= cap)
             and not any(exp_divides(lm, exps) for lm in leads))
    out = list(itertools.islice(found, None if most is None else most + 1))
    if most is not None and len(out) > most:
        return None
    out.sort(key=GREVLEX.key)
    return out


# -- univariate root hunting (used by the component splitter) ------------------

def linear_roots(f: Polynomial):
    """Roots in the ground field of a polynomial univariate in one variable.

    Returns (var_index, [roots]) or None when f is not univariate. Over a
    prime field all p values are tried; over Q, candidate rationals come from
    divisors of the cleared leading and constant coefficients, and
    RootSearchBudgetExceeded is raised when one of those is too large to
    factor within MAX_TRIAL_DIVISOR.
    """
    sup = f.support_vars()
    if len(sup) != 1:
        return None
    i = sup[0]
    fld = f.ring.field
    coeffs = {}
    for e, c in f.terms:
        coeffs[e[i]] = c
    deg = max(coeffs)
    roots = []
    if fld.char:
        for a in range(fld.char):
            val = sum(c * pow(a, k, fld.char) for k, c in coeffs.items()) % fld.char
            if val == 0:
                roots.append(a)
    else:
        denom_lcm = math.lcm(*(c.denominator for c in coeffs.values()))
        ints = {k: int(c * denom_lcm) for k, c in coeffs.items()}
        lead = ints[deg]
        const = ints.get(0, 0)
        if const == 0:
            roots.append(fld.zero)
            mink = min(k for k, c in ints.items() if c)
            ints = {k - mink: c for k, c in ints.items() if c}
            const = ints.get(0, 0)
            deg -= mink
        if const:
            for pn in _divisors(abs(const)):
                for qn in _divisors(abs(lead)):
                    for sign in (1, -1):
                        cand = fld.of(sign * pn, qn)
                        if cand in roots:
                            continue
                        val = sum(c * cand ** k for k, c in ints.items())
                        if val == 0:
                            roots.append(cand)
    return i, sorted(set(roots))


# the largest trial divisor `_divisors` tries: the budget of the rational
# root search in `linear_roots`
MAX_TRIAL_DIVISOR = 2000


def _divisors(n):
    """The positive divisors of n, found by trial division up to sqrt(n).
    Raises RootSearchBudgetExceeded when sqrt(n) is above MAX_TRIAL_DIVISOR."""
    if (MAX_TRIAL_DIVISOR + 1) ** 2 <= n:
        raise RootSearchBudgetExceeded(
            f"budget MAX_TRIAL_DIVISOR exhausted: the divisors of {n} "
            f"need trial division above {MAX_TRIAL_DIVISOR}")
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


# -- radical envelope ----------------------------------------------------------

def radical_envelope(handle: IdealHandle) -> IdealHandle:
    """A deterministic partial radical: adds variables and linear univariate
    factors that certify into sqrt(I). Not a full radical (factorization is
    out of scope); used to present component leaves as point ideals."""
    ring = handle.ring
    current = handle
    changed = True
    while changed:
        changed = False
        extra = []
        for i in range(ring.nvars):
            v = ring.var(i)
            if not current.contains(v) and radical_membership(v, current):
                extra.append(v)
        if extra:
            current = current.with_extra(extra)
            changed = True
            continue
        for g in current.groebner():
            hit = linear_roots(g)
            if hit is None:
                continue
            i, roots = hit
            for a in roots:
                lin = ring.var(i) - ring.const(a)
                if not current.contains(lin) and radical_membership(lin, current):
                    extra.append(lin)
            if extra:
                break
        if extra:
            current = current.with_extra(extra)
            changed = True
    return IdealHandle(ring, current.groebner())
