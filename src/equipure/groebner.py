"""Buchberger's algorithm and multivariate division.

The pair queue is a heap under the normal selection strategy (smallest
lcm in the active order, ties broken by index), with Buchberger's two
classical criteria: the coprime leading-term criterion and the chain
criterion.
Output is always the unique reduced Groebner basis, sorted by leading
monomial, so repeated runs are byte-identical.

Each engine's public entry point (`buchberger` here,
`modules.module_buchberger`, `parametric.param_buchberger`) and
`ideals.IdealHandle.contains` compute a result once per process: `_memoized`
stores it under a key holding the full content of the inputs, and an
identical later call gets the stored result back. Every engine is
deterministic, so a stored result is what recomputation would return.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .orders import exp_coprime, exp_div, exp_divides, exp_lcm, exp_mul
from .poly import Polynomial, PolynomialRing, poly_from_dict


# key -> result, for the life of the process; see `_memoized`
_MEMO = {}


def _memoized(key, compute, reuse=None):
    """The result stored under `key`, or `compute()` stored under it.

    A key holds the full content of a computation's inputs, so equal keys
    mean equal results. `reuse(stored)`, when given, decides whether a
    stored result may be returned; when it says no, the result is computed
    afresh and replaces the stored one. A computation that raises stores
    nothing. Private, so that a tracer wrapping public functions leaves it
    unwrapped and a hit's time stays with the entry point that made it."""
    stored = _MEMO.get(key)
    if stored is not None and (reuse is None or reuse(stored)):
        return stored
    stored = _MEMO[key] = compute()
    return stored


def _neg_key(key):
    """Negate an order key entry by entry, so that heapq (a min-heap) pops
    the biggest monomial first. All keys of one order have the same shape,
    so the negation exactly reverses their comparison."""
    if type(key) is int:
        return -key
    return tuple([-k if type(k) is int else _neg_key(k) for k in key])


def normal_form(f: Polynomial, basis, order, track=False):
    """Remainder of f under multivariate division by `basis`.

    Fully reduced: no remainder term is divisible by any leading term of the
    basis. Terms are popped largest-first from a heap of negated order keys
    (Monagan & Pearce); a term enters the heap when its exponent enters the
    working dict, and a popped exponent no longer in that dict was cancelled
    and is skipped. With track=True also returns quotients q with
    f == sum(q_i * g_i) + r exactly.
    """
    ring = f.ring
    fld = ring.field
    if not basis:
        return (f, []) if track else f
    lead = {i: g.leading(order) for i, g in enumerate(basis) if not g.is_zero()}
    if not lead:
        return (f, [ring.zero() for _ in basis]) if track else f
    ordered = sorted(lead, key=lambda i: (order.key(lead[i][0]), basis[i].terms))
    work = dict(f.terms)
    heap = [(_neg_key(order.key(e)), e) for e in work]
    heapify(heap)
    remainder = {}
    quotients = [dict() for _ in basis] if track else None
    while heap:
        exp = heappop(heap)[1]
        coeff = work.pop(exp, None)
        if not coeff:
            continue
        hit = None
        for i in ordered:
            lexp, lcoeff = lead[i]
            if exp_divides(lexp, exp):
                hit = (i, lexp, lcoeff)
                break
        if hit is None:
            remainder[exp] = fld.add(remainder.get(exp, fld.zero), coeff)
            continue
        i, lexp, lcoeff = hit
        mult_exp = exp_div(exp, lexp)
        mult_coeff = fld.div(coeff, lcoeff)
        if track:
            q = quotients[i]
            q[mult_exp] = fld.add(q.get(mult_exp, fld.zero), mult_coeff)
        for e, c in basis[i].terms:
            if e == lexp:
                continue
            ne = exp_mul(e, mult_exp)
            delta = fld.mul(c, mult_coeff)
            cur = work.get(ne)
            new = fld.sub(fld.zero if cur is None else cur, delta)
            if new:
                if cur is None:
                    heappush(heap, (_neg_key(order.key(ne)), ne))
                work[ne] = new
            elif cur is not None:
                del work[ne]
    r = poly_from_dict(ring, remainder)
    if track:
        return r, [poly_from_dict(ring, q) for q in quotients]
    return r


def s_polynomial(f: Polynomial, g: Polynomial, order) -> Polynomial:
    fe, fc = f.leading(order)
    ge, gc = g.leading(order)
    lcm = exp_lcm(fe, ge)
    fld = f.ring.field
    left = f.term_mul(exp_div(lcm, fe), fld.inv(fc))
    right = g.term_mul(exp_div(lcm, ge), fld.inv(gc))
    return left - right


def buchberger(generators, order, ring: PolynomialRing = None,
               strategy: str = "normal"):
    """The unique reduced Groebner basis of the given generators.

    `strategy` picks the next pair: "normal" takes the smallest lcm in the
    active order; "sugar" orders by the classical sugar degree first. The
    output basis is identical either way (it is the reduced basis); only the
    route differs.

    Computed once per process for each (generators, order, strategy); the
    generators are keyed as Polynomials, which compare by ring and terms, so
    `ring` adds nothing to the key and does not enter the result.
    """
    if strategy not in ("normal", "sugar"):
        raise ValueError(f"unknown selection strategy {strategy!r}")
    gens = tuple(generators)
    key = ("buchberger", gens, order, strategy)
    return list(_memoized(key, lambda: tuple(_buchberger(gens, order, strategy))))


def _buchberger(generators, order, strategy):
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return []
    basis = list(gens)
    sugars = [g.total_degree() for g in basis]
    leads = [g.leading(order)[0] for g in basis]

    def pair_sugar(i, j):
        lcm = exp_lcm(leads[i], leads[j])
        return max(sugars[i] + sum(lcm) - sum(leads[i]),
                   sugars[j] + sum(lcm) - sum(leads[j]))

    def pair_sort_key(pair):
        i, j = pair
        lcm_key = order.key(exp_lcm(leads[i], leads[j]))
        if strategy == "sugar":
            return (pair_sugar(i, j), lcm_key, i, j)
        return (lcm_key, i, j)

    # the heap orders the pairs; `pending` answers the chain criterion's
    # membership tests
    pending = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    heap = [pair_sort_key(p) for p in pending]
    heapify(heap)
    while heap:
        i, j = heappop(heap)[-2:]
        pending.discard((i, j))
        li, lj = leads[i], leads[j]
        if exp_coprime(li, lj):
            continue
        lcm_ij = exp_lcm(li, lj)
        chain = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if not exp_divides(leads[k], lcm_ij):
                continue
            if (min(i, k), max(i, k)) in pending:
                continue
            if (min(j, k), max(j, k)) in pending:
                continue
            chain = True
            break
        if chain:
            continue
        s_sugar = pair_sugar(i, j)
        s = s_polynomial(basis[i], basis[j], order)
        r = normal_form(s, basis, order)
        if r.is_zero():
            continue
        basis.append(r)
        leads.append(r.leading(order)[0])
        sugars.append(max(s_sugar, r.total_degree()))
        new = len(basis) - 1
        for k in range(new):
            pending.add((k, new))
            heappush(heap, pair_sort_key((k, new)))
    return reduce_basis(basis, order)


def reduce_basis(basis, order):
    """Inter-reduce to the unique reduced (auto-reduced, monic) basis."""
    basis = [g for g in basis if not g.is_zero()]
    if not basis:
        return []
    # A nonzero constant makes it the unit ideal.
    for g in basis:
        if g.is_constant():
            return [g.ring.one()]
    leads = [g.leading(order)[0] for g in basis]
    keep = []
    for i in range(len(basis)):
        dominated = False
        for j in range(len(basis)):
            if i == j:
                continue
            if exp_divides(leads[j], leads[i]) and (
                leads[j] != leads[i] or j < i
            ):
                dominated = True
                break
        if not dominated:
            keep.append(i)
    minimal = [basis[i] for i in keep]
    reduced = []
    for i, g in enumerate(minimal):
        others = [h for j, h in enumerate(minimal) if j != i]
        r = normal_form(g, others, order) if others else g
        if not r.is_zero():
            reduced.append(r.monic(order))
    reduced.sort(key=lambda g: (order.key(g.leading(order)[0]), g.terms))
    return reduced


def is_groebner(basis, order) -> bool:
    """Direct Buchberger-criterion check: every S-polynomial reduces to 0."""
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            s = s_polynomial(basis[i], basis[j], order)
            if not normal_form(s, basis, order).is_zero():
                return False
    return True
