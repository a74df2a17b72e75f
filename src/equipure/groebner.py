"""Buchberger's algorithm and multivariate division.

The pair queue is a heap under the normal selection strategy (smallest
lcm in the active order, ties broken by index), with Buchberger's two
classical criteria: the coprime leading-term criterion and the chain
criterion.
Output is always the unique reduced Groebner basis, sorted by leading
monomial, so repeated runs are byte-identical. Division, S-polynomials, the
criteria and inter-reduction run on packed monomials (`orders.Packing`); the
module engine runs the same packed loops.

Each engine's public entry point (`buchberger` here,
`modules.module_buchberger`, `parametric.param_buchberger`) and
`ideals.IdealHandle.contains` compute a result once per process: `_memoized`
stores it under a key holding the full content of the inputs, and an
identical later call gets the stored result back. Every engine is
deterministic, so a stored result is what recomputation would return.
"""

from __future__ import annotations

from bisect import insort
from heapq import heapify, heappop, heappush

from .orders import PackingOverflow, _packed_run, exp_div, exp_lcm
from .poly import Polynomial, PolynomialRing, _poly_from_packed


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


def normal_form(f: Polynomial, basis, order, track=False):
    """Remainder of f under multivariate division by `basis`.

    Fully reduced: no remainder term is divisible by any leading term of the
    basis. With track=True also returns quotients q with
    f == sum(q_i * g_i) + r exactly. The division runs on packed monomials;
    see `_reduce`.
    """
    ring = f.ring
    if not basis:
        return (f, []) if track else f
    if all(g.is_zero() for g in basis):
        return (f, [ring.zero() for _ in basis]) if track else f

    def run(packing):
        divisors = sorted(_divisor(g, i, packing) for i, g in enumerate(basis) if g.terms)
        work = dict(f._packed(packing)[0])
        quotients = [dict() for _ in basis] if track else None
        r = _poly_from_packed(ring, packing, _reduce(work, divisors, packing, ring.field,
                                                     quotients))
        if track:
            return r, [_poly_from_packed(ring, packing, q) for q in quotients]
        return r

    return _packed_run(order.packing(ring.nvars), run)


def _divisor(g, i, packing):
    """Entry of basis element i in a sorted divisor list: divisors are tried
    smallest leading term first, ties broken by terms, then by index. The
    entry carries what `_reduce` needs: K(lead) - one, the leading
    coefficient, the other packed terms and the leading coefficient's
    inverse."""
    pterms, lead = g._packed(packing)
    klead, lc = pterms[lead]
    return (klead, g.terms, i, klead - packing.one, lc,
            pterms[:lead] + pterms[lead + 1:], g.ring.field.inv(lc))


def _reduce(work, divisors, packing, fld, quotients=None):
    """Fully reduce the packed dict `work` (K -> coefficient, emptied on the
    way) by `divisors` (see `_divisor`); the packed remainder.

    Terms are popped largest-first from a heap of -K (Monagan & Pearce); a
    term enters the heap when its K enters the working dict, and a popped K
    no longer in that dict was cancelled and is skipped. The first divisor
    whose leading term divides the popped one is used; the quotient's K is
    the difference D of the divisibility test, and its terms land at
    K + D - one. `quotients[i]`, when given, collects divisor i's
    multipliers."""
    one, guard, mask = packing.one, packing.guard, packing.divmask
    zero = fld.zero
    heap = [-k for k in work]
    heapify(heap)
    remainder = {}
    while heap:
        k = -heappop(heap)
        coeff = work.pop(k, None)
        if not coeff:
            continue
        for entry in divisors:
            d = k - entry[3]
            if not d & mask:
                break
        else:
            remainder[k] = fld.add(remainder.get(k, zero), coeff)
            continue
        mc = fld.mul(coeff, entry[6])
        if quotients is not None:
            q = quotients[entry[2]]
            q[d] = fld.add(q.get(d, zero), mc)
        shift = d - one
        for ke, c in entry[5]:
            ne = ke + shift
            delta = fld.mul(c, mc)
            cur = work.get(ne)
            if cur is None:
                if ne & guard:
                    raise PackingOverflow("a product leaves its fields")
                heappush(heap, -ne)
                work[ne] = fld.sub(zero, delta)
            else:
                new = fld.sub(cur, delta)
                if new:
                    work[ne] = new
                else:
                    del work[ne]
    return remainder


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
    return _packed_run(order.packing(gens[0].ring.nvars),
                       lambda packing: _packed_buchberger(gens, order, packing, strategy))


def _packed_buchberger(gens, order, packing, strategy):
    ring = gens[0].ring
    fld = ring.field
    guard = packing.guard
    basis = []
    sugars = []
    leads = []      # leading exponent vectors
    supports = []   # bit v set when variable v divides the lead
    entries = []    # the divisor entry of each basis element, see `_divisor`
    divisors = []   # the same entries, sorted

    def add(g, sugar):
        lexp = g.terms[g._packed(packing)[1]][0]
        entry = _divisor(g, len(basis), packing)
        basis.append(g)
        sugars.append(sugar)
        leads.append(lexp)
        supports.append(sum(1 << v for v, e in enumerate(lexp) if e))
        entries.append(entry)
        insort(divisors, entry)

    def pair(i, j):
        lcm = tuple(map(max, leads[i], leads[j]))
        klcm = packing.encode(lcm)
        deg = sum(lcm)
        sugar = max(sugars[i] + deg - sum(leads[i]), sugars[j] + deg - sum(leads[j]))
        if strategy == "sugar":
            return (sugar, klcm, i, j)
        return (klcm, i, j, sugar)

    for g in gens:
        add(g, g.total_degree())
    # the heap orders the pairs; `pending` answers the chain criterion's
    # membership tests
    pending = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    heap = [pair(i, j) for i, j in pending]
    heapify(heap)
    while heap:
        item = heappop(heap)
        if strategy == "sugar":
            s_sugar, klcm, i, j = item
        else:
            klcm, i, j, s_sugar = item
        pending.discard((i, j))
        if not supports[i] & supports[j]:
            continue
        chain = False
        for k, entry in enumerate(entries):
            if k == i or k == j or (klcm - entry[3]) & guard:
                continue
            if (min(i, k), max(i, k)) in pending:
                continue
            if (min(j, k), max(j, k)) in pending:
                continue
            chain = True
            break
        if chain:
            continue
        work = _s_work(entries[i], entries[j], klcm, packing, fld)
        rem = _reduce(work, divisors, packing, fld)
        if not rem:
            continue
        r = _poly_from_packed(ring, packing, rem)
        add(r, max(s_sugar, r.total_degree()))
        new = len(basis) - 1
        for k in range(new):
            pending.add((k, new))
            heappush(heap, pair(k, new))
    return _reduce_basis(basis, packing, order)


def _s_work(fentry, gentry, klcm, packing, fld):
    """The packed S-polynomial of two divisor entries (see `_divisor`) with
    lcm K `klcm`, as a working dict: the other terms of f moved up to the
    lcm over f's leading coefficient, minus those of g over g's. The
    leading terms cancel and are left out."""
    guard = packing.guard
    work = {}
    shift = klcm - fentry[3] - packing.one
    inv = fentry[6]
    for k, c in fentry[5]:
        ne = k + shift
        if ne & guard:
            raise PackingOverflow("a product leaves its fields")
        work[ne] = fld.mul(c, inv)
    zero = fld.zero
    shift = klcm - gentry[3] - packing.one
    inv = gentry[6]
    for k, c in gentry[5]:
        ne = k + shift
        if ne & guard:
            raise PackingOverflow("a product leaves its fields")
        new = fld.sub(work.get(ne, zero), fld.mul(c, inv))
        if new:
            work[ne] = new
        else:
            work.pop(ne, None)
    return work


def _inter_reduce(entries, packing, fld):
    """The packed terms of the reduced basis of divisor entries:
    entries whose leading term another one divides are dropped (the later
    one of two equal leads), each survivor is reduced by the others and
    made monic."""
    mask = packing.divmask
    keep = sorted(
        e for e in entries
        if not any(d is not e and not (e[0] - d[3]) & mask
                   and (d[0] != e[0] or d[2] < e[2]) for d in entries))
    out = []
    for entry in keep:
        work = dict(entry[5])
        work[entry[0]] = entry[4]
        others = [d for d in keep if d is not entry]
        rem = _reduce(work, others, packing, fld) if others else work
        if not rem:
            continue
        lc = rem[max(rem)]
        if lc != fld.one:
            inv = fld.inv(lc)
            rem = {k: fld.mul(c, inv) for k, c in rem.items()}
        out.append(rem)
    return out


def reduce_basis(basis, order):
    """Inter-reduce to the unique reduced (auto-reduced, monic) basis."""
    basis = [g for g in basis if not g.is_zero()]
    if not basis:
        return []
    return _packed_run(order.packing(basis[0].ring.nvars),
                       lambda packing: _reduce_basis(basis, packing, order))


def _reduce_basis(basis, packing, order):
    # A nonzero constant makes it the unit ideal.
    for g in basis:
        if g.is_constant():
            return [g.ring.one()]
    ring = basis[0].ring
    reduced = [_poly_from_packed(ring, packing, rem) for rem in _inter_reduce(
        [_divisor(g, i, packing) for i, g in enumerate(basis)], packing, ring.field)]
    # the output order is stated by the order's key, at the boundary
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
