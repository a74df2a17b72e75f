"""Buchberger's algorithm and multivariate division.

One pair loop, `_pair_loop`, serves the three Groebner engines: the ideal
engine here, `modules.module_buchberger` and `parametric.param_buchberger`.
It takes pairs from a heap under the normal selection strategy (smallest
lcm in the active order, ties broken by index), keeps the sorted divisor
list as the basis grows, and forms no pair of leading terms in different
module positions, applying Gebauer & Moller's coprime and chain criteria as
each caller asks. The ideal and module engines share one Buchberger driver,
`_basis` (the loop with the chain criterion, the coprime one for ideals
only, as it is not sound for modules, then inter-reduction), and one
division driver, `_divide`; each engine passes in how an element becomes a
divisor entry and how a packed remainder becomes an element. The
parametric engine runs the loop under a pair budget with its own division.
The checker `is_groebner` runs the loop with both criteria and stops at
the first S-polynomial that leaves a remainder.
Ideal output is always the unique reduced Groebner basis, sorted by leading
monomial, so repeated runs are byte-identical. Division, S-polynomials, the
criteria and inter-reduction run on packed monomials (`orders.Packing`).

These compute a result once per process: the ideal and module engines'
entry points (`buchberger` here, `modules.module_buchberger`),
`ideals.IdealHandle.contains`, `ideals.radical_membership`, the
tight-closure level test `charp._level_inside`, and the scheme layer above
them:
`schemes.decompose_components`, `fiber` and `fiber_dim_at`, and
`factorization.verify_equidimensional_at` and `build_factorization`.
`_memoized` stores a result under a key holding the full content of the
inputs, and an identical later call gets the stored result back, or its
own copy where a caller could change it. Every computation is
deterministic, so a stored result is what recomputation would return.
Algebras, morphisms and points enter keys by their `key`, their content
without names (see `schemes`), and a key holds every name the stored
result records: a factorization's key holds the names its induced map is
built from, and results that would record the caller's objects, as a
fiber or a certificate does, are rebuilt around them instead.
The parametric engine, `parametric.param_buchberger`, stores nothing: its
oracle has effects, the fibers that call it are stored, and a
factorization runs each fiber-level check once.
"""

from __future__ import annotations

from bisect import insort
from heapq import heapify, heappop, heappush

from .errors import ParamBudgetError
from .orders import PackingOverflow, _packed_run
from .poly import Polynomial, _poly_from_packed


# key -> result, for the life of the process; see `_memoized`
_MEMO = {}


def _memoized(key, compute):
    """The result stored under `key`, or `compute()` stored under it.

    A key holds the full content of a computation's inputs, so equal keys
    mean equal results. A computation that raises stores nothing. Private,
    so that a tracer wrapping public functions leaves it unwrapped and a
    hit's time stays with the entry point that made it."""
    stored = _MEMO.get(key)
    if stored is None:
        stored = _MEMO[key] = compute()
    return stored


def normal_form(f: Polynomial, basis, order, track=False):
    """Remainder of f under multivariate division by `basis`.

    Fully reduced: no remainder term is divisible by any leading term of the
    basis. With track=True also returns quotients q with
    f == sum(q_i * g_i) + r exactly. The division runs on packed monomials;
    see `_divide`.
    """
    ring = f.ring
    return _packed_run(order.packing(ring.nvars), lambda packing: _divide(
        dict(f._packed(packing)[0]), basis, Polynomial.is_zero, packing, ring, _divisor,
        lambda rem: _poly_from_packed(ring, packing, rem), track))


def _divide(work, basis, is_zero, packing, ring, divisor, rebuild, track):
    """The division driver of the ideal and module engines: `rebuild` of the
    packed remainder of the working dict `work` (K -> coefficient) by the
    elements of `basis` that are not `is_zero`, whose divisor entries
    `divisor` makes (see `_divisor`). With `track`, the pair (remainder,
    quotients): one Polynomial quotient for each element of `basis`, zero
    for a zero element."""
    divisors = sorted(divisor(g, i, packing) for i, g in enumerate(basis) if not is_zero(g))
    quotients = [dict() for _ in basis] if track else None
    r = rebuild(_reduce(work, divisors, packing, ring.field, quotients))
    if track:
        return r, [_poly_from_packed(ring, packing, q) for q in quotients]
    return r


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


def buchberger(generators, order):
    """The unique reduced Groebner basis of the given generators.

    Computed once per process for each (generators, order); the generators
    are keyed as Polynomials, which compare by ring and terms.
    """
    gens = tuple(generators)
    key = ("buchberger", gens, order)
    return list(_memoized(key, lambda: tuple(_buchberger(gens, order))))


def _buchberger(generators, order):
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return []
    ring = gens[0].ring
    reduced = _packed_run(order.packing(ring.nvars), lambda packing: _basis(
        gens, packing, ring.field, _divisor, lambda rem: _poly_from_packed(ring, packing, rem),
        coprime=True))
    # the output order is stated by the order's key, at the boundary
    reduced.sort(key=lambda g: (order.key(g.leading(order)[0]), g.terms))
    return reduced


def _basis(elements, packing, fld, divisor, rebuild, coprime):
    """The Buchberger driver of the ideal and module engines: the reduced
    Groebner basis of the nonzero `elements`, unsorted. `_pair_loop` runs
    with the chain criterion, and the coprime one when `coprime`; `_reduce`
    divides each S-polynomial by the basis so far, and `_inter_reduce`
    reduces what the loop ends with, so generators holding a constant end
    as the basis [1]. `divisor(element, index, packing)` makes an
    element's divisor entry (see `_divisor`) and `rebuild` an element of a
    packed dict."""
    def step(fentry, gentry, klcm, divisors, index):
        rem = _reduce(_s_work(fentry, gentry, klcm, packing, fld), divisors, packing, fld)
        if rem:
            return divisor(rebuild(rem), index, packing)

    entries = _pair_loop([divisor(e, i, packing) for i, e in enumerate(elements)], packing,
                         step, coprime=coprime, chain=True)
    return [rebuild(rem) for rem in _inter_reduce(entries, packing, fld)]


def _pair_loop(entries, packing, step, coprime=False, chain=False, budget=None):
    """Buchberger's pair loop over the divisor entries of a basis (see
    `_divisor`); the entries of the basis it ends with, index order.

    Pairs wait in a heap keyed (K(lcm), i, j): the smallest lcm in the order
    goes first, ties broken by index. Two leading terms in different module
    positions form no pair. The criteria are Gebauer & Moller's: `coprime`
    skips a pair whose leading terms share no variable; `chain` skips a pair
    (i, j) when some other leading term k divides its lcm and neither (i, k)
    nor (j, k) is still waiting. `budget`, when given, bounds the pairs
    popped, skipped ones included. `step(fentry, gentry, klcm, divisors,
    index)` reduces the S-polynomial of a pair by `divisors`, the entries in
    sorted order, and returns the entry of a new basis element with index
    `index`, or None."""
    mask = packing.divmask
    decode = packing.decode
    basis, divisors, supports = [], [], []
    pending = set()     # the waiting pairs, for the chain criterion
    heap = []

    def add(entry):
        new = len(basis)
        kn = entry[0]
        for k, other in enumerate(basis):
            if not (other[0] ^ kn) & mask:
                pending.add((k, new))
                heappush(heap, (packing.lcm(other[0], kn), k, new))
        basis.append(entry)
        insort(divisors, entry)
        # bit v set when variable v divides the lead
        supports.append(sum(1 << v for v, e in enumerate(decode(kn)) if e))

    for entry in entries:
        add(entry)
    popped = 0
    while heap:
        klcm, i, j = heappop(heap)
        popped += 1
        if budget is not None and popped > budget:
            raise ParamBudgetError("parametric Buchberger budget exceeded")
        pending.discard((i, j))
        if coprime and not supports[i] & supports[j]:
            continue
        if chain and _chained(basis, pending, i, j, klcm, mask):
            continue
        entry = step(basis[i], basis[j], klcm, divisors, len(basis))
        if entry is not None:
            add(entry)
    return basis


def _chained(entries, pending, i, j, klcm, mask):
    """The chain criterion for pair (i, j) with lcm K `klcm`."""
    for k, entry in enumerate(entries):
        if k == i or k == j or (klcm - entry[3]) & mask:
            continue
        if (min(i, k), max(i, k)) in pending or (min(j, k), max(j, k)) in pending:
            continue
        return True
    return False


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


def _minimal(entries, packing):
    """The divisor entries whose leading term no other entry's divides; of
    two equal leading terms, the later one goes."""
    mask = packing.divmask
    return [e for e in entries
            if not any(d is not e and not (e[0] - d[3]) & mask
                       and (d[0] != e[0] or d[2] < e[2]) for d in entries)]


def _inter_reduce(entries, packing, fld):
    """The packed terms of the reduced basis of divisor entries: the
    minimal entries (see `_minimal`), each reduced by the others and made
    monic."""
    keep = sorted(_minimal(entries, packing))
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


class _NotGroebner(Exception):
    """An S-polynomial left a nonzero remainder; ends `is_groebner`'s loop."""


def is_groebner(basis, order) -> bool:
    """Whether `basis` is a Groebner basis: the S-polynomial of every pair
    that `_pair_loop` does not skip by the coprime or the chain criterion
    reduces to 0. Buchberger's algorithm with both criteria ends with a
    Groebner basis, so a loop that adds no element proves the input is one;
    the first nonzero remainder proves it is not."""
    if any(g.is_zero() for g in basis):
        raise ValueError("leading term of zero")
    if not basis:
        return True
    fld = basis[0].ring.field

    def run(packing):
        def step(fentry, gentry, klcm, divisors, index):
            if _reduce(_s_work(fentry, gentry, klcm, packing, fld), divisors, packing, fld):
                raise _NotGroebner

        try:
            _pair_loop([_divisor(g, i, packing) for i, g in enumerate(basis)], packing, step,
                       coprime=True, chain=True)
        except _NotGroebner:
            return False
        return True

    return _packed_run(order.packing(basis[0].ring.nvars), run)
