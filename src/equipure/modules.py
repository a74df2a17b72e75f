"""Groebner machinery for submodules of free modules over a polynomial ring.

Vectors are tuples of Polynomials. A module monomial is (position, exponent
vector); a ModuleOrder turns one into a sort key. Two order families cover
everything the package needs:

  * position-over-term with a leading block of positions dominating the
    rest (kernel computation via the graph trick), and
  * orders that compare a chosen variable sub-block first across all
    positions (coefficient restriction to a subring, i.e. module
    elimination).

The product criterion is not sound for modules, so module Buchberger runs
with no pair-skipping shortcuts. Its pending pairs sit in a heap keyed on
the lcm of leading terms that are computed once per basis vector, the
divisor list the normal form tries is kept sorted as the basis grows, and
the normal form pops terms largest-first from a heap, as in the ideal case.
"""

from __future__ import annotations

from bisect import insort
from heapq import heapify, heappop, heappush

from .groebner import _memoized, _neg_key
from .orders import GREVLEX, exp_div, exp_divides, exp_lcm, exp_mul
from .poly import PolynomialRing, poly_from_dict


class ModuleOrder:
    """Sort key on (position, exponent) pairs; bigger key = bigger monomial.

    The tag names the constructor and every parameter it was given, so two
    orders are equal, and hash alike, exactly when their tags are."""

    def __init__(self, keyfn, tag):
        self._keyfn = keyfn
        self.tag = tag

    def key(self, pos, exp):
        return self._keyfn(pos, exp)

    def __eq__(self, other):
        return isinstance(other, ModuleOrder) and self.tag == other.tag

    def __hash__(self):
        return hash(("ModuleOrder", self.tag))

    def __repr__(self):
        return f"ModuleOrder({self.tag})"


def pot_order(mono_order=GREVLEX) -> ModuleOrder:
    """Plain position-over-term: position 0 is the biggest."""
    return ModuleOrder(lambda pos, exp: (-pos, mono_order.key(exp)), f"pot,{mono_order!r}")


def graph_kernel_order(lead_positions: int, mono_order=GREVLEX) -> ModuleOrder:
    """Anything in the first `lead_positions` positions beats everything else;
    position-over-term within each class."""

    def keyfn(pos, exp):
        return (1 if pos < lead_positions else 0, -pos, mono_order.key(exp))

    return ModuleOrder(keyfn, f"graph<{lead_positions},{mono_order!r}")


def graph_kernel_elim_order(lead_positions: int, front_vars, nvars) -> ModuleOrder:
    """Graph-kernel order that additionally eliminates `front_vars` inside the
    trailing positions: leading-block monomials first, then monomials whose
    exponent touches the front variables, then position, then the rest."""
    front = tuple(sorted(front_vars))
    back = tuple(i for i in range(nvars) if i not in front)

    def keyfn(pos, exp):
        fpart = tuple(exp[i] for i in front)
        bpart = tuple(exp[i] for i in back)
        fkey = (sum(fpart), tuple(-e for e in reversed(fpart)))
        bkey = (sum(bpart), tuple(-e for e in reversed(bpart)))
        return (1 if pos < lead_positions else 0, fkey, -pos, bkey)

    return ModuleOrder(keyfn, f"graph-elim<{lead_positions},front{list(front)},nvars={nvars}")


# -- vector helpers ------------------------------------------------------------


def vec_zero(ring: PolynomialRing, rank: int):
    z = ring.zero()
    return tuple(z for _ in range(rank))


def vec_is_zero(v) -> bool:
    return all(f.is_zero() for f in v)


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_term_mul(v, exp, coeff):
    return tuple(f.term_mul(exp, coeff) for f in v)


def vec_scale(v, c):
    return tuple(f.scale(c) for f in v)


def vec_leading(v, order: ModuleOrder):
    """((pos, exp), coeff) of the leading module term."""
    best = None
    for pos, f in enumerate(v):
        for exp, c in f.terms:
            k = order.key(pos, exp)
            if best is None or k > best[0]:
                best = (k, pos, exp, c)
    if best is None:
        raise ValueError("leading term of zero vector")
    return (best[1], best[2]), best[3]


def _canonical_vec_key(v):
    return tuple(f.terms for f in v)


def _divisor(basis, leads, i, order):
    """Entry of basis vector i in a divisor list: divisors are tried
    smallest leading term first, ties broken by the vector's terms, then by
    index."""
    return (order.key(*leads[i][0]), _canonical_vec_key(basis[i])), i, leads[i]


def _divisors(basis, order):
    """The sorted divisor list of every nonzero vector of `basis`."""
    leads = {i: vec_leading(v, order) for i, v in enumerate(basis) if not vec_is_zero(v)}
    return sorted(_divisor(basis, leads, i, order) for i in leads)


def module_normal_form(v, basis, order: ModuleOrder, track=False, divisors=None):
    """Fully reduced normal form of vector v against module `basis`.

    `divisors` is the sorted divisor list of `basis` (see `_divisors`) when
    the caller already holds it. Terms are popped largest-first from a heap
    of (negated key, position, exponent) entries; a popped term no longer in
    the working dicts was cancelled and is skipped."""
    if vec_is_zero(v) or not basis:
        return (v, [None] * len(basis)) if track else v
    ring = v[0].ring
    fld = ring.field
    if divisors is None:
        divisors = _divisors(basis, order)
    rank = len(v)
    work = [dict(f.terms) for f in v]
    heap = [(_neg_key(order.key(pos, exp)), pos, exp)
            for pos in range(rank) for exp in work[pos]]
    heapify(heap)
    remainder = [dict() for _ in range(rank)]
    quotients = [dict() for _ in basis] if track else None

    while heap:
        _, pos, exp = heappop(heap)
        coeff = work[pos].pop(exp, None)
        if not coeff:
            continue
        hit = None
        for _, i, ((lpos, lexp), lcoeff) in divisors:
            if lpos == pos and exp_divides(lexp, exp):
                hit = (i, lexp, lcoeff)
                break
        if hit is None:
            remainder[pos][exp] = fld.add(remainder[pos].get(exp, fld.zero), coeff)
            continue
        i, lexp, lcoeff = hit
        mexp = exp_div(exp, lexp)
        mcoeff = fld.div(coeff, lcoeff)
        if track:
            q = quotients[i]
            q[mexp] = fld.add(q.get(mexp, fld.zero), mcoeff)
        for bpos, bpoly in enumerate(basis[i]):
            bwork = work[bpos]
            for e, c in bpoly.terms:
                if bpos == pos and e == lexp:
                    continue
                ne = exp_mul(e, mexp)
                delta = fld.mul(c, mcoeff)
                cur = bwork.get(ne)
                new = fld.sub(fld.zero if cur is None else cur, delta)
                if new:
                    if cur is None:
                        heappush(heap, (_neg_key(order.key(bpos, ne)), bpos, ne))
                    bwork[ne] = new
                elif cur is not None:
                    del bwork[ne]
    r = tuple(poly_from_dict(ring, d) for d in remainder)
    if track:
        return r, [poly_from_dict(ring, q) for q in quotients]
    return r


def module_buchberger(vectors, order: ModuleOrder, ring: PolynomialRing):
    """Reduced module Groebner basis. No product criterion (unsound for
    modules). Pairs are taken smallest `_pair_key` first from a heap.

    Computed once per process for each (vectors, order, ring); vectors are
    tuples of Polynomials, which compare by ring and terms."""
    vectors = tuple(tuple(v) for v in vectors)
    key = ("module_buchberger", vectors, order, ring)
    return list(_memoized(key, lambda: tuple(_module_buchberger(vectors, order, ring))))


def _module_buchberger(vectors, order, ring):
    basis = [v for v in vectors if not vec_is_zero(v)]
    if not basis:
        return []
    fld = ring.field
    leads = [vec_leading(v, order) for v in basis]
    divisors = sorted(_divisor(basis, leads, i, order) for i in range(len(basis)))
    pairs = [_pair_key(leads, i, j, order)
             for i in range(len(basis)) for j in range(i + 1, len(basis))]
    heapify(pairs)
    while pairs:
        i, j = heappop(pairs)[-2:]
        (pi, ei), ci = leads[i]
        (pj, ej), cj = leads[j]
        if pi != pj:
            continue
        lcm = exp_lcm(ei, ej)
        left = vec_term_mul(basis[i], exp_div(lcm, ei), fld.inv(ci))
        right = vec_term_mul(basis[j], exp_div(lcm, ej), fld.inv(cj))
        s = vec_sub(left, right)
        r = module_normal_form(s, basis, order, divisors=divisors)
        if vec_is_zero(r):
            continue
        basis.append(r)
        leads.append(vec_leading(r, order))
        new = len(basis) - 1
        insort(divisors, _divisor(basis, leads, new, order))
        for k in range(new):
            heappush(pairs, _pair_key(leads, k, new, order))
    return reduce_module_basis(basis, order, ring)


def _pair_key(leads, i, j, order):
    """Pairs in different positions have no S-vector and sort last; the rest
    sort by the key of their lcm, ties broken by index."""
    (pi, ei), _ = leads[i]
    (pj, ej), _ = leads[j]
    if pi != pj:
        return (1, i, j)
    return (0, order.key(pi, exp_lcm(ei, ej)), i, j)


def reduce_module_basis(basis, order: ModuleOrder, ring: PolynomialRing):
    basis = [v for v in basis if not vec_is_zero(v)]
    if not basis:
        return []
    leads = [vec_leading(v, order) for v in basis]
    keep = []
    for i in range(len(basis)):
        (pi, ei), _ = leads[i]
        dominated = False
        for j in range(len(basis)):
            if i == j:
                continue
            (pj, ej), _ = leads[j]
            if pj == pi and exp_divides(ej, ei) and (ej != ei or j < i):
                dominated = True
                break
        if not dominated:
            keep.append(i)
    minimal = [basis[i] for i in keep]
    divisors = _divisors(minimal, order)
    out = []
    fld = ring.field
    for i, v in enumerate(minimal):
        others = [d for d in divisors if d[1] != i]
        r = module_normal_form(v, minimal, order, divisors=others) if others else v
        if vec_is_zero(r):
            continue
        _, c = vec_leading(r, order)
        out.append(vec_scale(r, fld.inv(c)))
    out.sort(key=lambda v: (order.key(*vec_leading(v, order)[0]), _canonical_vec_key(v)))
    return out


# -- kernels -------------------------------------------------------------------


def syzygy_restricted(images, relations, ring: PolynomialRing, coeff_front=None):
    """Generators of { c : sum_m c_m * images_m  in  <relations> }.

    `images` and `relations` are vectors in ring^s. The returned generators
    are vectors in ring^len(images). When `coeff_front` is a set of variable
    indices, only combinations whose coefficients avoid those variables are
    returned (module elimination): that computes the kernel over the subring
    on the remaining variables.
    """
    if not images:
        return []
    s = len(images[0])
    m = len(images)
    rank = s + m

    def pad(vec_s, vec_m):
        return tuple(vec_s) + tuple(vec_m)

    zero_m = vec_zero(ring, m)
    zero_s = vec_zero(ring, s)
    gens = []
    for t, w in enumerate(images):
        unit = list(zero_m)
        unit[t] = ring.one()
        gens.append(pad(w, unit))
    for rel in relations:
        gens.append(pad(rel, zero_m))
    if coeff_front is None:
        order = graph_kernel_order(s)
    else:
        order = graph_kernel_elim_order(s, coeff_front, ring.nvars)
    gb = module_buchberger(gens, order, ring)
    out = []
    for v in gb:
        head, tail = v[:s], v[s:]
        if not vec_is_zero(head):
            continue
        if coeff_front is not None:
            touches = any(
                any(e[i] for i in coeff_front)
                for f in tail
                for e, _ in f.terms
            )
            if touches:
                continue
        if not vec_is_zero(tail):
            out.append(tail)
    return out
