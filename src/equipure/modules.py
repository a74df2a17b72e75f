"""Groebner machinery for submodules of free modules over a polynomial ring.

Vectors are tuples of Polynomials. A module monomial is (position, exponent
vector); a ModuleOrder turns one into a sort key. Two order families cover
everything the package needs:

  * position-over-term with a leading block of positions dominating the
    rest (kernel computation via the graph trick), and
  * orders that compare a chosen variable sub-block first across all
    positions (coefficient restriction to a subring, i.e. module
    elimination).

Each ModuleOrder also packs a module monomial into one int K, its position
as one more field (see `orders.Packing`), so the module engine runs the
ideal engine's drivers on the terms of all positions at once: module
division is `groebner._divide` and module Buchberger `groebner._basis`,
whose pair loop forms no pair of leading terms in different positions.
Module Buchberger runs with the chain criterion alone, whose divisibility
test on packed Ks already asks for equal position fields; the coprime
criterion is not sound for modules and stays off.
"""

from __future__ import annotations

from .groebner import _basis, _divide, _memoized
from .orders import GREVLEX, MonomialOrder, _grevlex_fields, _key, _packed_run
from .poly import PolynomialRing, _poly_from_packed


class ModuleOrder:
    """An order on (position, exponent) pairs, stated by its packed fields,
    position fields included (see `orders.Packing`); `key` reads its sort
    key off them, bigger key = bigger monomial.

    The tag names the constructor and every parameter it was given, so two
    orders are equal, and hash alike, exactly when their tags are.
    `fields(nvars)` gives the fields on a number of variables, as
    `MonomialOrder.fields` does, and `packing` is `MonomialOrder.packing`."""

    def __init__(self, tag, fields):
        self.tag = tag
        self.fields = fields
        self._packings = {}

    def key(self, pos, exp):
        return _key(self.packing(len(exp)).fields, exp, pos)

    packing = MonomialOrder.packing

    def __eq__(self, other):
        return isinstance(other, ModuleOrder) and self.tag == other.tag

    def __hash__(self):
        return hash(("ModuleOrder", self.tag))

    def __repr__(self):
        return f"ModuleOrder({self.tag})"


def graph_kernel_order(lead_positions: int, mono_order=GREVLEX) -> ModuleOrder:
    """Anything in the first `lead_positions` positions beats everything else;
    position-over-term within each class."""
    return ModuleOrder(f"graph<{lead_positions},{mono_order!r}",
                       lambda n: (("lead", lead_positions), ("pos",)) + mono_order.fields(n))


def graph_kernel_elim_order(lead_positions: int, front_vars, nvars) -> ModuleOrder:
    """Graph-kernel order that additionally eliminates `front_vars` inside the
    trailing positions: leading-block monomials first, then monomials whose
    exponent touches the front variables, then position, then the rest."""
    front = tuple(sorted(front_vars))
    back = tuple(i for i in range(nvars) if i not in front)

    def fields(n):
        if n != nvars:
            raise ValueError(f"order built for {nvars} variables, not {n}")
        return ((("lead", lead_positions),) + _grevlex_fields(front) + (("pos",),)
                + _grevlex_fields(back))

    return ModuleOrder(f"graph-elim<{lead_positions},front{list(front)},nvars={nvars}", fields)


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
    if vec_is_zero(v):
        raise ValueError("leading term of zero vector")
    _, pos, idx = _packed_run(order.packing(v[0].ring.nvars),
                              lambda packing: _vec_lead(v, packing))
    exp, c = v[pos].terms[idx]
    return (pos, exp), c


def _vec_lead(v, packing):
    """(K, position, index in that position's terms) of the leading term of
    a nonzero vector."""
    best = None
    for pos, f in enumerate(v):
        if f.terms:
            pterms, lead = f._packed(packing)
            k = packing.at(pos) + pterms[lead][0]
            if best is None or k > best[0]:
                best = (k, pos, lead)
    return best


def _canonical_vec_key(v):
    return tuple(f.terms for f in v)


def _divisor(v, i, packing):
    """Entry of basis vector i in a sorted divisor list, shaped as
    `groebner._divisor`: divisors are tried smallest leading term first,
    ties broken by the vector's terms, then by index."""
    klead, pos, idx = _vec_lead(v, packing)
    lc = v[pos].terms[idx][1]
    tail = _vec_work(v, packing)
    del tail[klead]
    return (klead, _canonical_vec_key(v), i, klead - packing.one, lc, tuple(tail.items()),
            v[pos].ring.field.inv(lc))


def _vec_from_packed(ring, packing, d, rank):
    """The vector of a dict of module K -> coefficient."""
    parts = [{} for _ in range(rank)]
    for k, c in d.items():
        pos = packing.position(k)
        parts[pos][k - packing.at(pos)] = c
    return tuple(_poly_from_packed(ring, packing, part) for part in parts)


def module_normal_form(v, basis, order: ModuleOrder, track=False):
    """Fully reduced normal form of vector v against module `basis`, by the
    division driver `groebner._divide`: a module term's K carries its
    position, and a divisor's leading term divides a term only in the same
    position."""
    ring = v[0].ring
    return _packed_run(order.packing(ring.nvars), lambda packing: _divide(
        _vec_work(v, packing), basis, vec_is_zero, packing, ring, _divisor,
        lambda rem: _vec_from_packed(ring, packing, rem, len(v)), track))


def _vec_work(v, packing):
    """The packed terms of a vector, as a working dict."""
    work = {}
    for pos, f in enumerate(v):
        at = packing.at(pos)
        for k, c in f._packed(packing)[0]:
            work[at + k] = c
    return work


def module_buchberger(vectors, order: ModuleOrder, ring: PolynomialRing):
    """Reduced module Groebner basis, by the Buchberger driver
    `groebner._basis` with the chain criterion alone.

    Computed once per process for each (vectors, order, ring); vectors are
    tuples of Polynomials, which compare by ring and terms."""
    vectors = tuple(tuple(v) for v in vectors)
    key = ("module_buchberger", vectors, order, ring)
    return list(_memoized(key, lambda: tuple(_module_buchberger(vectors, order, ring))))


def _module_buchberger(vectors, order, ring):
    basis = [v for v in vectors if not vec_is_zero(v)]
    out = _packed_run(order.packing(ring.nvars), lambda packing: _basis(
        basis, packing, ring.field, _divisor,
        lambda rem: _vec_from_packed(ring, packing, rem, len(basis[0])), coprime=False))
    # the output order is stated by the order's key, at the boundary
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

    def pad(vec_s, vec_m):
        return tuple(vec_s) + tuple(vec_m)

    zero_m = vec_zero(ring, m)
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
