"""Finitely presented algebras, morphisms of affine schemes, points, fibers.

Direction conventions, fixed once: a Morphism holds a ring map
phi: A -> B given by one image polynomial per generator of A; the induced
scheme map goes Spec(B) -> Spec(A). A is the `target` algebra (downstairs),
B the `source` (upstairs).

The graph ring of a morphism lists the source variables first, then the
target variables (renamed with a '~' suffix when names collide), so block
orders with the source block in front eliminate upstairs variables and
contractions land in the target's ambient ring; polynomials enter it by
`Polynomial.embed`. A point is rational closed (RATIONAL, by coordinates)
or the generic point of a component (GENERIC); fibers exist over both.

Each algebra, morphism and point carries a `key`, built once at
construction: its content, everything a report writes for it
(`reports.algebra_to_obj`, `morphism_to_obj`, `point_to_obj`) but names.
The component cover, fiber and fiber dimension entry points compute a
result once per process under a key of these (`groebner._memoized`) and
hand each caller its own copy. None of these results records a name: a
fiber, which records its morphism and point, is rebuilt around the
caller's own.
"""

from __future__ import annotations

from .errors import (
    RecursionBudgetExceeded,
    IllDefinedError,
    UnitIdealError,
    UnsupportedPointKind,
)
from .groebner import _memoized, normal_form
from .ideals import (
    IdealError,
    IdealHandle,
    eliminate,
    exact_divide,
    intersect,
    krull_dim,
    linear_roots,
    prime_by_pivots,
    pure_powers,
    radical_envelope,
    radical_membership,
    saturation,
)
from .orders import GREVLEX, block_order
from .parametric import (
    CoeffDomain,
    DenominatorLog,
    ParamPoly,
    generic_oracle,
    param_buchberger,
    param_dim,
    param_is_unit,
    split_poly,
)
from .poly import Polynomial, PolynomialRing


class Algebra:
    """A finitely presented algebra k[vars]/J with a cached basis for J."""

    def __init__(self, ring: PolynomialRing, relations: IdealHandle, name=""):
        if relations.ring != ring:
            raise ValueError("relations live in a different ring")
        if relations.is_unit():
            raise UnitIdealError("the presented ring is the zero ring")
        self.ring = ring
        self.relations = relations
        self.name = name
        self.key = (ring, relations.generators)

    @property
    def field(self):
        return self.ring.field

    def dim(self) -> int:
        return krull_dim(self.relations)

    def contains_point(self, coords) -> bool:
        return all(g.eval_at(coords) == self.field.zero for g in self.relations.generators)

    def reduce(self, f: Polynomial) -> Polynomial:
        gb = self.relations.groebner()
        return normal_form(f, gb, GREVLEX) if gb else f

    def __repr__(self):
        rel = ", ".join(map(str, self.relations.generators)) or "0"
        return f"{self.name or 'Algebra'}({self.ring} / ({rel}))"


def make_algebra(field, variables, relation_polys, name="") -> Algebra:
    ring = PolynomialRing(field, variables)
    return Algebra(ring, IdealHandle(ring, relation_polys), name)


class Morphism:
    """Ring map A -> B by generator images; validated at construction."""

    def __init__(self, target: Algebra, source: Algebra, images, name=""):
        if len(images) != target.ring.nvars:
            raise ValueError("need one image per target generator")
        for f in images:
            if f.ring != source.ring:
                raise ValueError("images must live in the source ring")
        if target.field != source.field:
            raise ValueError("field mismatch")
        self.target = target
        self.source = source
        self.images = tuple(images)
        self.name = name
        for rel in target.relations.generators:
            img = source.reduce(rel.map_vars(source.ring, self.images))
            if not img.is_zero():
                raise IllDefinedError(rel, img)
        self._graph = None
        self.key = (target.key, source.key, self.images)

    # -- graph ring -----------------------------------------------------

    def graph(self):
        """(graph_ring, graph_ideal, src_idx, tgt_idx, tgt_names)."""
        if self._graph is None:
            src = self.source.ring
            tgt = self.target.ring
            taken = set(src.vars)
            tgt_names = []
            for v in tgt.vars:
                nv = v
                while nv in taken:
                    nv = nv + "~"
                taken.add(nv)
                tgt_names.append(nv)
            gring = PolynomialRing(src.field, src.vars + tuple(tgt_names))
            ns = src.nvars
            src_idx = list(range(ns))
            tgt_idx = list(range(ns, ns + tgt.nvars))
            gens = [g.embed(gring) for g in self.source.relations.generators]
            for i in range(tgt.nvars):
                gens.append(gring.var(ns + i) - self.images[i].embed(gring))
            gens += [g.embed(gring, ns) for g in self.target.relations.generators]
            self._graph = (gring, IdealHandle(gring, gens), src_idx, tgt_idx, tuple(tgt_names))
        return self._graph

    def image_point_coords(self, coords):
        """Coordinates of f(x) downstairs for a rational source point."""
        return tuple(img.eval_at(coords) for img in self.images)

    def __repr__(self):
        arrows = ", ".join(
            f"{v}->{img}" for v, img in zip(self.target.ring.vars, self.images)
        )
        return f"Morphism({self.name or '?'}: {arrows})"


# -- points ---------------------------------------------------------------


RATIONAL = "rational-closed"
GENERIC = "generic-of-component"


class Point:
    """A point of Spec(algebra). A generic point given with its component
    has `comp_dim` the component's dimension, computed here, whatever the
    caller passes; one given without it keeps the `comp_dim` passed."""

    def __init__(self, algebra: Algebra, ideal: IdealHandle, kind: str,
                 coords=None, component=None, comp_dim=None, name=""):
        if kind not in (RATIONAL, GENERIC):
            raise ValueError(f"bad point kind {kind}")
        self.algebra = algebra
        self.ideal = ideal
        self.kind = kind
        self.coords = tuple(coords) if coords is not None else None
        self.component = component
        self.comp_dim = krull_dim(component) if component is not None else comp_dim
        self.name = name
        # every point of Spec(B) must contain the relations; `rational_point`,
        # which builds every rational point, checks them by evaluation
        if kind == GENERIC:
            for g in algebra.relations.generators:
                if not ideal.contains(g):
                    raise ValueError(f"point ideal misses relation {g}")
            if ideal.is_unit():
                raise ValueError("the unit ideal is not a point")
        self.key = (kind, self.coords, ideal.generators,
                    component.generators if component is not None else None,
                    self.comp_dim, algebra.key)

    def __repr__(self):
        inner = ", ".join(map(str, self.ideal.generators)) or "0"
        return f"Point[{self.kind}]({inner})"


def rational_point(algebra: Algebra, coords, name="") -> Point:
    """The closed point with these coordinates: its ideal is (x_i - c_i),
    the relations vanish at it, and it is never the unit ideal."""
    coords = tuple(algebra.field.of(c) for c in coords)
    if len(coords) != algebra.ring.nvars:
        raise ValueError("coordinate count mismatch")
    if not algebra.contains_point(coords):
        raise ValueError(f"coordinates {coords} do not satisfy the relations")
    ring = algebra.ring
    gens = [ring.var(i) - ring.const(c) for i, c in enumerate(coords)]
    return Point(algebra, IdealHandle(ring, gens), RATIONAL, coords=coords, name=name)


def generic_point_of(algebra: Algebra, component: IdealHandle, name="") -> Point:
    return Point(algebra, radical_envelope(component), GENERIC, component=component, name=name)


# -- component covers -------------------------------------------------------


# the step budget of component splitting, unless a caller sets another
DEFAULT_SPLIT_BUDGET = 64

# the ledger entry of every report whose verdict rests on a component cover
PSEUDO_PRIME_NOTE = {
    "status": "assumed",
    "text": "component covers are pseudo-prime: leaves carry no primality certificate",
}


def decompose_components(handle: IdealHandle, budget: int = DEFAULT_SPLIT_BUDGET):
    """A component cover of V(I): a list of ideals whose intersection has the
    same radical as I, found by repeatedly splitting on products fg in I with
    neither factor in sqrt(I). Leaves are pseudo-prime: not splittable by the
    search strategy, with no primality certificate (`PSEUDO_PRIME_NOTE`).

    The cover is computed once per process for each (ring, generators,
    budget) and every call gets its own list; a search that exhausts the
    budget stores nothing.
    """
    if handle.is_unit():
        raise ValueError("cannot decompose the unit ideal")
    comps = _memoized(("components", handle.ring, handle.generators, budget),
                      lambda: _decompose(handle, budget))
    return list(comps)


def _decompose(handle, budget):
    work = [handle]
    leaves = []
    steps = 0
    while work:
        current = work.pop(0)
        steps += 1
        if steps > budget:
            raise RecursionBudgetExceeded(f"component splitting exceeded {budget} steps")
        split = _find_splitter(current)
        if split is None:
            leaves.append(IdealHandle(current.ring, current.groebner()))
            continue
        f, g = split
        sat, _ = saturation(current, g)
        plus = current.with_extra([g])
        work.append(sat)
        work.append(plus)
    # drop components whose variety sits inside another's
    final = []
    for i, c in enumerate(leaves):
        redundant = False
        for j, d in enumerate(leaves):
            if i == j:
                continue
            inside = all(radical_membership(g, c) for g in d.generators)
            if inside:
                back = all(radical_membership(g, d) for g in c.generators)
                if not back or j < i:
                    redundant = True
                    break
        if not redundant:
            final.append(c)
    if not verify_component_cover(handle, final):
        raise RecursionBudgetExceeded("splitter produced a cover failing verification")
    return tuple(final)


def _find_splitter(handle: IdealHandle):
    """Deterministic search for f, g with fg in I and f, g outside sqrt(I).

    A prime ideal has no such pair, so a basis or a generating set of
    pivot shape (`ideals.prime_by_pivots`: each element holds a variable
    only in a degree-one term c*x_i, and no other element holds it) ends
    the search before it starts: k[x]/I is then a polynomial ring on the
    other variables, a domain. The zero ideal, prime too, ends it the same
    way."""
    ring = handle.ring
    gb = handle.groebner()
    if not gb or prime_by_pivots(gb) or prime_by_pivots(handle.generators):
        return None

    def rad(f):
        return radical_membership(f, handle)

    # variable pairs
    for i in range(ring.nvars):
        vi = ring.var(i)
        if rad(vi):
            continue
        for j in range(i + 1, ring.nvars):
            vj = ring.var(j)
            if rad(vj):
                continue
            if handle.contains(vi * vj):
                return vi, vj
    # variable times basis element
    for i in range(ring.nvars):
        vi = ring.var(i)
        if rad(vi):
            continue
        for g in gb:
            if rad(g):
                continue
            if handle.contains(vi * g):
                return vi, g
    # basis element pairs
    for i in range(len(gb)):
        if rad(gb[i]):
            continue
        for j in range(i, len(gb)):
            if rad(gb[j]):
                continue
            if handle.contains(gb[i] * gb[j]):
                return gb[i], gb[j]
    # linear factors of univariate basis elements
    for g in gb:
        hit = linear_roots(g)
        if hit is None:
            continue
        vi, roots = hit
        for a in roots:
            lin = ring.var(vi) - ring.const(a)
            if rad(lin):
                continue
            try:
                rest = exact_divide(g, lin)
            except IdealError:
                continue
            if not rest.is_constant() and not rad(rest):
                return lin, rest
    return None


def verify_component_cover(handle: IdealHandle, comps) -> bool:
    """sqrt(intersection of comps) == sqrt(I), checked on generators."""
    if not comps:
        return False
    for g in handle.generators:
        for c in comps:
            if not radical_membership(g, c):
                return False
    inter = comps[0]
    for c in comps[1:]:
        inter = intersect(inter, c)
    return all(radical_membership(g, handle) for g in inter.generators)


# -- fibers -----------------------------------------------------------------


class FiberModel:
    """The fiber algebra of a morphism over a point downstairs.

    kind 'rational': relations is an IdealHandle in the source ambient ring,
    residue field is the ground field, denominators empty.
    kind 'generic': relations is a parametric basis over the fraction field
    of target/q; denominators are logged and certified nonzero mod q.
    """

    def __init__(self, morphism, point, kind, relations, denominators=(),
                 domain=None, param_basis=None, empty=False):
        self.morphism = morphism
        self.point = point
        self.kind = kind
        self.relations = relations
        self.denominators = tuple(denominators)
        self.domain = domain
        self.param_basis = param_basis
        self.empty = empty

    def dim(self) -> int:
        if self.kind == "rational":
            return krull_dim(self.relations)
        return param_dim(self.param_basis, self.morphism.source.ring.nvars)

    def __repr__(self):
        return f"Fiber[{self.kind}](dim={self.dim()})"


def fiber(morphism: Morphism, y: Point) -> FiberModel:
    """B tensor kappa(y) presented over the source variables, computed once
    per process for each (morphism, y) and rebuilt around the caller's
    objects, with its own copy of a parametric basis."""
    if y.algebra is not morphism.target and y.algebra.ring != morphism.target.ring:
        raise ValueError("point does not live on the target")
    fm = _memoized(("fiber", morphism.key, y.key), lambda: _fiber(morphism, y))
    basis = fm.param_basis
    if basis is not None:
        basis = [ParamPoly(g.main, g.domain, g.terms) for g in basis]
    return FiberModel(morphism, y, fm.kind, fm.relations, fm.denominators,
                      fm.domain, basis, fm.empty)


def _fiber(morphism, y):
    if y.kind == RATIONAL:
        src = morphism.source.ring
        gens = list(morphism.source.relations.generators)
        for img, c in zip(morphism.images, y.coords):
            gens.append(img - src.const(c))
        handle = IdealHandle(src, gens)
        return FiberModel(morphism, y, "rational", handle,
                          empty=handle.is_unit())
    gring, gideal, src_idx, tgt_idx, _ = morphism.graph()
    tring = morphism.target.ring
    q = y.component if y.component is not None else y.ideal
    domain = CoeffDomain(tring, q)
    log = DenominatorLog(domain)
    oracle = generic_oracle(domain, log)
    main = morphism.source.ring
    gens = [split_poly(g, main, domain, src_idx, tgt_idx) for g in gideal.generators]
    basis = param_buchberger(gens, GREVLEX, domain, oracle)
    return FiberModel(
        morphism, y, "generic", None,
        denominators=log.entries, domain=domain, param_basis=basis,
        empty=param_is_unit(basis),
    )


def fiber_dim_at(morphism: Morphism, x: Point) -> int:
    """dim_x of the fiber through x: the largest component of the fiber cover
    containing x. Computed once per process for each (morphism, x)."""
    if x.kind != RATIONAL:
        raise UnsupportedPointKind("fiber_dim_at needs a rational-closed source point")
    return _memoized(("fiber_dim_at", morphism.key, x.key), lambda: _fiber_dim_at(morphism, x))


def _fiber_dim_at(morphism, x):
    y_coords = morphism.image_point_coords(x.coords)
    y = rational_point(morphism.target, y_coords)
    fib = fiber(morphism, y)
    if fib.empty:
        raise ValueError("fiber through the given point is empty; point not on source?")
    comps = decompose_components(fib.relations)
    best = None
    for c in comps:
        if all(g.eval_at(x.coords) == morphism.source.field.zero for g in c.generators):
            d = krull_dim(c)
            best = d if best is None else max(best, d)
    if best is None:
        raise ValueError("no fiber component contains the point; cover too coarse")
    return best


def is_quasi_finite_at(morphism: Morphism, x: Point) -> bool:
    return fiber_dim_at(morphism, x) == 0


def maximal_points_of_fiber(morphism: Morphism, y: Point):
    """Generic points of the fiber's component cover, tagged with dimension."""
    fm = fiber(morphism, y)
    if fm.kind == "rational":
        if fm.empty:
            return []
        fiber_alg = Algebra(morphism.source.ring, fm.relations, name="fiber")
        return [generic_point_of(fiber_alg, c) for c in decompose_components(fm.relations)]
    # generic fiber: presented as a single pseudo-prime component
    ideal_lift = _pullback_fiber_ideal(fm)
    pt = Point(morphism.source, ideal_lift, GENERIC,
               component=None, comp_dim=fm.dim(), name="fiber-generic")
    return [pt]


def _pullback_fiber_ideal(fm: FiberModel) -> IdealHandle:
    """Image of the generic-fiber relations inside B, coefficients pushed
    through the morphism's generator images."""
    src = fm.morphism.source.ring
    gens = list(fm.morphism.source.relations.generators)
    for g in fm.param_basis:
        s = src.zero()
        for mexp, coeff in sorted(g.terms.items()):
            mapped = coeff.map_vars(src, fm.morphism.images)
            s = s + mapped * Polynomial(src, ((mexp, src.field.one),))
        gens.append(fm.morphism.source.reduce(s))
    return IdealHandle(src, [g for g in gens if not g.is_zero()])


# -- dominance ---------------------------------------------------------------


def same_radical(a: IdealHandle, b: IdealHandle) -> bool:
    return all(radical_membership(g, b) for g in a.generators) and all(
        radical_membership(g, a) for g in b.generators
    )


def dominates(component: IdealHandle, morphism: Morphism):
    """Does the source component map densely onto a target component?

    Returns (bool, witness_or_contraction): on success the witness is the
    matching component of the target's cover; on failure the contraction
    ideal is returned as evidence.
    """
    gring, gideal, src_idx, tgt_idx, tgt_names = morphism.graph()
    total = gideal.with_extra([g.embed(gring) for g in component.generators])
    contraction_ext = eliminate(total, src_idx)
    tring = morphism.target.ring
    contraction = IdealHandle(
        tring, [Polynomial(tring, f.terms) for f in contraction_ext.generators]
    )
    for tc in decompose_components(morphism.target.relations):
        if same_radical(contraction, tc):
            return True, tc
    return False, contraction


# -- module-finiteness ---------------------------------------------------------


def is_module_finite(morphism: Morphism) -> bool:
    """True iff every source variable has a monic equation over the image:
    read off pure-power leading terms in a block basis of the graph ideal."""
    gring, gideal, src_idx, tgt_idx, _ = morphism.graph()
    order = block_order(src_idx)
    return len(pure_powers(gideal.groebner(order), src_idx, order)) == len(src_idx)


# -- quasi-finite strata --------------------------------------------------------


class Stratum:
    """Locally closed piece of the target: V(constraints) minus the vanishing
    of the assumed-nonzero coefficients."""

    def __init__(self, constraints: IdealHandle, nonzeros, quasi_finite: bool,
                 fiber_empty: bool):
        self.constraints = constraints
        self.nonzeros = tuple(nonzeros)
        self.quasi_finite = quasi_finite
        self.fiber_empty = fiber_empty

    def contains_coords(self, coords) -> bool:
        fld = self.constraints.ring.field
        on = all(g.eval_at(coords) == fld.zero for g in self.constraints.generators)
        if not on:
            return False
        return all(nz.eval_at(coords) != fld.zero for nz in self.nonzeros)

    def describe(self):
        return {
            "vanishing": [str(g) for g in self.constraints.generators],
            "nonzero": [str(g) for g in self.nonzeros],
            "quasi_finite": self.quasi_finite,
            "fiber_empty": self.fiber_empty,
        }

    def __repr__(self):
        return (f"Stratum(V({list(map(str, self.constraints.generators))}) \\ "
                f"V({list(map(str, self.nonzeros))}), qf={self.quasi_finite})")


# the deepest branching of the strata recursion
STRATA_DEPTH_BUDGET = 12


def finite_locus_strata(morphism: Morphism):
    """Groebner-system recursion over the target: branch on vanishing versus
    non-vanishing of the parametric leading coefficients; on each leaf report
    whether every source variable shows a pure-power leading term. The strata
    partition the target."""
    gring, gideal, src_idx, tgt_idx, _ = morphism.graph()
    tring = morphism.target.ring
    main = morphism.source.ring
    base_constraints = list(morphism.target.relations.generators)
    out = []

    def run(constraint_gens, nonzeros, depth):
        if depth > STRATA_DEPTH_BUDGET:
            raise RecursionBudgetExceeded("strata recursion depth exceeded")
        constraints = IdealHandle(tring, constraint_gens)
        if constraints.is_unit():
            return
        for nz in nonzeros:
            if radical_membership(nz, constraints):
                return  # assumed nonzero but vanishing identically: empty piece
        domain = CoeffDomain(tring, constraints)
        assumed = {domain.reduce(nz).terms for nz in nonzeros}

        def oracle(c):
            red = domain.reduce(c)
            if red.is_zero():
                return False
            if red.is_constant() or red.terms in assumed:
                return True
            raise BranchSignal(red)

        gens = [split_poly(g, main, domain, src_idx, tgt_idx)
                for g in gideal.generators]
        try:
            basis = param_buchberger(gens, GREVLEX, domain, oracle)
        except BranchSignal as b:
            run(constraint_gens + [b.coeff], nonzeros, depth + 1)
            run(constraint_gens, nonzeros + [b.coeff], depth + 1)
            return
        if param_is_unit(basis):
            out.append(Stratum(constraints, nonzeros, True, True))
            return
        qf = len(pure_powers(basis, src_idx, GREVLEX)) == len(src_idx)
        out.append(Stratum(constraints, nonzeros, qf, False))

    run(base_constraints, [], 0)
    return out


class BranchSignal(Exception):
    def __init__(self, coeff):
        self.coeff = coeff
