"""Adapted Noether normalization of fibers and the quasi-finite factorization.

Given f: Spec(B) -> Spec(A), a point y downstairs and a maximal point x0 of
the fiber over y whose component has full fiber dimension e, the pipeline
normalizes the fiber, checks the normalization meets x0's component in (0),
lifts the normalization elements to B after clearing denominators, and
assembles the factorization through affine e-space over A:

    Spec(B) --g--> A^e_A --projection--> Spec(A)

together with a certificate of machine-checked predicates: the factorization
composes to f on the nose, the fiber-level leg is module-finite, its kernel
contracts to zero (surjectivity by dimension), x0's ideal contracts to zero
(so x0 lands on the generic point of the fiber of the projection), every
source component dominates affine e-space, and quasi-finite strata cover the
relevant points. Certificates re-verify from scratch.

Every fiber-level check is one computation, `_over_tags`: adjoin tags
T_1..T_e after the source variables (as `extend_with_tags` builds A[T]),
add T_j - t_j to the fiber's generators, take a basis under the block order
with the source variables in front, and read off the pure-power leading
exponents (module-finiteness) and the elements free of the source variables
(the contraction). When the t_j are distinct source variables, as for every
candidate of the "variables" family, T_j is substituted for t_j in the
generators instead, a smaller run with the same readouts. Over a rational point the fiber is an ideal of the
source ring and the ideal engine (`IdealHandle.groebner`) computes the
basis. Over a generic point it lives over the residue domain and the
parametric engine (`param_buchberger` with `generic_oracle`) computes it,
certifying every inverted coefficient nonzero. A factorization runs it
on the accepted normalization once, in the search: the lift re-checks only
elements that clearing denominators changed, and predicates P2, P3 and,
over a generic point, P4 record the last check's witness. Over a rational
point the adaptedness check and P4 run it on the generators of x0's
component and of x0. Given the normalization a certificate records, as
`verify` gives it, the search is skipped and that normalization alone is
checked.

The maximal points x0 is drawn from are `schemes.maximal_points_of_fiber`,
in the scheme layer, so a session's `fiber-point` declarations parse
without compiling this module.
"""

from __future__ import annotations

import itertools
import math
import random

from .errors import (
    LiftFailure,
    NormalizationBudgetExceeded,
    PreconditionFailed,
    UnsupportedPointKind,
)
from .groebner import _memoized
from .ideals import IdealHandle, krull_dim, pure_powers, radical_membership
from .orders import GREVLEX, block_order
from .parametric import DenominatorLog, ParamPoly, generic_oracle, param_buchberger
from .poly import Polynomial, PolynomialRing
from .schemes import (
    RATIONAL,
    Algebra,
    FiberModel,
    Morphism,
    Point,
    decompose_components,
    dominates,
    fiber,
    fiber_dim_at,
    finite_locus_strata,
    generic_point_of,
    is_quasi_finite_at,
)


class NoetherData:
    """A verified normalization k[t_1..t_e] -> fiber, with its witnesses."""

    def __init__(self, fiber_model: FiberModel, e: int, ts, kind: str, seed: int, witness):
        self.fiber = fiber_model
        self.e = e
        self.ts = list(ts)            # Polynomials of the source ring
        self.kind = kind              # candidate family that produced the ts
        self.seed = seed
        self.witness = witness        # pure-power leading exponents per fiber var

    def __repr__(self):
        return f"NoetherData(e={self.e}, kind={self.kind}, ts={self.ts})"


def _over_tags(fm: FiberModel, ts, gens=None):
    """(ok, pure-power witness, contraction) of the tag elements `ts`,
    Polynomials of the source ring, over the fiber `fm`.

    One basis of `gens` plus T_j - t_j is computed under the block order
    with the source variables in front. The witness maps each source
    variable to the first pure-power leading exponent in it; ok says every
    source variable has one, so the fiber leg is module-finite. The
    contraction is the basis elements free of the source variables.

    When every t_j is a distinct source variable x_i with coefficient 1
    (see `_tag_variables`), T_j is substituted for x_i in `gens` by moving
    exponents instead, and no T_j - x_i is adjoined. That is exact: the
    substituted generators are free of the x_i, so the T_j - x_i, whose
    leading terms x_i are coprime to every leading term of a basis G' of
    the substituted ideal, join G' to a basis of the adjoined ideal (Cox,
    Little & O'Shea, ch. 2 §9). Its leading ideal is (x_i) plus that of
    G', so ok and the witness follow, each x_i with its unit exponent
    unless G' holds a constant. The reduced basis of the adjoined ideal
    is G' reduced plus the x_i - NF(T_j), which are not free of the source
    variables, so over a rational point the contraction is the same list
    (Cox, Little & O'Shea, ch. 3 §1), and over a generic one it is empty
    exactly when the adjoined route's is.

    For a rational fiber `gens`, Polynomials of the source ring, default
    to the fiber's relations and the ideal engine runs. A generic fiber
    takes its parametric basis, over its residue domain, and no `gens`;
    the parametric engine runs, `generic_oracle` certifying every inverted
    coefficient nonzero."""
    src = fm.morphism.source.ring
    n, e = src.nvars, len(ts)
    ext = src.extend(src.fresh_names("T", e))
    front = list(range(n))
    order = block_order(front) if front else GREVLEX
    moved = _tag_variables(ts)

    def lift(exp):
        # exp padded to ext, with the exponent of x_moved[j] moved to T_j
        out = list(exp) + [0] * e
        for j, i in enumerate(moved or ()):
            out[n + j], out[i] = out[i], 0
        return tuple(out)

    adjoined = [] if moved is not None else [(ext.var(n + j), t.embed(ext))
                                             for j, t in enumerate(ts)]
    if fm.kind == "rational":
        gens = [Polynomial(ext, sorted(((lift(exp), c) for exp, c in g.terms), reverse=True))
                for g in (fm.relations.generators if gens is None else gens)]
        gens += [tag - t for tag, t in adjoined]
        basis = IdealHandle(ext, gens).groebner(order)
    else:
        domain = fm.domain

        def constant_coeffs(f):
            return ParamPoly.build(ext, domain, ((exp, domain.ring.const(c)) for exp, c in f.terms))

        gens = [ParamPoly.build(ext, domain, ((lift(exp), c) for exp, c in g.terms.items()))
                for g in fm.param_basis]
        gens += [constant_coeffs(tag).sub(constant_coeffs(t)) for tag, t in adjoined]
        basis = param_buchberger(gens, order, domain, generic_oracle(domain, DenominatorLog(domain)))
    witness = {i: w[0] for i, w in pure_powers(basis, front, order).items()}
    # dict() gives the exponents of a Polynomial's term pairs and of a ParamPoly's term dict
    contraction = [g for g in basis if not any(any(exp[:n]) for exp in dict(g.terms))]
    if moved and not any(not any(map(any, dict(g.terms))) for g in contraction):
        # x_i - T_j leads with x_i in a basis that holds no constant
        for i in moved:
            witness[i] = tuple(int(k == i) for k in range(n + e))
    return len(witness) == n, witness, contraction


def _tag_variables(ts):
    """The index of the source variable each tag element is, when every
    one is a distinct variable with coefficient 1; else None."""
    out = []
    for t in ts:
        if len(t.terms) != 1:
            return None
        exp, c = t.terms[0]
        if c != t.ring.field.one or sum(exp) != 1:
            return None
        out.append(exp.index(1))
    return out if len(set(out)) == len(out) else None


def _candidate_streams(ring: PolynomialRing, e: int, seed: int):
    """Deterministic candidate tuples (kind, [t polynomials])."""
    n = ring.nvars
    fld = ring.field
    for combo in itertools.combinations(range(n), e):
        yield "variables", [ring.var(i) for i in combo]
    # unit-coefficient sums before anything drawn from the random stream
    for combo in itertools.combinations(range(n), e):
        for m in range(n):
            if m in combo:
                continue
            yield "linear", [ring.var(i) + ring.var(m) for i in combo]
    rng = random.Random(seed)
    hi = fld.char - 1 if fld.char else 3
    for _ in range(NOETHER_BUDGET):
        ts = []
        for _ in range(e):
            coeffs = [rng.randint(0, hi) for _ in range(n)]
            if not any(coeffs):
                coeffs[rng.randrange(n)] = 1
            t = ring.zero()
            for i, c in enumerate(coeffs):
                if c:
                    t = t + ring.var(i).scale(fld.of(c))
            ts.append(t)
        yield "linear", ts
    if fld.char and n >= 2:
        for d in (2, 3, 4):
            for combo in itertools.combinations(range(n), e):
                for m in range(n):
                    if m in combo:
                        continue
                    ts = [ring.var(i) + ring.var(m) ** (d ** (j + 1))
                          for j, i in enumerate(combo)]
                    yield "power-substitution", ts


# the seeded linear candidates a normalization search draws
NOETHER_BUDGET = 60


def noether_normalize(fm: FiberModel, seed: int = 0, ts=None) -> NoetherData:
    """Search variable subsets, then `NOETHER_BUDGET` seeded sparse linear
    combinations, then power substitutions, verifying module-finiteness and
    algebraic independence of each candidate before accepting it.

    Given `ts`, a normalization recorded earlier (Polynomials of the source
    ring), no search runs: `ts` alone gets the check every candidate gets,
    module-finite with an empty contraction, which also fixes its length at
    the fiber dimension; a `ts` that fails raises PreconditionFailed naming
    it. Which candidate the seeded search reaches first is not re-derived."""
    if fm.empty:
        raise PreconditionFailed("cannot normalize the zero ring")
    e = fm.dim()
    if ts is not None:
        ok, witness, contraction = _over_tags(fm, ts)
        if not ok or contraction:
            raise PreconditionFailed(
                f"normalization ({', '.join(map(str, ts))}) is not module-finite "
                "with an empty contraction")
        return NoetherData(fm, e, ts, "recorded", seed, witness)
    if e == 0:
        ok, witness, _ = _over_tags(fm, [])
        if not ok:
            raise NormalizationBudgetExceeded(
                "zero-dimensional fiber failed the finiteness check" if fm.kind == "rational"
                else "zero-dimensional generic fiber failed the finiteness check")
        return NoetherData(fm, 0, [], "trivial", seed, witness)
    for kind, ts in _candidate_streams(fm.morphism.source.ring, e, seed):
        ok, witness, contraction = _over_tags(fm, ts)
        if ok and not contraction:  # a contraction means the tags are dependent
            return NoetherData(fm, e, ts, kind, seed, witness)
    raise NormalizationBudgetExceeded(f"no normalization found within budget {NOETHER_BUDGET}")


def adapted_check(component, nd: NoetherData) -> bool:
    """True iff the component's ideal, an IdealHandle of the source ring,
    contracts to (0) in the normalization tag ring; the computational
    content of hitting the generic point."""
    if nd.e == 0:
        return True
    return not _over_tags(nd.fiber, nd.ts, component.generators)[2]


def lift_clear_denominators(nd: NoetherData, morphism: Morphism):
    """(s_1..s_e, their pure-power witness): images s_j in B of the
    normalization elements, denominators cleared.

    Over Q the t_j are scaled to integer coefficients. Over a generic point
    the t_j have field coefficients already (a denominator would be a unit
    of the residue field) and s_j is t_j reduced by B's relations. When
    the s_j are the t_j, they pass the check `nd` records and its witness
    is returned. Otherwise module-finiteness and an empty contraction are
    re-verified on the s_j; failure raises LiftFailure.
    """
    fm = nd.fiber
    if fm.kind == "rational":
        fld = morphism.source.field
        out = [t.scale(fld.of(math.lcm(*(c.denominator for _, c in t.terms))))
               if fld.char == 0 else t for t in nd.ts]
    else:
        out = [morphism.source.reduce(t) for t in nd.ts]
    if out == nd.ts:
        return out, nd.witness
    ok, witness, contraction = _over_tags(fm, out)
    if not ok or contraction:
        raise LiftFailure("scaled elements fail the finiteness re-check" if fm.kind == "rational"
                          else "scaled elements fail the finiteness re-check over the residue field")
    return out, witness


# -- the factorization certificate ------------------------------------------


class FactorizationCertificate:
    def __init__(self, morphism, y, x0, e, lifted, induced, predicates,
                 seed, notes, probes=()):
        self.morphism = morphism
        self.y = y
        self.x0 = x0
        self.e = e
        self.lifted = list(lifted)       # s_1..s_e in the source ring
        self.induced = induced           # g: A[T] -> B
        self.predicates = predicates     # {"name", "ok", "evidence"} dicts
        self.seed = seed
        self.notes = list(notes)
        self.probes = tuple(probes)

    def __repr__(self):
        return f"FactorizationCertificate(e={self.e})"


def extend_with_tags(target: Algebra, e: int):
    """A[T_1..T_e] as an Algebra, tags appended after the target variables."""
    if e == 0:
        return target
    ext = target.ring.extend(target.ring.fresh_names("T", e))
    rels = IdealHandle(ext, [g.embed(ext) for g in target.relations.generators])
    return Algebra(ext, rels, name=(target.name or "A") + f"[T^{e}]")


def build_factorization(morphism: Morphism, y: Point, x0: Point, probes=(),
                        seed: int = 0, lifted=None) -> FactorizationCertificate:
    """Run the full pipeline and emit a certificate; any failed sub-check
    aborts with the failed predicate named.

    `lifted`, the normalization a certificate records (its s_1..s_e, in
    the source ring), is an input as `seed` is: given, the Noether step
    checks it alone instead of searching (see `noether_normalize`). That
    gives the certificate the search gave: the recorded elements are the
    accepted candidate reduced by the source relations, or over Q scaled
    to integer coefficients, and neither changes the pure-power leading
    exponents or whether the contraction is empty. `run` never passes it.

    Computed once per process for each (morphism, y, x0, probes, seed,
    lifted). Each call gets a certificate of its own around its own
    morphism, points and probes, with its own copy of the predicates, the
    {"name", "ok", "evidence"} dicts the certificate records.
    The induced map, shared, is named after the morphism and its algebras,
    so their names are part of the key; a call that fails stores
    nothing."""
    probes = tuple(probes)
    lifted = None if lifted is None else tuple(lifted)
    names = (morphism.name, morphism.target.name, morphism.source.name)
    key = ("factorization", morphism.key, names, y.key, x0.key,
           tuple(p.key for p in probes), seed, lifted)
    cert = _memoized(key, lambda: _build_factorization(morphism, y, x0, probes, seed, lifted))
    return FactorizationCertificate(morphism, y, x0, cert.e, cert.lifted, cert.induced,
                                    _copied(cert.predicates), seed, cert.notes, probes)


def _build_factorization(morphism, y, x0, probes, seed, lifted):
    fm = fiber(morphism, y)
    if fm.empty:
        raise PreconditionFailed("empty fiber: y is not in the image")
    e = fm.dim()
    notes = []
    src_alg = morphism.source
    src = src_alg.ring

    # x0 must be a maximal point of the fiber with top-dimensional component;
    # a generic fiber is treated as one component, the whole fiber (None)
    comp = None
    if fm.kind == "rational":
        comp = x0.component if x0.component is not None else x0.ideal
        for g in fm.relations.generators:
            if not x0.ideal.contains(g):
                raise PreconditionFailed("x0 does not lie on the fiber")
        comp_dim = krull_dim(comp)
        if comp_dim != e:
            raise PreconditionFailed(
                f"x0's component has dimension {comp_dim}, fiber dimension is {e}; "
                "only top-dimensional components are supported")
    else:
        if x0.comp_dim != e:
            raise PreconditionFailed(
                f"x0 has dimension {x0.comp_dim}, the generic fiber has dimension {e}")
        notes.append("generic fiber treated as a single pseudo-prime component")

    nd = noether_normalize(fm, seed=seed, ts=lifted)
    # a generic fiber is its own component, whose contraction the search
    # accepted empty
    if comp is not None and not adapted_check(comp, nd):
        raise PreconditionFailed("adapted-normalization: component contraction is nonzero")

    lifted, witness = lift_clear_denominators(nd, morphism)
    at_alg = extend_with_tags(morphism.target, e)
    induced = Morphism(at_alg, src_alg, list(morphism.images) + lifted,
                       name=(morphism.name or "f") + "_factor")

    predicates = []

    # P1: g composed with the structure map reproduces f exactly
    comp_ok = all(
        induced.images[i] == morphism.images[i]
        for i in range(morphism.target.ring.nvars)
    )
    predicates.append({"name": "composition-identity", "ok": comp_ok,
                       "evidence": {"images": [str(p) for p in induced.images]}})

    # P2/P3: fiber-level leg is module-finite with zero kernel contraction,
    # as the lift has checked
    predicates.append({"name": "fiber-leg-module-finite", "ok": True, "evidence": {
        "pure_powers": {src.vars[i]: list(w) for i, w in witness.items()}}})
    predicates.append({"name": "fiber-leg-zero-contraction", "ok": True,
                       "evidence": {"contraction": []}})

    # P4: x0's ideal contracts to (0) in the tag polynomial ring
    if fm.kind == "rational":
        contr = _over_tags(fm, lifted, x0.ideal.generators)[2] if e else []
        p4_ok, p4_evi = not contr, {"contraction": [str(g) for g in contr]}
    else:
        p4_ok, p4_evi = True, {"contraction": [], "note": "generic point of the whole fiber"}
    predicates.append({"name": "point-contracts-to-generic", "ok": p4_ok, "evidence": p4_evi})

    # P5: every source component dominates affine e-space over the target
    dom_evi = []
    dom_ok = True
    for c in decompose_components(src_alg.relations):
        ok, wit = dominates(c, induced)
        dom_evi.append({
            "component": [str(g) for g in c.generators],
            "dominates": ok,
            "witness": [str(g) for g in wit.generators],
        })
        dom_ok = dom_ok and ok
    predicates.append({"name": "components-dominate-affine-space", "ok": dom_ok,
                       "evidence": {"components": dom_evi}})

    # P6: quasi-finiteness on strata covering the generic point of p^-1(y)
    # and every given probe
    strata = finite_locus_strata(induced)
    p6_evi = {"strata": [s.describe() for s in strata]}
    p6_ok = True
    hit = _stratum_of_fiber_generic_point(strata, morphism, y, e)
    if hit is None:
        p6_ok = False
        p6_evi["generic_point_stratum"] = "not found"
    else:
        p6_evi["generic_point_stratum"] = hit.describe()
        if not hit.quasi_finite:
            p6_ok = False
    probe_records = []
    for pr in probes:
        z = induced.image_point_coords(pr.coords)
        qf = is_quasi_finite_at(induced, pr)
        stratum = next((s for s in strata if s.contains_coords(z)), None)
        probe_records.append({
            "probe": [str(c) for c in pr.coords],
            "quasi_finite": qf,
            "stratum_quasi_finite": stratum.quasi_finite if stratum else None,
        })
        if not qf or stratum is None or not stratum.quasi_finite:
            p6_ok = False
    p6_evi["probes"] = probe_records
    predicates.append({"name": "quasi-finite-on-strata", "ok": p6_ok, "evidence": p6_evi})

    failed = [p["name"] for p in predicates if not p["ok"]]
    if failed:
        raise PreconditionFailed(f"factorization predicates failed: {failed}")
    return FactorizationCertificate(morphism, y, x0, e, lifted, induced, predicates, seed,
                                    notes, probes=probes)


def _copied(evidence):
    """A copy of evidence data, its dicts and lists copied all the way
    down; every other value in it is immutable. (`copy.deepcopy` would
    add a module import to every process.)"""
    if isinstance(evidence, dict):
        return {k: _copied(v) for k, v in evidence.items()}
    if isinstance(evidence, list):
        return [_copied(v) for v in evidence]
    return evidence


def _stratum_of_fiber_generic_point(strata, morphism, y, e):
    """The stratum whose locus contains the generic point of p^-1(y): over a
    rational y, constraints must vanish identically in the tag variables and
    the nonzero-assumptions must stay nonzero as polynomials in them."""
    for s in strata:
        if _generic_point_in_stratum(s, morphism, y, e):
            return s
    return None


def _generic_point_in_stratum(stratum, morphism, y, e) -> bool:
    tring = stratum.constraints.ring  # target ring extended by tags
    base_n = morphism.target.ring.nvars
    if y.kind == RATIONAL:
        def specialize(p):
            # substitute the y coordinates, keep tags symbolic
            tag_ring = PolynomialRing(tring.field, tring.vars[base_n:])
            images = [tag_ring.const(c) for c in y.coords] + list(tag_ring.gens())
            return p.map_vars(tag_ring, images)

        for g in stratum.constraints.generators:
            if not specialize(g).is_zero():
                return False
        for nz in stratum.nonzeros:
            if specialize(nz).is_zero():
                return False
        return True
    # generic y: constraints must lie in the radical of q extended by tags
    q = y.component if y.component is not None else y.ideal
    lifted = IdealHandle(tring, [g.embed(tring) for g in q.generators])
    for g in stratum.constraints.generators:
        if not radical_membership(g, lifted):
            return False
    for nz in stratum.nonzeros:
        if radical_membership(nz, lifted):
            return False
    return True


# -- equidimensionality -------------------------------------------------------


def verify_equidimensional_at(morphism: Morphism, x: Point, probes=()):
    """Checks the dominance + constant-fiber-dimension characterization at x,
    at each probe, and at the generic point of each dominated target
    component. Returns the fields the `equidim` certificate records:
    {"e": fiber dimension at x, "verdict": certified-at-probes, refuted or
    inconclusive, "evidence": the checks run, "witness": what refutes, or
    None}. Computed once per process for each (morphism, x, probes); each
    call gets its own copy."""
    probes = tuple(probes)
    key = ("equidim", morphism.key, x.key, tuple(p.key for p in probes))
    return _copied(_memoized(key, lambda: _verify_equidimensional_at(morphism, x, probes)))


def _equidim(e, verdict, evidence, witness=None):
    return {"e": e, "verdict": verdict, "evidence": evidence, "witness": witness}


def _verify_equidimensional_at(morphism, x, probes):
    evidence = []
    try:
        e0 = fiber_dim_at(morphism, x)
    except UnsupportedPointKind as exc:
        return _equidim(None, "inconclusive", [{"error": str(exc)}])
    evidence.append({"check": "fiber-dim-at-x", "dim": e0})

    through_x = [c for c in decompose_components(morphism.source.relations)
                 if all(g.eval_at(x.coords) == morphism.source.field.zero
                        for g in c.generators)]
    witnesses = []
    for c in through_x:
        ok, wit = dominates(c, morphism)
        evidence.append({
            "check": "component-dominates",
            "component": [str(g) for g in c.generators],
            "ok": ok,
        })
        if not ok:
            return _equidim(e0, "refuted", evidence,
                            {"component": [str(g) for g in c.generators]})
        witnesses.append(wit)

    for pr in probes:
        d = fiber_dim_at(morphism, pr)
        evidence.append({"check": "fiber-dim-at-probe",
                         "probe": [str(c) for c in pr.coords], "dim": d})
        if d != e0:
            return _equidim(e0, "refuted", evidence,
                            {"probe": [str(c) for c in pr.coords], "dim": d})

    seen = set()
    for wit in witnesses:
        key = tuple(str(g) for g in wit.generators)
        if key in seen:
            continue
        seen.add(key)
        eta = generic_point_of(morphism.target, wit)
        gen_fib = fiber(morphism, eta)
        d = gen_fib.dim()
        evidence.append({"check": "generic-fiber-dim",
                         "target_component": list(key), "dim": d})
        if d != e0:
            return _equidim(e0, "refuted", evidence,
                            {"target_component": list(key), "generic_dim": d})
    return _equidim(e0, "certified-at-probes", evidence)
