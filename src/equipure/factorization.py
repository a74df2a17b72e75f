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
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .errors import (
    LiftFailure,
    NormalizationBudgetExceeded,
    PreconditionFailed,
    UnsupportedPointKind,
)
from .ideals import IdealHandle, eliminate, krull_dim, radical_membership
from .orders import GREVLEX, block_order
from .parametric import (
    DenominatorLog,
    ParamPoly,
    generic_oracle,
    param_buchberger,
    param_front_free,
    param_pure_power_witness,
)
from .poly import Polynomial, PolynomialRing
from .schemes import (
    GENERIC,
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

    def __init__(self, fiber_model: FiberModel, e: int, ts, kind: str, seed: int,
                 witness, denominators=()):
        self.fiber = fiber_model
        self.e = e
        self.ts = list(ts)            # rational: Polynomials; generic: (ParamPoly, den|None)
        self.kind = kind              # candidate family that produced the ts
        self.seed = seed
        self.witness = witness        # pure-power leading exponents per fiber var
        self.denominators = tuple(denominators)

    def __repr__(self):
        return f"NoetherData(e={self.e}, kind={self.kind}, ts={self.ts})"


def _tag_ring(base: PolynomialRing, e: int):
    names = base.fresh_names("T", e) if e != 1 else base.fresh_names("T", 1)
    ext = base.extend(tuple(names))
    lift = lambda f: Polynomial(ext, tuple((eexp + (0,) * e, c) for eexp, c in f.terms))
    tvars = [ext.var(base.nvars + j) for j in range(e)]
    return ext, lift, tvars, names


def _module_finite_over_tags(fiber_rels, ts, ring: PolynomialRing):
    """GB of fiber relations + (T_j - t_j) under a block order with the fiber
    variables in front; returns (ok, pure-power witness, contraction gens)."""
    e = len(ts)
    if e == 0:
        ext, lift, tvars = ring, (lambda f: f), []
        gens = list(fiber_rels)
        front = list(range(ring.nvars))
        basis = IdealHandle(ext, gens).groebner(block_order(front)) if gens else []
    else:
        ext, lift, tvars, _ = _tag_ring(ring, e)
        gens = [lift(g) for g in fiber_rels]
        gens += [tvars[j] - lift(ts[j]) for j in range(e)]
        front = list(range(ring.nvars))
        basis = IdealHandle(ext, gens).groebner(block_order(front))
    order = block_order(front) if front else GREVLEX
    witness = {}
    for g in basis:
        exp = g.leading(order)[0]
        nz = [i for i, k in enumerate(exp) if k]
        if len(nz) == 1 and nz[0] < ring.nvars and nz[0] not in witness:
            witness[nz[0]] = exp
    ok = all(i in witness for i in range(ring.nvars))
    contraction = [g for g in basis
                   if all(all(eexp[i] == 0 for i in range(ring.nvars)) for eexp, _ in g.terms)]
    return ok, witness, contraction


def _param_module_finite_over_tags(fm: FiberModel, ts, log: DenominatorLog):
    """Parametric variant for generic fibers."""
    src = fm.morphism.source.ring
    e = len(ts)
    if e == 0:
        main = src
        gens = list(fm.param_basis)
        tvar_idx = []
    else:
        main, lift, tvars, _ = _tag_ring(src, e)
        gens = []
        for g in fm.param_basis:
            gens.append(ParamPoly.build(
                main, fm.domain,
                ((eexp + (0,) * e, c) for eexp, c in g.terms.items())))
        for j, (t, den) in enumerate(ts):
            # (t, den) stands for t/den with den a unit in the residue
            # field, so the subring generated is the numerator's
            tpoly = ParamPoly.build(
                main, fm.domain,
                ((eexp + (0,) * e, c) for eexp, c in t.terms.items()))
            tag = ParamPoly.build(
                main, fm.domain,
                [(tuple(1 if i == src.nvars + j else 0 for i in range(main.nvars)),
                  fm.domain.one())])
            gens.append(tag.sub(tpoly))
        tvar_idx = list(range(src.nvars, main.nvars))
    front = list(range(src.nvars))
    order = block_order(front) if front else GREVLEX
    oracle = generic_oracle(fm.domain, log)
    basis = param_buchberger(gens, order, fm.domain, oracle)
    witness = param_pure_power_witness(basis, set(front), order)
    ok = all(i in witness for i in front)
    contraction = param_front_free(basis, front)
    return ok, {i: w[0] for i, w in witness.items()}, contraction


def _candidate_streams(ring: PolynomialRing, e: int, seed: int, budget: int):
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
    for _ in range(budget):
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


def noether_normalize(fm: FiberModel, seed: int = 0, budget: int = 60) -> NoetherData:
    """Search variable subsets, then seeded sparse linear combinations, then
    power substitutions, verifying module-finiteness and algebraic
    independence of each candidate before accepting it."""
    if fm.empty:
        raise PreconditionFailed("cannot normalize the zero ring")
    e = fm.dim()
    src = fm.morphism.source.ring
    if fm.kind == "rational":
        rels = list(fm.relations.generators)
        if e == 0:
            ok, witness, _ = _module_finite_over_tags(rels, [], src)
            if not ok:
                raise NormalizationBudgetExceeded("zero-dimensional fiber failed the finiteness check")
            return NoetherData(fm, 0, [], "trivial", seed, witness)
        for kind, ts in _candidate_streams(src, e, seed, budget):
            ok, witness, contraction = _module_finite_over_tags(rels, ts, src)
            if not ok:
                continue
            if contraction:
                continue  # tags are algebraically dependent
            return NoetherData(fm, e, ts, kind, seed, witness)
        raise NormalizationBudgetExceeded(f"no normalization found within budget {budget}")
    # generic fiber
    log = DenominatorLog(fm.domain)
    if e == 0:
        ok, witness, _ = _param_module_finite_over_tags(fm, [], log)
        if not ok:
            raise NormalizationBudgetExceeded("zero-dimensional generic fiber failed the finiteness check")
        return NoetherData(fm, 0, [], "trivial", seed, witness,
                           denominators=log.entries)
    for kind, ts in _candidate_streams(src, e, seed, budget):
        pts = [(ParamPoly.build(src, fm.domain,
                                ((eexp, fm.domain.ring.const(c)) for eexp, c in t.terms)), None)
               for t in ts]
        log_try = DenominatorLog(fm.domain)
        ok, witness, contraction = _param_module_finite_over_tags(fm, pts, log_try)
        if not ok or contraction:
            continue
        return NoetherData(fm, e, pts, kind, seed, witness,
                           denominators=log_try.entries)
    raise NormalizationBudgetExceeded(f"no normalization found within budget {budget}")


def adapted_check(component: IdealHandle, nd: NoetherData) -> bool:
    """True iff the component's ideal contracts to (0) in the normalization
    tag ring; the computational content of hitting the generic point."""
    fm = nd.fiber
    src = fm.morphism.source.ring
    if nd.e == 0:
        return True
    if fm.kind == "rational":
        ext, lift, tvars, _ = _tag_ring(src, nd.e)
        gens = [lift(g) for g in component.generators]
        gens += [tvars[j] - lift(nd.ts[j]) for j in range(nd.e)]
        contraction = eliminate(IdealHandle(ext, gens), list(range(src.nvars)))
        return contraction.is_zero()
    # generic: contract inside the parametric engine
    main, lift, tvars, _ = _tag_ring(src, nd.e)
    log = DenominatorLog(fm.domain)
    oracle = generic_oracle(fm.domain, log)
    gens = []
    for g in component.generators if isinstance(component, IdealHandle) else []:
        gens.append(ParamPoly.build(
            main, fm.domain,
            ((eexp + (0,) * nd.e, fm.domain.ring.const(c)) for eexp, c in g.terms)))
    for g in fm.param_basis:
        gens.append(ParamPoly.build(
            main, fm.domain,
            ((eexp + (0,) * nd.e, c) for eexp, c in g.terms.items())))
    for j, (t, den) in enumerate(nd.ts):
        # (t, den) stands for t/den; the denominator is a unit in the
        # residue field, so contraction against the numerator is equivalent
        tpoly = ParamPoly.build(
            main, fm.domain,
            ((eexp + (0,) * nd.e, c) for eexp, c in t.terms.items()))
        tag = ParamPoly.build(
            main, fm.domain,
            [(tuple(1 if i == src.nvars + j else 0 for i in range(main.nvars)),
              fm.domain.one())])
        gens.append(tag.sub(tpoly))
    front = list(range(src.nvars))
    basis = param_buchberger(gens, block_order(front), fm.domain, oracle)
    return not param_front_free(basis, front)


def lift_clear_denominators(nd: NoetherData, morphism: Morphism, y: Point):
    """Images s_j in B of the normalization elements, denominators cleared.

    Over Q the t_j are scaled to integer coefficients; over a generic point
    each t_j is multiplied by its denominator (a unit in the residue field)
    and coefficients are lifted through the morphism's generator images.
    Module-finiteness is re-verified after scaling; failure raises LiftFailure.
    """
    fm = nd.fiber
    src = morphism.source.ring
    if nd.e == 0:
        return []
    if fm.kind == "rational":
        out = []
        for t in nd.ts:
            if src.field.char == 0:
                denom = 1
                for _, c in t.terms:
                    denom = denom * c.denominator // _gcd_int(denom, c.denominator)
                s = t.scale(Fraction(denom)) if denom != 1 else t
            else:
                s = t
            out.append(s)
        ok, _, _ = _module_finite_over_tags(list(fm.relations.generators), out, src)
        if not ok:
            raise LiftFailure("scaled elements fail the finiteness re-check")
        return out
    # generic fiber: clear the recorded denominator, lift coefficients to B
    out = []
    scaled_pts = []
    for t, den in nd.ts:
        # (t, den) stands for t/den; clearing the denominator (a unit of
        # the residue field) leaves exactly the numerator
        scaled = t.renormalize()
        scaled_pts.append((scaled, None))
        s = src.zero()
        for mexp, coeff in sorted(scaled.terms.items()):
            mapped = coeff.map_vars(src, morphism.images)
            s = s + mapped * Polynomial(src, ((mexp, src.field.one),))
        out.append(morphism.source.reduce(s))
    log = DenominatorLog(fm.domain)
    ok, _, contraction = _param_module_finite_over_tags(fm, scaled_pts, log)
    if not ok or contraction:
        raise LiftFailure("scaled elements fail the finiteness re-check over the residue field")
    return out


def _gcd_int(a, b):
    while b:
        a, b = b, a % b
    return a


# -- the factorization certificate ------------------------------------------


class PredicateRecord:
    def __init__(self, name: str, ok: bool, evidence):
        self.name = name
        self.ok = ok
        self.evidence = evidence

    def __repr__(self):
        return f"[{'ok' if self.ok else 'FAIL'}] {self.name}"


class FactorizationCertificate:
    def __init__(self, morphism, y, x0, e, lifted, induced, predicates,
                 seed, notes, probes=()):
        self.morphism = morphism
        self.y = y
        self.x0 = x0
        self.e = e
        self.lifted = list(lifted)       # s_1..s_e in the source ring
        self.induced = induced           # g: A[T] -> B
        self.predicates = predicates
        self.seed = seed
        self.notes = list(notes)
        self.probes = tuple(probes)

    def all_ok(self) -> bool:
        return all(p.ok for p in self.predicates)

    def failed(self):
        return [p.name for p in self.predicates if not p.ok]

    def __repr__(self):
        status = "ok" if self.all_ok() else f"FAILED {self.failed()}"
        return f"FactorizationCertificate(e={self.e}, {status})"


def extend_with_tags(target: Algebra, e: int):
    """A[T_1..T_e] as an Algebra, tags appended after the target variables."""
    if e == 0:
        return target, []
    ring = target.ring
    names = ring.fresh_names("T", e)
    ext = ring.extend(tuple(names))
    lift = lambda f: Polynomial(ext, tuple((eexp + (0,) * e, c) for eexp, c in f.terms))
    rels = IdealHandle(ext, [lift(g) for g in target.relations.generators])
    return Algebra(ext, rels, name=(target.name or "A") + f"[T^{e}]"), \
        [ext.var(ring.nvars + j) for j in range(e)]


def build_factorization(morphism: Morphism, y: Point, x0: Point, probes=(),
                        seed: int = 0) -> FactorizationCertificate:
    """Run the full pipeline and emit a certificate; any failed sub-check
    aborts with the failed predicate named."""
    fm = fiber(morphism, y)
    if fm.empty:
        raise PreconditionFailed("empty fiber: y is not in the image")
    e = fm.dim()
    notes = []
    src_alg = morphism.source
    src = src_alg.ring

    # x0 must be a maximal point of the fiber with top-dimensional component
    comp = x0.component
    if fm.kind == "rational":
        if comp is None:
            comp = x0.ideal
        for g in fm.relations.generators:
            if not x0.ideal.contains(g):
                raise PreconditionFailed("x0 does not lie on the fiber")
        comp_dim = krull_dim(comp)
        if comp_dim != e:
            raise PreconditionFailed(
                f"x0's component has dimension {comp_dim}, fiber dimension is {e}; "
                "only top-dimensional components are supported")
    else:
        notes.append("generic fiber treated as a single pseudo-prime component")

    nd = noether_normalize(fm, seed=seed)
    if fm.kind == "rational":
        adapted = adapted_check(comp, nd)
    else:
        adapted = adapted_check(IdealHandle(fm.domain.ring, []), nd)
    if not adapted:
        raise PreconditionFailed("adapted-normalization: component contraction is nonzero")

    lifted = lift_clear_denominators(nd, morphism, y)
    at_alg, tvars = extend_with_tags(morphism.target, e)
    images = [
        Polynomial(src, f.terms) for f in morphism.images
    ] + list(lifted)
    induced = Morphism(at_alg, src_alg, images,
                       name=(morphism.name or "f") + "_factor")

    predicates = []

    # P1: g composed with the structure map reproduces f exactly
    comp_ok = all(
        induced.images[i] == morphism.images[i]
        for i in range(morphism.target.ring.nvars)
    )
    predicates.append(PredicateRecord(
        "composition-identity", comp_ok,
        {"images": [str(p) for p in induced.images]}))

    # P2/P3: fiber-level leg is module-finite with zero kernel contraction
    if fm.kind == "rational":
        ok_mf, witness, contraction = _module_finite_over_tags(
            list(fm.relations.generators), lifted, src)
        contraction_strs = [str(g) for g in contraction]
    else:
        log = DenominatorLog(fm.domain)
        ok_mf, witness, contraction = _param_module_finite_over_tags(
            fm, [(split_to_param(fm, s), None) for s in lifted] if e else [], log)
        contraction_strs = [str(g) for g in contraction]
    predicates.append(PredicateRecord(
        "fiber-leg-module-finite", ok_mf,
        {"pure_powers": {src.vars[i]: list(w) for i, w in witness.items()}}))
    predicates.append(PredicateRecord(
        "fiber-leg-zero-contraction", not contraction,
        {"contraction": contraction_strs}))

    # P4: x0's ideal contracts to (0) in the tag polynomial ring
    if fm.kind == "rational":
        if e == 0:
            p4_ok, p4_evi = True, {"contraction": []}
        else:
            ext, lift, tv, _ = _tag_ring(src, e)
            gens = [lift(g) for g in x0.ideal.generators]
            gens += [tv[j] - lift(lifted[j]) for j in range(e)]
            contr = eliminate(IdealHandle(ext, gens), list(range(src.nvars)))
            p4_ok = contr.is_zero()
            p4_evi = {"contraction": [str(g) for g in contr.generators]}
    else:
        p4_ok = not contraction
        p4_evi = {"contraction": contraction_strs,
                  "note": "generic point of the whole fiber"}
    predicates.append(PredicateRecord("point-contracts-to-generic", p4_ok, p4_evi))

    # P5: every source component dominates affine e-space over the target
    comps, cover_tag = decompose_components(src_alg.relations)
    dom_evi = []
    dom_ok = True
    for c in comps:
        ok, wit = dominates(c, induced)
        dom_evi.append({
            "component": [str(g) for g in c.generators],
            "dominates": ok,
            "witness": [str(g) for g in wit.generators],
        })
        dom_ok = dom_ok and ok
    predicates.append(PredicateRecord(
        "components-dominate-affine-space", dom_ok, {"components": dom_evi}))

    # P6: quasi-finiteness on strata covering the generic point of p^-1(y)
    # and every supplied probe
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
    predicates.append(PredicateRecord("quasi-finite-on-strata", p6_ok, p6_evi))

    cert = FactorizationCertificate(
        morphism, y, x0, e, lifted, induced, predicates, seed, notes,
        probes=probes)
    if not cert.all_ok():
        raise PreconditionFailed(f"factorization predicates failed: {cert.failed()}")
    return cert


def split_to_param(fm: FiberModel, s: Polynomial) -> ParamPoly:
    src = fm.morphism.source.ring
    return ParamPoly.build(
        src, fm.domain,
        ((e, fm.domain.ring.const(c)) for e, c in s.terms))


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
    lifted = IdealHandle(tring, [
        Polynomial(tring, tuple((eexp + (0,) * (tring.nvars - base_n), c)
                                for eexp, c in g.terms))
        for g in q.generators
    ])
    for g in stratum.constraints.generators:
        if not radical_membership(g, lifted):
            return False
    for nz in stratum.nonzeros:
        if radical_membership(nz, lifted):
            return False
    return True


def verify_factorization(cert: FactorizationCertificate):
    """Verify a certificate the way `equipure verify` does: replay
    `build_factorization` on its recorded inputs and diff the payload.
    Returns (ok, failures)."""
    from .reports import factorization_certificate_obj, verify_certificate

    return verify_certificate(factorization_certificate_obj(cert))


# -- equidimensionality reports ------------------------------------------------


class EquidimReport:
    def __init__(self, e, verdict, evidence, witness=None):
        self.e = e
        self.verdict = verdict          # certified-at-probes | refuted | inconclusive
        self.evidence = evidence
        self.witness = witness

    def certified(self) -> bool:
        return self.verdict == "certified-at-probes"

    def __repr__(self):
        return f"EquidimReport(e={self.e}, {self.verdict})"


def verify_equidimensional_at(morphism: Morphism, x: Point, probes=()) -> EquidimReport:
    """Checks the dominance + constant-fiber-dimension characterization at x,
    at each probe, and at the generic point of each dominated target
    component."""
    evidence = []
    try:
        e0 = fiber_dim_at(morphism, x)
    except UnsupportedPointKind as exc:
        return EquidimReport(None, "inconclusive", [{"error": str(exc)}])
    evidence.append({"check": "fiber-dim-at-x", "dim": e0})

    comps, _ = decompose_components(morphism.source.relations)
    through_x = [c for c in comps
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
            return EquidimReport(e0, "refuted", evidence,
                                 witness={"component": [str(g) for g in c.generators]})
        witnesses.append(wit)

    for pr in probes:
        d = fiber_dim_at(morphism, pr)
        evidence.append({"check": "fiber-dim-at-probe",
                         "probe": [str(c) for c in pr.coords], "dim": d})
        if d != e0:
            return EquidimReport(e0, "refuted", evidence,
                                 witness={"probe": [str(c) for c in pr.coords],
                                          "dim": d})

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
            return EquidimReport(e0, "refuted", evidence,
                                 witness={"target_component": list(key),
                                          "generic_dim": d})
    return EquidimReport(e0, "certified-at-probes", evidence)


def maximal_points_of_fiber(morphism: Morphism, y: Point):
    """Generic points of the fiber's component cover, tagged with dimension."""
    fm = fiber(morphism, y)
    if fm.kind == "rational":
        if fm.empty:
            return []
        fiber_alg = Algebra(morphism.source.ring, fm.relations, name="fiber")
        comps, _ = decompose_components(fm.relations)
        return [generic_point_of(fiber_alg, c) for c in comps]
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
