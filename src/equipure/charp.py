"""Frobenius machinery: bracket powers, the hypersurface F-purity test,
parameter sequences, tight-closure membership evidence and the descent
harness for F-rationality along equidimensional partially-pure maps.

One-sidedness is labeled honestly throughout: a failed membership
c * z^(p^e) in I^[p^e] certifies non-membership in the tight closure only
when c is a genuine test element (unconditional for c = 1 over a regular
ring), and passing all levels up to the bound E is evidence, never a proof,
so the verdict is EvidenceInClosure(E) rather than Member.

A level never builds z^(p^e). With G a Groebner basis of J = I^[q] +
relations, q = p^e, `_level_inside` raises the normal form of z to the p-th
power e times, reducing by G after each step, and reduces c times the
result: h = NF(h) mod J gives h^p = NF(h)^p mod J, and over F_p a p-th
power only scales exponents (`frobenius_poly_power`). So each polynomial
divided is a normal form's p-th power or c times a normal form, where z^q
alone has degree q deg z.

The report code of the `fedder`, `tc-member`, `f-rational-probe` and
`descend-check` commands lives here too (the last section): their
producers, certificate builders, payload decoders and identity check.
`f_rational_probe` returns the verdict, details and witness its
certificate records, and `f_rational_descent_check` builds the `descent`
payload itself; no record class stands between them and the payload.
`reports.PRODUCERS` names the producers by module and function, and
`reports._REPLAY` the decoders and checks by name, so a process that runs
or replays none of these commands never compiles this module.
"""

from __future__ import annotations

import itertools

from .errors import (
    BadCharacteristic,
    HypothesisFailed,
    NotEquidimensionalBase,
    NotHypersurface,
)
from .factorization import verify_equidimensional_at
from .groebner import _memoized, normal_form
from .ideals import IdealHandle, krull_dim, radical_membership, standard_exponents
from .orders import GREVLEX
from .poly import Polynomial
from .purity import witness_outside
from .reports import (
    EXIT_ERROR,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_REFUTED,
    algebra_from_obj,
    algebra_to_obj,
    ideal_from_obj,
    ideal_to_obj,
    morphism_from_obj,
    morphism_to_obj,
    point_from_obj,
    point_to_obj,
    poly_from_obj,
    poly_to_obj,
    ring_from_obj,
    ring_to_obj,
)
from .schemes import (
    Algebra,
    Morphism,
    Point,
    decompose_components,
    is_module_finite,
)

# Largest Frobenius power p^bound a tight-closure probe may reach. A level
# reduces by a basis of I^[p^e] + relations, which grows with p^e when no
# rotation of grevlex makes the generators' leading terms coprime. On the
# corpus's F7 cubic, where one does, `tc-member` at bound 4 (7^4) takes
# about 6 ms in-process.
MAX_FROBENIUS_POWER = 7 ** 4


class FrobeniusContext:
    def __init__(self, algebra: Algebra):
        if algebra.field.char == 0:
            raise BadCharacteristic("Frobenius context needs characteristic p > 0")
        self.p = algebra.field.char
        self.algebra = algebra

    def __repr__(self):
        return f"FrobeniusContext(p={self.p}, {self.algebra.name or self.algebra.ring})"


def frobenius_poly_power(f: Polynomial, e: int, p: int) -> Polynomial:
    """f^(p^e) over F_p: Frobenius is additive and fixes the prime field, so
    exponent vectors just scale by p^e."""
    if f.ring.field.char != p:
        raise BadCharacteristic("polynomial not over F_p")
    q = p ** e
    return Polynomial(f.ring, tuple((tuple(k * q for k in exp), c) for exp, c in f.terms))


def frobenius_power(handle: IdealHandle, e: int, ctx: FrobeniusContext) -> IdealHandle:
    """The bracket power I^[p^e]: generator-wise p^e-th powers."""
    if e < 0:
        raise ValueError("negative Frobenius exponent")
    if handle.ring.field.char != ctx.p:
        raise BadCharacteristic("ideal not over the context's prime field")
    return IdealHandle(handle.ring,
                       [frobenius_poly_power(g, e, ctx.p) for g in handle.generators])


def _level_inside(algebra: Algebra, bracket: IdealHandle, z: Polynomial,
                  multiplier: Polynomial, e: int, p: int) -> bool:
    """multiplier * z^(p^e) in bracket + relations, where `bracket` is
    I^[p^e], by iterated Frobenius on normal forms (see the module
    docstring). Decided once per process for each input."""
    handle = bracket.with_extra(algebra.relations.generators)

    def decide():
        basis, order = handle.groebner_any()
        v = normal_form(z, basis, order)
        for _ in range(e):
            v = normal_form(frobenius_poly_power(v, 1, p), basis, order)
        return normal_form(multiplier * v, basis, order).is_zero()

    return _memoized(("tc-level", handle.ring, handle.generators, z, multiplier, e), decide)


def fedder_f_pure(defining: Polynomial, m: Point, ctx: FrobeniusContext) -> bool:
    """Hypersurface F-purity at a rational point c by Fedder's criterion
    (Trans. AMS 278, 1983): f^(p-1) must stay outside m^[p]. Moved by
    x_i -> x_i + c_i, m^[p] is the monomial ideal (x_i^p), so some term of
    the moved f^(p-1) must have every exponent below p."""
    p = ctx.p
    if defining.ring.field.char != p:
        raise BadCharacteristic("defining polynomial not over the context field")
    if m.kind != "rational-closed":
        raise NotHypersurface("the F-purity test needs a rational maximal ideal")
    if defining.eval_at(m.coords) != defining.ring.field.zero:
        raise NotHypersurface("the point does not lie on the hypersurface")
    ring = defining.ring
    moved = defining.map_vars(ring, [ring.var(i) + ring.const(c)
                                     for i, c in enumerate(m.coords)])
    return any(all(e < p for e in exp) for exp, _ in (moved ** (p - 1)).terms)


def is_parameter_sequence(algebra: Algebra, elems) -> bool:
    """Dimension-drop test, valid for the equidimensional catenary corpus
    rings: each cut must lower the dimension by exactly one. The base must be
    equidimensional per its component cover."""
    dims = {krull_dim(c) for c in decompose_components(algebra.relations)}
    if len(dims) > 1:
        raise NotEquidimensionalBase(f"component dimensions {sorted(dims)} differ")
    d0 = krull_dim(algebra.relations)
    gens = list(algebra.relations.generators)
    for i, x in enumerate(elems, start=1):
        gens = gens + [x]
        if krull_dim(IdealHandle(algebra.ring, gens)) != d0 - i:
            return False
    return True


def jacobian_test_candidates(algebra: Algebra):
    """Multiplier candidates for tight-closure tests on a hypersurface:
    partial derivatives of the defining equation that avoid every component
    of the relation ideal, with 1 prepended when the Jacobian ideal is the
    unit ideal (smooth case) or the ring is a polynomial ring."""
    ring = algebra.ring
    if algebra.relations.is_zero():
        return [ring.one()]
    gb = algebra.relations.groebner()
    if len(gb) != 1:
        raise NotHypersurface("candidates need a principal relation ideal")
    h = gb[0]
    partials = [h.derivative(i) for i in range(ring.nvars)]
    comps = decompose_components(algebra.relations)
    out = []
    jac = IdealHandle(ring, [h] + partials)
    if jac.is_unit():
        out.append(ring.one())
    for d in partials:
        if d.is_zero():
            continue
        if all(not radical_membership(d, c) for c in comps):
            out.append(d)
    return out


class TCVerdict:
    """Outcome of a bounded tight-closure membership probe."""

    MEMBER = "Member"
    NOT_IN_CLOSURE = "NotInClosure"
    EVIDENCE = "EvidenceInClosure"

    def __init__(self, algebra, z, ideal, multiplier, bound, status,
                 witness_exponent=None, levels=()):
        self.algebra = algebra
        self.z = z
        self.ideal = ideal
        self.multiplier = multiplier
        self.bound = bound
        self.status = status
        self.witness_exponent = witness_exponent
        self.levels = tuple(levels)   # (e, in_bracket_power) pairs

    def recheck(self, ctx: FrobeniusContext) -> bool:
        """Re-verify the recorded memberships from scratch."""
        # a level outside 1..bound was never tested, and its bracket power
        # can be too large to compute
        if any(not 1 <= e <= self.bound for e, _ in self.levels):
            return False
        if self.status == self.MEMBER:
            return self.ideal.with_extra(self.algebra.relations.generators).contains(self.z)
        for e, inside in self.levels:
            bracket = frobenius_power(self.ideal, e, ctx)
            if _level_inside(self.algebra, bracket, self.z, self.multiplier,
                             e, ctx.p) != inside:
                return False
        if self.status == self.NOT_IN_CLOSURE:
            return any(e == self.witness_exponent and not inside
                       for e, inside in self.levels)
        return all(inside for _, inside in self.levels)

    def __repr__(self):
        if self.status == self.NOT_IN_CLOSURE:
            return f"TCVerdict(NotInClosure({self.witness_exponent}))"
        if self.status == self.EVIDENCE:
            return f"TCVerdict(EvidenceInClosure({self.bound}))"
        return "TCVerdict(Member)"


def tc_member_certificate(z: Polynomial, ideal: IdealHandle, multiplier: Polynomial,
                          bound: int, ctx: FrobeniusContext) -> TCVerdict:
    """Test c * z^(p^e) in I^[p^e] for e = 1..bound inside the context ring.

    Membership of z itself short-circuits to Member. A failing level is a
    non-membership certificate conditional on the multiplier being a genuine
    test element; all levels passing is explicitly non-conclusive evidence.
    """
    if bound < 1:
        raise ValueError("Frobenius bound must be at least 1")
    # p >= 2, so a bound past the limit's bit length is over the limit; the
    # first test keeps p ** bound from being computed for such a bound
    if bound > MAX_FROBENIUS_POWER.bit_length() or ctx.p ** bound > MAX_FROBENIUS_POWER:
        raise ValueError(f"Frobenius bound {bound}: {ctx.p}^{bound} exceeds the limit "
                         f"{MAX_FROBENIUS_POWER}")
    if multiplier.is_zero():
        raise ValueError("multiplier must be nonzero")
    alg = ctx.algebra
    if ideal.with_extra(alg.relations.generators).contains(z):
        return TCVerdict(alg, z, ideal, multiplier, bound, TCVerdict.MEMBER)
    levels = []
    for e in range(1, bound + 1):
        bracket = frobenius_power(ideal, e, ctx)
        inside = _level_inside(alg, bracket, z, multiplier, e, ctx.p)
        levels.append((e, inside))
        if not inside:
            return TCVerdict(alg, z, ideal, multiplier, bound,
                             TCVerdict.NOT_IN_CLOSURE,
                             witness_exponent=e, levels=levels)
    return TCVerdict(alg, z, ideal, multiplier, bound, TCVerdict.EVIDENCE,
                     levels=levels)


# -- F-rationality probing -------------------------------------------------------


# the degree cap of the standard monomials an F-rationality probe tests
MONOMIAL_DEGREE_CAP = 40


def standard_monomials(algebra: Algebra, handle: IdealHandle):
    """Monomial basis of the quotient by (handle + relations), degree-capped."""
    gb = handle.with_extra(algebra.relations.generators).groebner()
    if gb and gb[0].is_constant():
        return []
    leads = [g.leading(GREVLEX)[0] for g in gb]
    return [Polynomial(algebra.ring, ((exps, algebra.field.one),))
            for exps in standard_exponents(leads, algebra.ring.nvars, MONOMIAL_DEGREE_CAP)]


def f_rational_probe(algebra: Algebra, sops, bound: int, ctx: FrobeniusContext):
    """For each given parameter sequence, test every standard monomial of
    the quotient against every multiplier candidate. Never claims
    F-rationality outright; a clean run is bounded evidence only.

    Returns (verdict, details, witness), as the `f-rational-probe`
    certificate records them: the verdict is no-counterexample-at-level-E
    (clean), NotFRational or inconclusive-no-candidates; details hold one
    record per monomial tested; the witness, {"z", "ideal"}, is the first
    monomial that only evidence placed in the closure, or None."""
    if not sops:
        raise ValueError("sops () is empty: need at least one parameter sequence")
    candidates = jacobian_test_candidates(algebra)
    if not candidates:
        return ("inconclusive-no-candidates",
                [{"reason": "no multiplier candidates survive the component filter"}], None)
    details = []
    witness = None
    for seq in sops:
        if not is_parameter_sequence(algebra, seq):
            raise HypothesisFailed("parameter-sequence",
                                   f"{[str(s) for s in seq]} fails the dimension-drop test")
        ideal = IdealHandle(algebra.ring, list(seq))
        for z in standard_monomials(algebra, ideal):
            if ideal.with_extra(algebra.relations.generators).contains(z):
                continue
            z_record = {"z": str(z), "ideal": [str(s) for s in seq], "runs": []}
            certified_out = False
            evidence_in = False
            for c in candidates:
                verdict = tc_member_certificate(z, ideal, c, bound, ctx)
                z_record["runs"].append({"multiplier": str(c),
                                         "status": verdict.status,
                                         "witness_exponent": verdict.witness_exponent})
                if verdict.status == TCVerdict.NOT_IN_CLOSURE:
                    certified_out = True
                    break
                if verdict.status == TCVerdict.EVIDENCE:
                    evidence_in = True
            details.append(z_record)
            if not certified_out and evidence_in and witness is None:
                witness = {"z": str(z), "ideal": [str(s) for s in seq]}
    if witness is not None:
        return "NotFRational", details, witness
    return f"no-counterexample-at-level-{bound}", details, None


# -- the descent harness -----------------------------------------------------------


def f_rational_descent_check(morphism: Morphism, y: Point, probes, bound: int):
    """Cross-check F-rationality descent along an equidimensional map that is
    pure at y. Refuses non-equidimensional input; flags a soundness alarm if
    the source probes clean while the target shows a counterexample with all
    hypotheses checked.

    Returns (payload, assumptions): the `descent` certificate, with the
    verdict consistent or inconsistent, the source's and the target's
    F-rationality verdicts, the purity witness and the alarms, and the
    assumption ledger."""
    if morphism.source.field.char == 0:
        raise BadCharacteristic("the descent harness runs in characteristic p > 0")
    assumptions = [
        {"status": "assumed",
         "text": "corpus algebras are taken universally catenary (finite type over a field)"},
        {"status": "assumed",
         "text": "multiplier candidates are treated as test elements; negative verdicts are conditional on that"},
    ]
    if not probes:
        raise ValueError("probes () is empty: need at least one source probe point")
    verdict = verify_equidimensional_at(morphism, probes[0], probes=list(probes[1:]))["verdict"]
    if verdict != "certified-at-probes":
        raise HypothesisFailed(
            "equidimensionality",
            f"verdict {verdict}: descent is false without the locally "
            "equidimensional hypothesis")
    if is_module_finite(morphism):
        witness_pure = witness_outside(morphism, y) is not None
        purity_witness = {"route": "module-finite splitting ideal",
                          "pure_at_y": witness_pure}
        if not witness_pure:
            raise HypothesisFailed("partial-purity", "splitting ideal contained in y")
    else:
        raise HypothesisFailed(
            "partial-purity", "no purity witness: the harness requires a module-finite map")

    src_alg, tgt_alg = morphism.source, morphism.target
    src_ctx, tgt_ctx = FrobeniusContext(src_alg), FrobeniusContext(tgt_alg)
    src_verdict = f_rational_probe(src_alg, [_default_sop(src_alg)], bound, src_ctx)[0]
    tgt_verdict = f_rational_probe(tgt_alg, [_default_sop(tgt_alg)], bound, tgt_ctx)[0]

    alarms = []
    if _clean(src_verdict) and not _clean(tgt_verdict):
        alarms.append(
            "soundness alarm: source probes clean and hypotheses verified, but the "
            "target shows a counterexample")
    return {"kind": "descent", "morphism": morphism_to_obj(morphism), "y": point_to_obj(y),
            "probes": [point_to_obj(p) for p in probes], "bound": bound,
            "verdict": "consistent" if not alarms else "inconsistent",
            "source_verdict": src_verdict, "target_verdict": tgt_verdict,
            "purity_witness": purity_witness, "alarms": alarms}, assumptions


def _clean(verdict):
    """An F-rationality probe's verdict found no counterexample."""
    return verdict.startswith("no-counterexample")


def _default_sop(algebra: Algebra):
    """First variable subset passing the parameter-sequence test."""
    d = krull_dim(algebra.relations)
    ring = algebra.ring
    for combo in itertools.combinations(range(ring.nvars), d):
        seq = [ring.var(i) for i in combo]
        if is_parameter_sequence(algebra, seq):
            return seq
    raise HypothesisFailed("parameter-sequence", "no variable subset works; supply one")


# -- reports ------------------------------------------------------------------------
#
# The report code of the `fedder`, `tc-verdict`, `f-rational-probe`
# and `descent` kinds.


TEST_ELEMENT_NOTE = {
    "status": "assumed",
    "text": "multiplier candidates are treated as test elements; negative closure verdicts are conditional on that",
}


def tc_certificate_obj(verdict, ctx):
    return {
        "kind": "tc-verdict",
        "algebra": algebra_to_obj(verdict.algebra),
        "z": poly_to_obj(verdict.z),
        "ideal": ideal_to_obj(verdict.ideal),
        "multiplier": poly_to_obj(verdict.multiplier),
        "bound": verdict.bound,
        "status": verdict.status,
        "witness_exponent": verdict.witness_exponent,
        "levels": [[e, flag] for e, flag in verdict.levels],
        "p": ctx.p,
    }


def produce_fedder(algebra, point, **_):
    gb = algebra.relations.groebner()
    if len(gb) != 1:
        raise NotHypersurface("fedder needs a hypersurface ring")
    ctx = FrobeniusContext(algebra)
    f_pure = fedder_f_pure(gb[0], point, ctx)
    cert = {"kind": "fedder", "ring": ring_to_obj(gb[0].ring), "defining": poly_to_obj(gb[0]),
            "point": point_to_obj(point), "p": ctx.p, "f_pure": f_pure}
    return "F-pure" if f_pure else "not-F-pure", EXIT_OK if f_pure else EXIT_REFUTED, cert, []


def produce_tc(algebra, z, ideal, multiplier, bound, **_):
    ctx = FrobeniusContext(algebra)
    verdict = tc_member_certificate(z, ideal, multiplier, bound, ctx)
    exit_class = {TCVerdict.MEMBER: EXIT_OK, TCVerdict.NOT_IN_CLOSURE: EXIT_REFUTED}.get(
        verdict.status, EXIT_INCONCLUSIVE)
    return (verdict.status, exit_class, tc_certificate_obj(verdict, ctx),
            [TEST_ELEMENT_NOTE])


def produce_f_rational(algebra, sops, bound, **_):
    verdict, details, witness = f_rational_probe(algebra, sops, bound, FrobeniusContext(algebra))
    exit_class = EXIT_OK if _clean(verdict) else (
        EXIT_REFUTED if verdict == "NotFRational" else EXIT_INCONCLUSIVE)
    cert = {"kind": "f-rational-probe", "algebra": algebra_to_obj(algebra),
            "sops": [[poly_to_obj(s) for s in seq] for seq in sops], "bound": bound,
            "verdict": verdict, "details": details, "witness": witness}
    return (verdict, exit_class, cert,
            [TEST_ELEMENT_NOTE,
             {"status": "assumed",
              "text": "dimension-drop parameter test valid for the equidimensional catenary corpus"}])


def produce_descent(morphism, y, probes, bound, **_):
    try:
        cert, assumptions = f_rational_descent_check(morphism, y, probes, bound)
    except HypothesisFailed as exc:
        return f"refused: {exc}", EXIT_ERROR, None, []
    ok = cert["verdict"] == "consistent"
    return cert["verdict"], EXIT_OK if ok else EXIT_REFUTED, cert, assumptions


def _fedder_inputs(p):
    ring = ring_from_obj(p["ring"])
    return {"algebra": Algebra(ring, IdealHandle(ring, [poly_from_obj(ring, p["defining"])])),
            "point": point_from_obj(p["point"])}


def _tc_inputs(p):
    alg = algebra_from_obj(p["algebra"])
    return {"algebra": alg, "z": poly_from_obj(alg.ring, p["z"]),
            "ideal": ideal_from_obj(alg.ring, p["ideal"]),
            "multiplier": poly_from_obj(alg.ring, p["multiplier"]),
            "bound": int(p["bound"])}


def _f_rational_inputs(p):
    alg = algebra_from_obj(p["algebra"])
    return {"algebra": alg, "bound": int(p["bound"]),
            "sops": [[poly_from_obj(alg.ring, s) for s in seq] for seq in p["sops"]]}


def _descent_inputs(p):
    return {"morphism": morphism_from_obj(p["morphism"]), "y": point_from_obj(p["y"]),
            "probes": [point_from_obj(q) for q in p["probes"]], "bound": int(p["bound"])}


def _tc_recheck(p, inputs):
    we = p["witness_exponent"]
    recorded = TCVerdict(inputs["algebra"], inputs["z"], inputs["ideal"],
                         inputs["multiplier"], inputs["bound"], p["status"],
                         witness_exponent=int(we) if we is not None else None,
                         levels=[(int(e), bool(f)) for e, f in p["levels"]])
    ok = recorded.recheck(FrobeniusContext(inputs["algebra"]))
    return [] if ok else ["recorded-membership-fails-recheck"]
