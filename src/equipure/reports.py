"""Canonical JSON reports and self-verifying certificates.

Serialization rules: keys sorted, every integer rendered as a decimal
string, polynomials as ordered term arrays in the canonical storage order.
Two runs with the same session and seed produce byte-identical files.

`verify_certificate` replays the producer that wrote a certificate on the
inputs the payload records, diffs the whole canonical payload and names the
first differing path. It also runs the identity checks that hold of the
recorded outputs themselves (a Groebner basis reducing its generators, the
sigma identities of a splitting, a purity witness inside the splitting ideal
and outside the point, the recorded Frobenius memberships) and names any
that fails.

The producers and checks that need `factorization`, `purity` or `charp`
import it when called, so a process whose reports need none of them never
compiles it (nor `modules` under `purity`): a `gb` session compiles none.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import __version__
from .errors import HypothesisFailed, NotHypersurface, PreconditionFailed
from .fields import FieldSpec
from .groebner import is_groebner, normal_form
from .ideals import IdealHandle, krull_dim
from .orders import GREVLEX, MonomialOrder
from .poly import Polynomial, PolynomialRing
from .schemes import (
    PSEUDO_PRIME_NOTE,
    Algebra,
    Morphism,
    Point,
    fiber_dim_at,
)


# -- canonical JSON -----------------------------------------------------------


def _stringify(obj):
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {k: _stringify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_stringify(v) for v in obj]
    raise TypeError(f"cannot canonicalize {type(obj)}")


def canonical_json(obj) -> str:
    return json.dumps(_stringify(obj), sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True)


# -- core object codecs ---------------------------------------------------------


def ring_to_obj(ring: PolynomialRing):
    return {"char": ring.field.char, "vars": list(ring.vars)}


def ring_from_obj(obj) -> PolynomialRing:
    return PolynomialRing(FieldSpec(int(obj["char"])), obj["vars"])


def coeff_from_str(field: FieldSpec, s: str):
    if field.char == 0:
        num, _, den = s.partition("/")
        return field.of(int(num), int(den) if den else 1)
    return int(s) % field.char


def poly_to_obj(f: Polynomial):
    return [[[str(e) for e in exp], str(c)] for exp, c in f.terms]


def poly_from_obj(ring: PolynomialRing, obj) -> Polynomial:
    terms = []
    for exp, c in obj:
        terms.append((tuple(int(e) for e in exp), coeff_from_str(ring.field, c)))
    return ring.from_terms(terms)


def ideal_to_obj(handle: IdealHandle):
    return [poly_to_obj(g) for g in handle.generators]


def ideal_from_obj(ring: PolynomialRing, obj) -> IdealHandle:
    return IdealHandle(ring, [poly_from_obj(ring, g) for g in obj])


def order_to_obj(order: MonomialOrder):
    return {"kind": order.kind, "front": list(order.front),
            "perm": list(order.perm) if order.perm else None}


def order_from_obj(obj) -> MonomialOrder:
    perm = obj["perm"]
    return MonomialOrder(obj["kind"], front=[int(i) for i in obj["front"]],
                         perm=None if perm is None else [int(i) for i in perm])


def algebra_to_obj(alg: Algebra):
    return {
        "ring": ring_to_obj(alg.ring),
        "relations": ideal_to_obj(alg.relations),
        "name": alg.name,
    }


def algebra_from_obj(obj) -> Algebra:
    ring = ring_from_obj(obj["ring"])
    return Algebra(ring, ideal_from_obj(ring, obj["relations"]), obj.get("name", ""))


def morphism_to_obj(phi: Morphism):
    return {
        "target": algebra_to_obj(phi.target),
        "source": algebra_to_obj(phi.source),
        "images": [poly_to_obj(f) for f in phi.images],
        "name": phi.name,
    }


def morphism_from_obj(obj) -> Morphism:
    target = algebra_from_obj(obj["target"])
    source = algebra_from_obj(obj["source"])
    images = [poly_from_obj(source.ring, f) for f in obj["images"]]
    return Morphism(target, source, images, obj.get("name", ""))


def point_to_obj(p: Point):
    return {
        "kind": p.kind,
        "coords": [str(c) for c in p.coords] if p.coords is not None else None,
        "ideal": ideal_to_obj(p.ideal),
        "component": ideal_to_obj(p.component) if p.component is not None else None,
        "comp_dim": p.comp_dim,
        "algebra": algebra_to_obj(p.algebra),
    }


def point_from_obj(obj) -> Point:
    alg = algebra_from_obj(obj["algebra"])
    ideal = ideal_from_obj(alg.ring, obj["ideal"])
    comp = (ideal_from_obj(alg.ring, obj["component"])
            if obj.get("component") is not None else None)
    coords = None
    if obj.get("coords") is not None:
        coords = tuple(coeff_from_str(alg.field, c) for c in obj["coords"])
    return Point(alg, ideal, obj["kind"], coords=coords, component=comp,
                 comp_dim=int(obj["comp_dim"]) if obj.get("comp_dim") is not None else None)


# -- certificates ----------------------------------------------------------------


def groebner_certificate(handle: IdealHandle, order: MonomialOrder):
    basis = handle.groebner(order)
    return {
        "kind": "groebner-basis",
        "ring": ring_to_obj(handle.ring),
        "generators": ideal_to_obj(handle),
        "order": order_to_obj(order),
        "basis": [poly_to_obj(g) for g in basis],
    }


def dimension_certificate(handle: IdealHandle):
    return {
        "kind": "dimension",
        "ring": ring_to_obj(handle.ring),
        "generators": ideal_to_obj(handle),
        "dim": krull_dim(handle),
    }


def split_certificate_obj(cert):
    pres = cert.presentation
    return {
        "kind": "split",
        "morphism": morphism_to_obj(cert.morphism),
        "splits": cert.sigma is not None,
        "splitting_ideal": ideal_to_obj(cert.splitting),
        "sigma": [poly_to_obj(s) for s in cert.sigma] if cert.sigma is not None else None,
        "generators": [poly_to_obj(g) for g in pres.generators],
        "relation_columns": [[poly_to_obj(c) for c in col] for col in pres.relations],
    }


def factorization_certificate_obj(cert):
    return {
        "kind": "factorization",
        "morphism": morphism_to_obj(cert.morphism),
        "y": point_to_obj(cert.y),
        "x0": point_to_obj(cert.x0),
        "e": cert.e,
        "lifted": [poly_to_obj(s) for s in cert.lifted],
        "seed": cert.seed,
        "probes": [point_to_obj(p) for p in cert.probes],
        "predicates": [
            {"name": p.name, "ok": p.ok, "evidence": p.evidence}
            for p in cert.predicates
        ],
        "notes": list(cert.notes),
    }


def equidim_certificate_obj(morphism, x, probes, report):
    return {
        "kind": "equidim",
        "morphism": morphism_to_obj(morphism),
        "x": point_to_obj(x),
        "probes": [point_to_obj(p) for p in probes],
        "e": report.e,
        "verdict": report.verdict,
        "evidence": report.evidence,
        "witness": report.witness,
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


def fedder_certificate_obj(defining, m, ctx, verdict: bool):
    return {
        "kind": "fedder",
        "ring": ring_to_obj(defining.ring),
        "defining": poly_to_obj(defining),
        "point": point_to_obj(m),
        "p": ctx.p,
        "f_pure": verdict,
    }


def pure_at_certificate_obj(morphism, p, verdict, witness):
    return {
        "kind": "pure-at",
        "morphism": morphism_to_obj(morphism),
        "point": point_to_obj(p),
        "pure": verdict,
        "witness": poly_to_obj(witness) if witness is not None else None,
    }


def splinter_certificate_obj(report, covers):
    return {
        "kind": "splinter-probe",
        "base": algebra_to_obj(report.base),
        "covers": [morphism_to_obj(phi) for phi in covers],
        "verdicts": report.verdicts,
        "verdict": report.verdict,
        "witness": report.witness.name if report.witness is not None else None,
    }


def f_rational_certificate_obj(report, sops, bound):
    return {
        "kind": "f-rational-probe",
        "algebra": algebra_to_obj(report.algebra),
        "sops": [[poly_to_obj(s) for s in seq] for seq in sops],
        "bound": bound,
        "verdict": report.verdict,
        "details": report.details,
        "witness": {
            "z": report.witness["z"],
            "ideal": report.witness["ideal"],
        } if report.witness else None,
    }


def descent_certificate_obj(report, y, probes, bound):
    return {
        "kind": "descent",
        "morphism": morphism_to_obj(report.morphism),
        "y": point_to_obj(y),
        "probes": [point_to_obj(p) for p in probes],
        "bound": bound,
        "verdict": report.verdict,
        "source_verdict": report.source_report.verdict,
        "target_verdict": report.target_report.verdict,
        "purity_witness": report.purity_witness,
        "alarms": report.alarms,
    }


def strong_purity_certificate_obj(cert):
    records = []
    for r in cert.probe_records:
        records.append({
            "probe": r["probe"],
            "equidim_verdict": r["equidim"].verdict,
            "factorization": factorization_certificate_obj(r["factorization"]),
            "finite_leg": r["finite_leg"],
        })
    return {
        "kind": "strong-purity",
        "morphism": morphism_to_obj(cert.morphism),
        "base_class": cert.base_class,
        "base_evidence": cert.base_evidence,
        "probes": records,
    }


# the Frobenius evidence bound E of a session that sets none
DEFAULT_FROBENIUS_BOUND = 3


# -- producers ---------------------------------------------------------------------
#
# One per certificate kind (plus `fiber-dim`, which emits no certificate).
# `session.run_command` calls a producer on the objects a command names and
# `verify_certificate` calls it again on the objects a payload records.
# Each returns (verdict, exit class, certificate payload or None,
# assumptions). Every call passes `seed` and `bound`; a producer whose
# certificate does not record them ignores them.


TEST_ELEMENT_NOTE = {
    "status": "assumed",
    "text": "multiplier candidates are treated as test elements; negative closure verdicts are conditional on that",
}


def produce_groebner(ideal, order=GREVLEX, **_):
    cert = groebner_certificate(ideal, order)
    return f"basis-size-{len(cert['basis'])}", EXIT_OK, cert, []


def produce_dimension(ideal, **_):
    cert = dimension_certificate(ideal)
    return str(cert["dim"]), EXIT_OK, cert, []


def produce_fiber_dim(morphism, x, **_):
    return str(fiber_dim_at(morphism, x)), EXIT_OK, None, [PSEUDO_PRIME_NOTE]


def produce_equidim(morphism, x, probes=(), **_):
    from .factorization import verify_equidimensional_at

    report = verify_equidimensional_at(morphism, x, probes)
    exit_class = {"certified-at-probes": EXIT_OK,
                  "refuted": EXIT_REFUTED}.get(report.verdict, EXIT_INCONCLUSIVE)
    return (report.verdict, exit_class,
            equidim_certificate_obj(morphism, x, probes, report), [PSEUDO_PRIME_NOTE])


def produce_factorization(morphism, y, x0, seed, probes=(), **_):
    from .factorization import build_factorization

    try:
        cert = build_factorization(morphism, y, x0, probes=probes, seed=seed)
    except PreconditionFailed as exc:
        return f"precondition-failed: {exc}", EXIT_ERROR, None, []
    return ("certificate-emitted", EXIT_OK, factorization_certificate_obj(cert),
            [PSEUDO_PRIME_NOTE])


def produce_split(morphism, **_):
    from .purity import splits

    ok, cert = splits(morphism)
    return ("splits" if ok else "does-not-split", EXIT_OK if ok else EXIT_REFUTED,
            split_certificate_obj(cert), [])


def produce_pure_at(morphism, point, **_):
    from .purity import witness_outside

    witness = witness_outside(morphism, point)
    pure = witness is not None
    return ("pure" if pure else "not-pure", EXIT_OK if pure else EXIT_REFUTED,
            pure_at_certificate_obj(morphism, point, pure, witness), [])


def produce_splinter(base, covers, **_):
    from .purity import splinter_probe

    report = splinter_probe(base, covers)
    ok = report.verdict == "all-probed-covers-split"
    return (report.verdict, EXIT_OK if ok else EXIT_REFUTED,
            splinter_certificate_obj(report, covers),
            [PSEUDO_PRIME_NOTE,
             {"status": "verified",
              "text": "cover surjectivity evidenced by dominance plus module-finiteness"}])


def produce_strong_purity(morphism, base_class, probes, seed, **_):
    from .purity import strong_purity_certificate

    try:
        cert = strong_purity_certificate(morphism, base_class, probes, seed=seed)
    except HypothesisFailed as exc:
        return f"hypothesis-failed: {exc.hypothesis}", EXIT_ERROR, None, []
    return ("certificate-emitted", EXIT_OK, strong_purity_certificate_obj(cert),
            cert.assumptions)


def produce_fedder(algebra, point, **_):
    from .charp import FrobeniusContext, fedder_f_pure

    gb = algebra.relations.groebner()
    if len(gb) != 1:
        raise NotHypersurface("fedder needs a hypersurface ring")
    ctx = FrobeniusContext(algebra)
    f_pure = fedder_f_pure(gb[0], point, ctx)
    return ("F-pure" if f_pure else "not-F-pure", EXIT_OK if f_pure else EXIT_REFUTED,
            fedder_certificate_obj(gb[0], point, ctx, f_pure), [])


def produce_tc(algebra, z, ideal, multiplier, bound, **_):
    from .charp import FrobeniusContext, TCVerdict, tc_member_certificate

    ctx = FrobeniusContext(algebra)
    verdict = tc_member_certificate(z, ideal, multiplier, bound, ctx)
    exit_class = {TCVerdict.MEMBER: EXIT_OK, TCVerdict.NOT_IN_CLOSURE: EXIT_REFUTED}.get(
        verdict.status, EXIT_INCONCLUSIVE)
    return (verdict.status, exit_class, tc_certificate_obj(verdict, ctx),
            [TEST_ELEMENT_NOTE])


def produce_f_rational(algebra, sops, bound, **_):
    from .charp import FrobeniusContext, f_rational_probe

    report = f_rational_probe(algebra, sops, bound, FrobeniusContext(algebra))
    exit_class = EXIT_OK if report.clean() else (
        EXIT_REFUTED if report.verdict == "NotFRational" else EXIT_INCONCLUSIVE)
    return (report.verdict, exit_class, f_rational_certificate_obj(report, sops, bound),
            [TEST_ELEMENT_NOTE,
             {"status": "assumed",
              "text": "dimension-drop parameter test valid for the equidimensional catenary corpus"}])


def produce_descent(morphism, y, probes, bound, **_):
    from .charp import f_rational_descent_check

    try:
        report = f_rational_descent_check(morphism, y, probes, bound)
    except HypothesisFailed as exc:
        return f"refused: {exc}", EXIT_ERROR, None, []
    ok = report.verdict == "consistent"
    return (report.verdict, EXIT_OK if ok else EXIT_REFUTED,
            descent_certificate_obj(report, y, probes, bound), report.assumptions)


# -- verification -----------------------------------------------------------------
#
# A certificate is verified by replay: its producer runs again on the inputs
# the payload records, and the whole fresh payload must equal the recorded
# one. The identity checks below hold of the recorded outputs themselves,
# so a failure names the identity as well as the first differing path.


# decoders of the inputs a payload records under the producer's parameter name
_INPUT_CODECS = {
    "morphism": morphism_from_obj,
    "base": algebra_from_obj,
    "covers": lambda objs: [morphism_from_obj(o) for o in objs],
    "x": point_from_obj, "y": point_from_obj, "x0": point_from_obj,
    "point": point_from_obj,
    "probes": lambda objs: [point_from_obj(o) for o in objs],
    "seed": int, "bound": int,
}


def _recorded(*keys):
    return lambda p: {key: _INPUT_CODECS[key](p[key]) for key in keys}


def _ideal_inputs(p):
    return {"ideal": ideal_from_obj(ring_from_obj(p["ring"]), p["generators"])}


def _groebner_inputs(p):
    return dict(_ideal_inputs(p), order=order_from_obj(p["order"]))


def _strong_purity_inputs(p):
    # each probe record holds the factorization built at that probe alone
    facts = [rec["factorization"] for rec in p["probes"]]
    return {"morphism": morphism_from_obj(p["morphism"]), "base_class": p["base_class"],
            "probes": [point_from_obj(q) for f in facts for q in f["probes"]],
            "seed": int(facts[0]["seed"]) if facts else 0}


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


def _groebner_identities(p, inputs):
    ring, order = inputs["ideal"].ring, inputs["order"]
    claimed = [poly_from_obj(ring, g) for g in p["basis"]]
    failures = []
    if not is_groebner(claimed, order):
        failures.append("s-polynomial-reduces-to-nonzero")
    for g in inputs["ideal"].generators:
        reduces = normal_form(g, claimed, order).is_zero() if claimed else g.is_zero()
        if not reduces:
            failures.append("generator-not-reduced-by-basis")
            break
    return failures


def _sigma_identities(p, inputs):
    if p["sigma"] is None:
        return []
    from .purity import ModulePresentation, SplitCertificate

    phi = inputs["morphism"]
    tring = phi.target.ring
    pres = ModulePresentation(
        phi, [poly_from_obj(phi.source.ring, g) for g in p["generators"]],
        [[poly_from_obj(tring, c) for c in col] for col in p["relation_columns"]])
    cert = SplitCertificate(phi, None, [poly_from_obj(tring, s) for s in p["sigma"]], pres)
    at_one, annihilates = cert.sigma_identities()
    return ([] if at_one else ["sigma-evaluation-at-1"]) + (
        [] if annihilates else ["sigma-annihilates-relations"])


def _witness_identities(p, inputs):
    if p["witness"] is None:
        return []
    from .purity import splitting_ideal

    phi, point = inputs["morphism"], inputs["point"]
    w = poly_from_obj(phi.target.ring, p["witness"])
    handle, _, _ = splitting_ideal(phi)
    return ([] if handle.contains(w) else ["witness-not-in-splitting-ideal"]) + (
        ["witness-inside-point"] if point.ideal.contains(w) else [])


def _tc_recheck(p, inputs):
    from .charp import FrobeniusContext, TCVerdict

    we = p["witness_exponent"]
    recorded = TCVerdict(inputs["algebra"], inputs["z"], inputs["ideal"],
                         inputs["multiplier"], inputs["bound"], p["status"],
                         witness_exponent=int(we) if we is not None else None,
                         levels=[(int(e), bool(f)) for e, f in p["levels"]])
    ok = recorded.recheck(FrobeniusContext(inputs["algebra"]))
    return [] if ok else ["recorded-membership-fails-recheck"]


def _factorization_records(p, inputs):
    failures = []
    if int(p["e"]) != len(p["lifted"]):
        failures.append("tag-count-differs")
    if any(not rec["ok"] for rec in p["predicates"]):
        failures.append("certificate-records-failed-predicate")
    return failures


def _no_identities(p, inputs):
    return []


# kind -> (producer, inputs decoded from the payload, identity checks)
_REPLAY = {
    "groebner-basis": (produce_groebner, _groebner_inputs, _groebner_identities),
    "dimension": (produce_dimension, _ideal_inputs, _no_identities),
    "split": (produce_split, _recorded("morphism"), _sigma_identities),
    "factorization": (produce_factorization,
                      _recorded("morphism", "y", "x0", "probes", "seed"),
                      _factorization_records),
    "tc-verdict": (produce_tc, _tc_inputs, _tc_recheck),
    "fedder": (produce_fedder, _fedder_inputs, _no_identities),
    "pure-at": (produce_pure_at, _recorded("morphism", "point"), _witness_identities),
    "equidim": (produce_equidim, _recorded("morphism", "x", "probes"), _no_identities),
    "strong-purity": (produce_strong_purity, _strong_purity_inputs, _no_identities),
    "splinter-probe": (produce_splinter, _recorded("base", "covers"), _no_identities),
    "f-rational-probe": (produce_f_rational, _f_rational_inputs, _no_identities),
    "descent": (produce_descent, _recorded("morphism", "y", "probes", "bound"),
                _no_identities),
}


def verify_certificate(payload):
    """Replay the producer of a certificate on the inputs it records and
    compare the canonical form of the fresh payload with the payload as
    given, then run the kind's identity checks. Returns (ok, failures); a
    replay that differs fails with `payload-differs-at <path>`, the first
    differing path in sorted key order. A canonical payload holds only
    strings, bools, nulls, lists and dicts, so a leaf of another type, such
    as the number 2 where the string "2" belongs, differs."""
    kind = payload.get("kind")
    if not isinstance(kind, str) or kind not in _REPLAY:
        return False, [f"unknown certificate kind {kind!r}"]
    producer, decode, identities = _REPLAY[kind]
    failures = []
    try:
        inputs = decode(payload)
        fresh = _stringify(producer(**inputs)[2])
        # json text tells True from 1, which == does not
        if json.dumps(fresh, sort_keys=True) != json.dumps(payload, sort_keys=True):
            failures.append(f"payload-differs-at {_first_difference(fresh, payload)}")
        failures.extend(identities(payload, inputs))
    except Exception as exc:  # verification must report, not crash
        failures.append(f"verification error: {type(exc).__name__}: {exc}")
    return not failures, failures


def _first_difference(fresh, recorded, path="$"):
    """The first path, in sorted key order, where a canonical payload and a
    recorded one differ (a list of another length differs at the list, a
    leaf of another type at the leaf), or None."""
    if isinstance(fresh, dict) and isinstance(recorded, dict):
        missing = object()
        pairs = [(f"{path}.{key}", fresh.get(key, missing), recorded.get(key, missing))
                 for key in sorted(set(fresh) | set(recorded))]
    elif isinstance(fresh, list) and isinstance(recorded, list) and len(fresh) == len(recorded):
        pairs = [(f"{path}[{i}]", a, b) for i, (a, b) in enumerate(zip(fresh, recorded))]
    else:
        return None if type(fresh) is type(recorded) and fresh == recorded else path
    for sub, a, b in pairs:
        found = _first_difference(a, b, sub)
        if found is not None:
            return found
    return None


# -- reports ------------------------------------------------------------------------


EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_ERROR = 2
EXIT_INCONCLUSIVE = 3


class Report:
    def __init__(self, command: str, verdict: str, exit_class: int,
                 certificate=None, assumptions=(), seed: int = 0):
        self.command = command
        self.verdict = verdict
        self.exit_class = exit_class
        self.certificate = certificate
        self.assumptions = list(assumptions)
        self.seed = seed

    def to_obj(self):
        return {
            "command": self.command,
            "verdict": self.verdict,
            "exit_class": self.exit_class,
            "certificate": self.certificate,
            "assumptions": self.assumptions,
            "tool_version": __version__,
            "seed": self.seed,
        }

    def __repr__(self):
        return f"Report({self.command!r}: {self.verdict})"
