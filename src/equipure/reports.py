"""Canonical JSON reports and self-verifying certificates.

Serialization rules: keys sorted, every integer rendered as a decimal
string, polynomials as ordered term arrays in the canonical storage order.
Two runs with the same session and seed produce byte-identical files.

`verify_certificate` re-derives every certificate from its raw data using
only the core operations on fresh handles; recorded evidence is never
trusted. A failed re-check names the violated identity.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import __version__
from .fields import FieldSpec
from .groebner import is_groebner, normal_form
from .ideals import IdealHandle, krull_dim
from .orders import GREVLEX, LEX, MonomialOrder, block_order
from .poly import Polynomial, PolynomialRing
from .schemes import (
    Algebra,
    Morphism,
    Point,
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


def coeff_to_str(c) -> str:
    return str(c)


def coeff_from_str(field: FieldSpec, s: str):
    if field.char == 0:
        return Fraction(s)
    return int(s) % field.char


def poly_to_obj(f: Polynomial):
    return [[[str(e) for e in exp], coeff_to_str(c)] for exp, c in f.terms]


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
    kind = obj["kind"]
    if kind == "lex":
        return LEX
    if kind == "grevlex":
        return GREVLEX
    if kind == "block":
        return block_order([int(i) for i in obj["front"]])
    return MonomialOrder("grevlex-perm", perm=[int(i) for i in obj["perm"]])


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
        "coords": [coeff_to_str(c) for c in p.coords] if p.coords is not None else None,
        "ideal": ideal_to_obj(p.ideal),
        "component": ideal_to_obj(p.component) if p.component is not None else None,
        "comp_dim": p.comp_dim,
        "algebra": algebra_to_obj(p.algebra),
    }


def point_from_obj(obj) -> Point:
    alg = algebra_from_obj(obj["algebra"])
    ideal = ideal_from_obj(alg.ring, obj["ideal"])
    comp = ideal_from_obj(alg.ring, obj["component"]) if obj.get("component") else None
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


# -- verification -----------------------------------------------------------------


def verify_certificate(payload):
    """Re-derive a certificate from scratch. Returns (ok, failures)."""
    kind = payload.get("kind")
    checker = _CHECKERS.get(kind)
    if checker is None:
        return False, [f"unknown certificate kind {kind!r}"]
    try:
        return checker(payload)
    except Exception as exc:  # verification must report, not crash
        return False, [f"verification error: {type(exc).__name__}: {exc}"]


def _check_groebner(payload):
    ring = ring_from_obj(payload["ring"])
    handle = ideal_from_obj(ring, payload["generators"])
    order = order_from_obj(payload["order"])
    claimed = [poly_from_obj(ring, g) for g in payload["basis"]]
    failures = []
    fresh = IdealHandle(ring, list(handle.generators)).groebner(order)
    if [g.terms for g in fresh] != [g.terms for g in claimed]:
        failures.append("recomputed-basis-differs")
    if not is_groebner(claimed, order):
        failures.append("s-polynomial-reduces-to-nonzero")
    for g in claimed:
        if not handle.contains(g):
            failures.append("basis-element-outside-ideal")
            break
    for g in handle.generators:
        reduces = normal_form(g, claimed, order).is_zero() if claimed else g.is_zero()
        if not reduces:
            failures.append("generator-not-reduced-by-basis")
            break
    return not failures, failures


def _check_dimension(payload):
    ring = ring_from_obj(payload["ring"])
    handle = ideal_from_obj(ring, payload["generators"])
    ok = krull_dim(handle) == int(payload["dim"])
    return ok, [] if ok else ["dimension-differs"]


def _check_split(payload):
    from .purity import module_presentation, splitting_ideal

    phi = morphism_from_obj(payload["morphism"])
    tring = phi.target.ring
    pres = module_presentation(phi)
    claimed_gens = [poly_from_obj(phi.source.ring, g) for g in payload["generators"]]
    failures = []
    if [g.terms for g in pres.generators] != [g.terms for g in claimed_gens]:
        failures.append("module-generators-differ")
    handle, _, _ = splitting_ideal(phi, pres)
    claimed_split = bool(payload["splits"])
    if handle.is_unit() != claimed_split:
        failures.append("splitting-ideal-unit-status-differs")
    claimed_ideal = ideal_from_obj(tring, payload["splitting_ideal"])
    if not claimed_ideal.same_ideal(handle):
        failures.append("splitting-ideal-differs")
    if payload["sigma"] is not None:
        sigma = [poly_from_obj(tring, s) for s in payload["sigma"]]
        one_ix = pres.one_index()
        if phi.target.reduce(sigma[one_ix]) != tring.one():
            failures.append("sigma-evaluation-at-1")
        for col in pres.relations:
            acc = tring.zero()
            for s, c in zip(sigma, col):
                acc = acc + s * c
            if not phi.target.reduce(acc).is_zero():
                failures.append("sigma-annihilates-relations")
                break
    return not failures, failures


def _check_factorization(payload):
    from .factorization import FactorizationCertificate, verify_factorization

    phi = morphism_from_obj(payload["morphism"])
    y = point_from_obj(payload["y"])
    x0 = point_from_obj(payload["x0"])
    probes = [point_from_obj(p) for p in payload["probes"]]
    lifted = [poly_from_obj(phi.source.ring, s) for s in payload["lifted"]]
    cert = FactorizationCertificate(
        phi, y, x0, int(payload["e"]), lifted, None, [], int(payload["seed"]),
        payload.get("notes", []), probes=probes)
    ok, failures = verify_factorization(cert)
    failures = list(failures)
    if int(payload["e"]) != len(lifted):
        failures.append("tag-count-differs")
        ok = False
    claimed_failed = [p["name"] for p in payload["predicates"] if not p["ok"]]
    if claimed_failed:
        ok = False
        failures.append("certificate-records-failed-predicate")
    return ok, failures


def _check_tc(payload):
    from .charp import FrobeniusContext, TCVerdict, tc_member_certificate

    alg = algebra_from_obj(payload["algebra"])
    ctx = FrobeniusContext(alg)
    z = poly_from_obj(alg.ring, payload["z"])
    ideal = ideal_from_obj(alg.ring, payload["ideal"])
    mult = poly_from_obj(alg.ring, payload["multiplier"])
    fresh = tc_member_certificate(z, ideal, mult, int(payload["bound"]), ctx)
    failures = []
    if fresh.status != payload["status"]:
        failures.append("status-differs")
    if payload["status"] == TCVerdict.NOT_IN_CLOSURE:
        we = payload.get("witness_exponent")
        if we is None or fresh.witness_exponent != int(we):
            failures.append("witness-exponent-differs")
    recorded = TCVerdict(alg, z, ideal, mult, int(payload["bound"]),
                         payload["status"],
                         witness_exponent=int(payload["witness_exponent"])
                         if payload.get("witness_exponent") is not None else None,
                         levels=[(int(e), bool(f)) for e, f in payload["levels"]])
    if not recorded.recheck(ctx):
        failures.append("recorded-membership-fails-recheck")
    return not failures, failures


def _check_fedder(payload):
    from .charp import FrobeniusContext, fedder_f_pure

    ring = ring_from_obj(payload["ring"])
    f = poly_from_obj(ring, payload["defining"])
    m = point_from_obj(payload["point"])
    alg = Algebra(ring, IdealHandle(ring, [f]))
    ctx = FrobeniusContext(alg)
    ok = fedder_f_pure(f, m, ctx) == bool(payload["f_pure"])
    return ok, [] if ok else ["f-purity-verdict-differs"]


def _check_pure_at(payload):
    from .purity import splitting_ideal, witness_outside

    phi = morphism_from_obj(payload["morphism"])
    p = point_from_obj(payload["point"])
    handle, _, _ = splitting_ideal(phi)
    verdict = witness_outside(phi, p, handle) is not None
    failures = []
    if verdict != bool(payload["pure"]):
        failures.append("purity-verdict-differs")
    if payload.get("witness") is not None:
        w = poly_from_obj(phi.target.ring, payload["witness"])
        if not handle.contains(w):
            failures.append("witness-not-in-splitting-ideal")
        if p.ideal.contains(w):
            failures.append("witness-inside-point")
    return not failures, failures


def _check_equidim(payload):
    from .factorization import verify_equidimensional_at

    phi = morphism_from_obj(payload["morphism"])
    x = point_from_obj(payload["x"])
    probes = [point_from_obj(p) for p in payload["probes"]]
    report = verify_equidimensional_at(phi, x, probes)
    failures = []
    if report.verdict != payload["verdict"]:
        failures.append("verdict-differs")
    if payload.get("e") is not None and report.e != int(payload["e"]):
        failures.append("dimension-differs")
    return not failures, failures


def _check_strong_purity(payload):
    from .purity import strong_purity_certificate

    phi = morphism_from_obj(payload["morphism"])
    probes = []
    for rec in payload["probes"]:
        fact = rec["factorization"]
        probes.extend(point_from_obj(p) for p in fact["probes"])
    try:
        fresh = strong_purity_certificate(phi, payload["base_class"], probes)
    except Exception as exc:
        return False, [f"reconstruction-failed: {exc}"]
    ok = len(fresh.probe_records) == len(payload["probes"])
    return ok, [] if ok else ["probe-count-differs"]


def _check_splinter(payload):
    from .purity import splinter_probe

    base = algebra_from_obj(payload["base"])
    covers = [morphism_from_obj(c) for c in payload["covers"]]
    report = splinter_probe(base, covers)
    failures = []
    if report.verdict != payload["verdict"]:
        failures.append("splinter-verdict-differs")
    fresh = [(v["cover"], v["splits"]) for v in report.verdicts]
    claimed = [(v["cover"], bool(v["splits"])) for v in payload["verdicts"]]
    if fresh != claimed:
        failures.append("per-cover-verdicts-differ")
    return not failures, failures


def _check_f_rational(payload):
    from .charp import FrobeniusContext, f_rational_probe

    alg = algebra_from_obj(payload["algebra"])
    ctx = FrobeniusContext(alg)
    sops = [[poly_from_obj(alg.ring, s) for s in seq] for seq in payload["sops"]]
    report = f_rational_probe(alg, sops, int(payload["bound"]), ctx)
    failures = []
    if report.verdict != payload["verdict"]:
        failures.append("f-rational-verdict-differs")
    if payload.get("witness") and (report.witness or {}).get("z") != payload["witness"]["z"]:
        failures.append("witness-differs")
    return not failures, failures


def _check_descent(payload):
    from .charp import f_rational_descent_check

    phi = morphism_from_obj(payload["morphism"])
    y = point_from_obj(payload["y"])
    probes = [point_from_obj(p) for p in payload["probes"]]
    report = f_rational_descent_check(phi, y, probes, int(payload["bound"]))
    failures = []
    if report.verdict != payload["verdict"]:
        failures.append("descent-verdict-differs")
    if report.source_report.verdict != payload["source_verdict"]:
        failures.append("source-verdict-differs")
    if report.target_report.verdict != payload["target_verdict"]:
        failures.append("target-verdict-differs")
    return not failures, failures


_CHECKERS = {
    "groebner-basis": _check_groebner,
    "dimension": _check_dimension,
    "split": _check_split,
    "factorization": _check_factorization,
    "tc-verdict": _check_tc,
    "fedder": _check_fedder,
    "pure-at": _check_pure_at,
    "equidim": _check_equidim,
    "strong-purity": _check_strong_purity,
    "splinter-probe": _check_splinter,
    "f-rational-probe": _check_f_rational,
    "descent": _check_descent,
}

VERIFIABLE_KINDS = sorted(_CHECKERS)


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

    def to_json(self) -> str:
        return canonical_json(self.to_obj())

    @staticmethod
    def from_obj(obj) -> "Report":
        return Report(obj["command"], obj["verdict"], int(obj["exit_class"]),
                      obj.get("certificate"), obj.get("assumptions", ()),
                      int(obj.get("seed", 0)))

    def __repr__(self):
        return f"Report({self.command!r}: {self.verdict})"
