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
that fails. A factorization, alone or in a strong-purity probe record, is
replayed from the normalization it records, which is an input as its seed
is; which candidate the seeded search reaches first is not re-derived.

This module holds the canonical JSON, the object codecs, `Report`, the
replay and the report code of the `gb`, `dim`, `fiber-dim`,
`equidim-check` and `factorize` commands. The producers, certificate
builders, payload decoders and identity checks of the purity family
(`splits`, `pure-at`, `splinter-probe`, `strong-purity`) live in `purity`
and those of the char-p family (`fedder`, `tc-member`, `f-rational-probe`,
`descend-check`) in `charp`. `PRODUCERS` names each command's producer
by module and function, and `producer` imports the module when the command
runs or a kind it writes is replayed; the factorization and
equidimensionality producers import `factorization` when called. So a
process whose reports need none of them never compiles `factorization`,
`purity`, `charp` or `modules`: a `gb` session compiles none.
"""

from __future__ import annotations

import importlib
import json
from fractions import Fraction

from . import __version__
from .errors import PreconditionFailed
from .fields import FieldSpec
from .groebner import is_groebner, normal_form
from .ideals import IdealHandle, krull_dim
from .orders import GREVLEX, MonomialOrder
from .poly import Polynomial, PolynomialRing
from .schemes import (
    PSEUDO_PRIME_NOTE,
    RATIONAL,
    Algebra,
    Morphism,
    Point,
    fiber_dim_at,
    rational_point,
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
    if obj["kind"] == RATIONAL:
        # a rational point is its coordinates: its ideal follows from them
        point = rational_point(alg, [coeff_from_str(alg.field, c) for c in obj["coords"]])
        if obj["ideal"] != ideal_to_obj(point.ideal):
            raise ValueError("a rational point's ideal is not x_i - c_i of its coords")
        return point
    ideal = ideal_from_obj(alg.ring, obj["ideal"])
    comp = (ideal_from_obj(alg.ring, obj["component"])
            if obj.get("component") is not None else None)
    return Point(alg, ideal, obj["kind"], component=comp,
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


# the Frobenius evidence bound E of a session that sets none
DEFAULT_FROBENIUS_BOUND = 3


# -- producers ---------------------------------------------------------------------
#
# One per command head (`fiber-dim` emits no certificate).
# `session.run_command` calls a producer on the objects a command names and
# `verify_certificate` calls it again on the objects a payload records.
# Each returns (verdict, exit class, certificate payload or None,
# assumptions). Every call passes `seed` and `bound`; a producer whose
# certificate does not record them ignores them. The producers of the
# purity and char-p families are in `purity` and `charp`.


# command head -> (module, producer)
PRODUCERS = {
    "gb": ("reports", "produce_groebner"),
    "dim": ("reports", "produce_dimension"),
    "fiber-dim": ("reports", "produce_fiber_dim"),
    "equidim-check": ("reports", "produce_equidim"),
    "factorize": ("reports", "produce_factorization"),
    "splits": ("purity", "produce_split"),
    "pure-at": ("purity", "produce_pure_at"),
    "splinter-probe": ("purity", "produce_splinter"),
    "strong-purity": ("purity", "produce_strong_purity"),
    "fedder": ("charp", "produce_fedder"),
    "tc-member": ("charp", "produce_tc"),
    "f-rational-probe": ("charp", "produce_f_rational"),
    "descend-check": ("charp", "produce_descent"),
}


def _named(module, name):
    """The function `name` of the package's module `module`, imported when
    first asked for."""
    return getattr(importlib.import_module(f"{__package__}.{module}"), name)


def producer(head):
    """The producer of the command whose head is `head`."""
    return _named(*PRODUCERS[head])


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


def produce_factorization(morphism, y, x0, seed, probes=(), lifted=None, **_):
    from .factorization import build_factorization

    try:
        cert = build_factorization(morphism, y, x0, probes=probes, seed=seed, lifted=lifted)
    except PreconditionFailed as exc:
        return f"precondition-failed: {exc}", EXIT_ERROR, None, []
    return ("certificate-emitted", EXIT_OK, factorization_certificate_obj(cert),
            [PSEUDO_PRIME_NOTE])


# -- verification -----------------------------------------------------------------
#
# A certificate is verified by replay: its producer runs again on the inputs
# the payload records, and the whole fresh payload must equal the recorded
# one. The identity checks hold of the recorded outputs themselves, so a
# failure names the identity as well as the first differing path.


def _ideal_inputs(p):
    return {"ideal": ideal_from_obj(ring_from_obj(p["ring"]), p["generators"])}


def _groebner_inputs(p):
    return dict(_ideal_inputs(p), order=order_from_obj(p["order"]))


def _equidim_inputs(p):
    return {"morphism": morphism_from_obj(p["morphism"]), "x": point_from_obj(p["x"]),
            "probes": [point_from_obj(q) for q in p["probes"]]}


def _factorization_inputs(p):
    morphism = morphism_from_obj(p["morphism"])
    return {"morphism": morphism, "y": point_from_obj(p["y"]), "x0": point_from_obj(p["x0"]),
            "probes": [point_from_obj(q) for q in p["probes"]], "seed": int(p["seed"]),
            "lifted": [poly_from_obj(morphism.source.ring, s) for s in p["lifted"]]}


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


def _factorization_records(p, inputs):
    failures = []
    if int(p["e"]) != len(p["lifted"]):
        failures.append("tag-count-differs")
    if any(not rec["ok"] for rec in p["predicates"]):
        failures.append("certificate-records-failed-predicate")
    return failures


# kind -> (head of the command that writes it, decoder of the producer's
# inputs from the payload, identity check or None); the decoder and check
# are named in the module of the head's producer
_REPLAY = {
    "groebner-basis": ("gb", "_groebner_inputs", "_groebner_identities"),
    "dimension": ("dim", "_ideal_inputs", None),
    "equidim": ("equidim-check", "_equidim_inputs", None),
    "factorization": ("factorize", "_factorization_inputs", "_factorization_records"),
    "split": ("splits", "_split_inputs", "_sigma_identities"),
    "pure-at": ("pure-at", "_pure_at_inputs", "_witness_identities"),
    "splinter-probe": ("splinter-probe", "_splinter_inputs", None),
    "strong-purity": ("strong-purity", "_strong_purity_inputs", None),
    "fedder": ("fedder", "_fedder_inputs", None),
    "tc-verdict": ("tc-member", "_tc_inputs", "_tc_recheck"),
    "f-rational-probe": ("f-rational-probe", "_f_rational_inputs", None),
    "descent": ("descend-check", "_descent_inputs", None),
}


def verify_certificate(payload):
    """Replay the producer of a certificate on the inputs it records and
    compare the canonical form of the fresh payload with the payload as
    given, then run the kind's identity checks. Returns (ok, failures); a
    replay that differs fails with `payload-differs-at <path>`, the first
    differing path in sorted key order. A canonical payload holds only
    strings, bools, nulls, lists and dicts, so a leaf of another type, such
    as the number 2 where the string "2" belongs, differs.

    A replay that emits no certificate also fails with its verdict, which
    names what the replay refused, such as a recorded normalization.

    `payload` is a certificate, or a report entry that holds one under
    "certificate"; then the replay's verdict, exit class and assumptions
    must equal the entry's too, as must the seed where the certificate
    records one, and the first field that differs fails with
    `entry-differs-at <path>`, as `$.verdict`; an entry whose command does
    not begin with the head of the command that writes its kind fails with
    `entry-differs-at $.command`."""
    entry = payload if "certificate" in payload else None
    if entry is not None:
        payload = entry["certificate"]
    kind = payload.get("kind")
    if not isinstance(kind, str) or kind not in _REPLAY:
        return False, [f"unknown certificate kind {kind!r}"]
    head, inputs_of, identities = _REPLAY[kind]
    module = PRODUCERS[head][0]
    failures = []
    try:
        inputs = _named(module, inputs_of)(payload)
        verdict, exit_class, cert, assumptions = producer(head)(**inputs)
        if cert is None:
            failures.append(f"replay-emitted-no-certificate: {verdict}")
        fresh = _stringify(cert)
        # json text tells True from 1, which == does not
        if json.dumps(fresh, sort_keys=True) != json.dumps(payload, sort_keys=True):
            failures.append(f"payload-differs-at {_first_difference(fresh, payload)}")
        if entry is not None:
            replayed = {"verdict": verdict, "exit_class": exit_class, "assumptions": assumptions}
            if "seed" in inputs:
                replayed["seed"] = inputs["seed"]
            for field, value in replayed.items():
                path = _first_difference(_stringify(value), entry.get(field), f"$.{field}")
                if path is not None:
                    failures.append(f"entry-differs-at {path}")
            command = entry.get("command")
            if not isinstance(command, str) or command.split()[:1] != [head]:
                failures.append("entry-differs-at $.command")
        if identities is not None:
            failures.extend(_named(module, identities)(payload, inputs))
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
