"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. The
Groebner oracle here is written from scratch against the textbook
definitions (its own division loop, no shortcuts) so the production engine
is checked by an independent route. The other second routes the suites
compare against live here too: brute-force dimension of monomial ideals,
saturation by the Rabinowitsch tag, and the Frobenius persistence and
contraction spot checks.
"""

import itertools
import json
import os
import time

import pytest

from equipure.charp import (
    FrobeniusContext,
    TCVerdict,
    f_rational_probe,
    fedder_f_pure,
    tc_member_certificate,
    f_rational_descent_check,
)
from equipure.errors import HypothesisFailed
from equipure.factorization import (
    NoetherData,
    adapted_check,
    build_factorization,
    noether_normalize,
)
from equipure.fields import GF, QQ
from equipure.groebner import buchberger
from equipure.ideals import IdealError, IdealHandle, eliminate, krull_dim
from equipure.orders import GREVLEX, LEX
from equipure.poly import Polynomial, PolynomialRing, parse_poly
from equipure.purity import (
    splits,
    splitting_ideal,
    strong_purity_certificate,
    witness_outside,
)
from equipure.reports import (
    canonical_json,
    factorization_certificate_obj,
    verify_certificate,
)
from equipure.schemes import (
    Morphism,
    decompose_components,
    fiber,
    make_algebra,
    maximal_points_of_fiber,
    rational_point,
)
from equipure.session import parse_session

from conftest import P, apply, origin, run_all

DATA = os.path.join(os.path.dirname(__file__), "data")
CORPUS = os.path.join(DATA, "corpus.eqp")


def report(number, label, started):
    print(f"\n[ACCEPTANCE] criterion {number} ({label}): PASS "
          f"({time.time() - started:.1f}s)")


# -- independent oracle: textbook division and the Buchberger criterion --------


def oracle_leading(f, order):
    return max(f.terms, key=lambda t: order.key(t[0]))


def oracle_divide(f, basis, order):
    """Plain multivariate division, written independently of the engine."""
    fld = f.ring.field
    remainder = {}
    work = dict(f.terms)
    while work:
        exp = max(work, key=order.key)
        coeff = work.pop(exp)
        if not coeff:
            continue
        for g in basis:
            gexp, gcoeff = oracle_leading(g, order)
            if all(a >= b for a, b in zip(exp, gexp)):
                mult = tuple(a - b for a, b in zip(exp, gexp))
                scale = fld.mul(coeff, fld.inv(gcoeff))
                for e2, c2 in g.terms:
                    if e2 == gexp:
                        continue
                    ne = tuple(a + b for a, b in zip(e2, mult))
                    work[ne] = fld.sub(work.get(ne, fld.zero), fld.mul(c2, scale))
                    if not work[ne]:
                        del work[ne]
                break
        else:
            remainder[exp] = coeff
    return remainder


def recorded(certificate):
    """A certificate object as a report file records it, and as `verify`
    reads it back: its canonical JSON, loaded."""
    return json.loads(canonical_json(certificate))


def oracle_all_s_polys_reduce(basis, order):
    if not basis:
        return True
    fld = basis[0].ring.field
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            ei, ci = oracle_leading(basis[i], order)
            ej, cj = oracle_leading(basis[j], order)
            lcm = tuple(max(a, b) for a, b in zip(ei, ej))
            left = basis[i].term_mul(tuple(a - b for a, b in zip(lcm, ei)), fld.inv(ci))
            right = basis[j].term_mul(tuple(a - b for a, b in zip(lcm, ej)), fld.inv(cj))
            if oracle_divide(left - right, basis, order):
                return False
    return True


def oracle_is_reduced(basis, order):
    for i, g in enumerate(basis):
        _, lc = oracle_leading(g, order)
        if lc != g.ring.field.one:
            return False
        for j, h in enumerate(basis):
            if i == j:
                continue
            hexp, _ = oracle_leading(h, order)
            for exp, _ in g.terms:
                if all(a >= b for a, b in zip(exp, hexp)):
                    return False
    return True


# -- second routes: brute-force dimension, tag saturation, spot checks ------


def monomial_ideal_dim_bruteforce(ring, monomials):
    """Independent-set enumeration straight off the generators; the oracle
    route for krull_dim on monomial ideals."""
    supports = []
    for m in monomials:
        if m.is_constant() and not m.is_zero():
            return -1
        (exp, _), = m.terms
        supports.append(frozenset(i for i, e in enumerate(exp) if e))
    best = 0
    n = ring.nvars
    for size in range(0, n + 1):
        for combo in itertools.combinations(range(n), size):
            s = frozenset(combo)
            if all(not sup <= s for sup in supports):
                best = max(best, size)
    return best


def saturation_tag(handle, f):
    """(I : f^infinity) via the Rabinowitsch tag: the cross-check route for
    `saturation`, which iterates quotients."""
    if f.is_zero():
        raise IdealError("saturation by zero")
    ring = handle.ring
    (wname,) = ring.fresh_names("w~", 1)
    ext = ring.extend([wname], front=True)
    gens = [g.embed(ext, 1) for g in handle.generators]
    gens.append(ext.one() - ext.var(0) * f.embed(ext, 1))
    out = eliminate(IdealHandle(ext, gens), [0])
    return IdealHandle(ring, [Polynomial(ring, g.terms) for g in out.generators])


def _membership_mod(algebra, gens, f):
    """f in (gens) + relations, inside the quotient ring."""
    return IdealHandle(algebra.ring,
                       list(gens) + list(algebra.relations.generators)).contains(f)


def persistence_spot_check(phi, z, ideal, multiplier, bound):
    """Push a closure-evidence triple through phi: the image triple must show
    the same evidence at the same bound. Follows from applying phi to each
    membership identity."""
    src_ctx = FrobeniusContext(phi.source)
    tgt_ctx = FrobeniusContext(phi.target)
    up = tc_member_certificate(z, ideal, multiplier, bound, tgt_ctx)
    if up.status == TCVerdict.NOT_IN_CLOSURE:
        return True  # nothing to persist
    image_ideal = IdealHandle(phi.source.ring, [apply(phi, g) for g in ideal.generators])
    down = tc_member_certificate(apply(phi, z), image_ideal, apply(phi, multiplier),
                                 bound, src_ctx)
    return down.status in (TCVerdict.MEMBER, TCVerdict.EVIDENCE)


def contraction_spot_check(phi, z, ideal):
    """For split maps: phi(z) in phi(I)*S forces z in I. Checked as exact
    memberships; vacuously true when the image membership fails."""
    image_ideal = IdealHandle(phi.source.ring, [apply(phi, g) for g in ideal.generators])
    img_in = _membership_mod(phi.source, image_ideal.generators, apply(phi, z))
    if not img_in:
        return True
    return _membership_mod(phi.target, ideal.generators, z)


GB_SUITE = [
    # (char, vars, generators)
    (0, ["x", "y"], ["x^2 + y^2 - 1", "x - y"]),
    (0, ["x", "y"], ["x*y"]),
    (0, ["x", "y"], ["x", "y"]),
    (0, ["x", "y"], ["x", "x + 1"]),
    (0, ["x", "y"], ["x^3 - y", "x*y - 1"]),
    (0, ["x", "y", "z"], ["x*y - z^2"]),
    (0, ["x", "y", "z"], ["x*z", "y*z"]),
    (0, ["x", "y", "z"], ["x^2 - y*z", "y^2 - x*z", "z^2 - x*y"]),
    (0, ["x", "y", "z"], ["x + y + z", "x*y + y*z + z*x", "x*y*z - 1"]),
    (0, ["a", "b", "c"], ["a*b - c^2", "a^2 - b*c"]),
    (0, ["x", "y", "z", "w"], ["x*y - z*w", "x^2 - y^2"]),
    (0, ["x", "y", "z", "w"], ["x^3 - w", "y^2 - z"]),
    (0, ["t", "x"], ["x^2 - t"]),
    (0, ["x"], ["x^4 - 1"]),
    (2, ["x", "y"], ["x^2 + y^2", "x*y"]),
    (2, ["x", "y", "z"], ["x^3 + y^3 + z^3"]),
    (2, ["x", "y", "z"], ["x^2 + y", "y^2 + z"]),
    (2, ["x", "y"], ["x^3 + x + 1"]),
    (2, ["x", "y", "z", "w"], ["x*y + z*w", "x + y + z + w"]),
    (7, ["x", "y"], ["x^2 - 3*y", "y^2 - 5*x"]),
    (7, ["x", "y", "z"], ["x^3 + y^3 + z^3", "x*y*z"]),
    (7, ["x", "y", "z"], ["x*y - z^2", "x - y"]),
    (7, ["x", "y"], ["x^4 - 2", "x*y - 3"]),
    (7, ["a", "b", "c"], ["a*b - c^2", "b^2 - a*c"]),
    (7, ["x", "y", "z", "w"], ["x^2 - y*w", "y^2 - z*w"]),
]

MONOMIAL_SUITE = [
    (["x", "y"], [(1, 1)]),
    (["x", "y"], [(2, 0), (1, 1), (0, 2)]),
    (["x", "y", "z"], [(1, 0, 1), (0, 1, 1)]),
    (["x", "y", "z"], [(2, 0, 0)]),
    (["x", "y", "z"], [(1, 1, 0), (0, 1, 1), (1, 0, 1)]),
    (["x", "y", "z", "w"], [(1, 1, 0, 0), (0, 0, 1, 1)]),
    (["x", "y", "z", "w"], [(1, 0, 0, 0), (0, 2, 0, 0)]),
    (["a", "b", "c", "d", "e"], [(1, 1, 1, 0, 0), (0, 0, 1, 1, 1)]),
    (["a", "b", "c", "d", "e"], [(2, 0, 0, 0, 1)]),
    (["a", "b", "c", "d", "e"], [(1, 0, 1, 0, 1), (0, 1, 0, 1, 0)]),
]


def test_criterion_1_groebner_soundness():
    started = time.time()
    assert len(GB_SUITE) == 25
    for char, variables, texts in GB_SUITE:
        ring = PolynomialRing(GF(char) if char else QQ, variables)
        gens = [parse_poly(ring, t) for t in texts]
        for order in (GREVLEX, LEX):
            basis = buchberger(gens, order)
            assert oracle_all_s_polys_reduce(basis, order), (char, texts, order)
            assert oracle_is_reduced(basis, order), (char, texts, order)
            for g in gens:
                assert not oracle_divide(g, basis, order), (char, texts, order)
    assert len(MONOMIAL_SUITE) == 10
    for variables, exps in MONOMIAL_SUITE:
        ring = PolynomialRing(QQ, variables)
        monos = [ring.from_terms([(e, QQ.of(1))]) for e in exps]
        assert krull_dim(IdealHandle(ring, monos)) == \
            monomial_ideal_dim_bruteforce(ring, monos)
    elapsed = time.time() - started
    assert elapsed < 30, f"criterion 1 took {elapsed:.1f}s"
    report(1, "groebner soundness", started)


def _point_fiber(texts, variables, field=QQ):
    pt = make_algebra(field, [], [], "pt")
    ring = PolynomialRing(field, variables)
    alg = make_algebra(field, variables, [parse_poly(ring, t) for t in texts], "V")
    incl = Morphism(pt, alg, [], "incl")
    return fiber(incl, rational_point(pt, []))


CORPUS_FIBERS = [
    ([], ["x"]),
    (["x^2"], ["x"]),
    (["x^2 - 1"], ["x"]),
    (["x*y"], ["x", "y"]),
    (["x*y - 1"], ["x", "y"]),
    (["x^2", "x*y", "y^2"], ["x", "y", "w"]),
    (["u", "v"], ["u", "v", "w"]),
    (["x*z", "y*z"], ["x", "y", "z"]),
]


def test_criterion_2_adaptation():
    started = time.time()
    for texts, variables in CORPUS_FIBERS:
        fm = _point_fiber(texts, variables)
        nd = noether_normalize(fm)
        e = fm.dim()
        assert nd.e == e
        comps = decompose_components(fm.relations)
        for comp in comps:
            if krull_dim(comp) == e:
                assert adapted_check(comp, nd), (texts, [str(t) for t in nd.ts])
    # the engineered non-top-dimensional case must fail
    fm = _point_fiber(["x*z", "y*z"], ["x", "y", "z"])
    ring = fm.relations.ring
    nd = NoetherData(fm, 2, [parse_poly(ring, "x + z"), parse_poly(ring, "y")],
                     "manual", 0, {})
    q = IdealHandle(ring, [ring.var(0), ring.var(1)])
    assert not adapted_check(q, nd)
    report(2, "fiber normalization adapted to top components", started)


def test_criterion_3_factorization_certificates(double_cover, line_q,
                                                flat_projection, cone_composite):
    started = time.time()
    required = {
        "composition-identity",
        "fiber-leg-module-finite",
        "fiber-leg-zero-contraction",
        "point-contracts-to-generic",
        "components-dominate-affine-space",
    }
    cases = [
        (double_cover, rational_point(line_q, [0]), []),
        (flat_projection, rational_point(flat_projection.target, [0, 0]),
         [origin(flat_projection.source)]),
        (cone_composite, rational_point(cone_composite.target, [0, 0, 0]),
         [origin(cone_composite.source)]),
    ]
    for phi, y, probes in cases:
        pts = maximal_points_of_fiber(phi, y)
        x0 = next(p for p in pts if p.comp_dim == fiber(phi, y).dim())
        cert = build_factorization(phi, y, x0, probes=probes)
        names = {p["name"] for p in cert.predicates if p["ok"]}
        assert required <= names, names
        ok, failed = verify_certificate(recorded(factorization_certificate_obj(cert)))
        assert ok, failed
    elapsed = time.time() - started
    assert elapsed < 60, f"criterion 3 took {elapsed:.1f}s"
    report(3, "factorization certificates re-verify", started)


def test_criterion_4_splitting_desk_check(veronese_q, veronese7, cusp_normalization):
    started = time.time()
    for phi in (veronese_q, veronese7):
        handle, _, _ = splitting_ideal(phi)
        assert handle.is_unit()
        ok, cert = splits(phi)
        assert ok
        ok1, ok2 = cert.sigma_identities()
        assert ok1 and ok2
    handle, _, _ = splitting_ideal(cusp_normalization)
    assert not handle.is_unit()
    cusp = cusp_normalization.target
    m = IdealHandle(cusp.ring, [cusp.ring.var(0), cusp.ring.var(1)])
    for g in handle.generators:
        assert m.contains(g)
    assert witness_outside(cusp_normalization, rational_point(cusp, [0, 0])) is None
    from equipure.schemes import generic_point_of

    assert witness_outside(cusp_normalization, generic_point_of(cusp, cusp.relations)) is not None
    report(4, "splitting ideals and purity at primes", started)


def test_criterion_5_strong_purity(cone_composite, cusp_q):
    started = time.time()
    tgt = make_algebra(QQ, ["u", "v"], [], "uv")
    src = make_algebra(QQ, ["x", "y", "w"], [], "xyw")
    over_regular = Morphism(tgt, src,
                            [P(src.ring, "x^2"), P(src.ring, "y^2")], "f")
    cert, _ = strong_purity_certificate(over_regular, "regular-polynomial-ring",
                                        [origin(src)])
    assert cert["probes"][0]["finite_leg"]["pure_at_image"]

    cert2, _ = strong_purity_certificate(cone_composite, "normal-Q-hypersurface",
                                         [origin(cone_composite.source)])
    assert all(p["ok"] for p in cert2["probes"][0]["factorization"]["predicates"])

    bad_src = make_algebra(QQ, ["t", "s"], [], "ts")
    over_cusp = Morphism(cusp_q, bad_src,
                         [P(bad_src.ring, "t^2"), P(bad_src.ring, "t^3")], "g")
    with pytest.raises(HypothesisFailed) as err:
        strong_purity_certificate(over_cusp, "normal-Q-hypersurface",
                                  [origin(bad_src)])
    assert err.value.hypothesis == "normality"
    report(5, "strong purity pipeline", started)


def test_criterion_6_char_p_suite(fermat7, cone7):
    started = time.time()
    # Fedder: xy is F-pure for every p in the suite
    for p in (2, 3, 5, 7):
        ring = PolynomialRing(GF(p), ["x", "y"])
        alg = make_algebra(GF(p), ["x", "y"], [parse_poly(ring, "x*y")], "xy")
        amb = make_algebra(GF(p), ["x", "y"], [], "amb")
        assert fedder_f_pure(parse_poly(ring, "x*y"), rational_point(amb, [0, 0]),
                             FrobeniusContext(alg))
    # Fermat cubic: not F-pure at p = 2, F-pure at p = 7
    for p, expected in ((2, False), (7, True)):
        ring = PolynomialRing(GF(p), ["x", "y", "z"])
        f = parse_poly(ring, "x^3 + y^3 + z^3")
        alg = make_algebra(GF(p), ["x", "y", "z"], [f], "fermat")
        amb = make_algebra(GF(p), ["x", "y", "z"], [], "amb")
        assert fedder_f_pure(f, rational_point(amb, [0, 0, 0]),
                             FrobeniusContext(alg)) is expected
    # tight closure certificates
    ctx7 = FrobeniusContext(fermat7)
    v = tc_member_certificate(parse_poly(fermat7.ring, "z^2"),
                              IdealHandle(fermat7.ring, [fermat7.ring.var(0),
                                                         fermat7.ring.var(1)]),
                              parse_poly(fermat7.ring, "x^2"), 3, ctx7)
    assert v.status == TCVerdict.EVIDENCE and v.bound == 3
    for p in (3, 7):
        plane = make_algebra(GF(p), ["x", "y"], [], "plane")
        ctx = FrobeniusContext(plane)
        w = tc_member_certificate(plane.ring.var(1),
                                  IdealHandle(plane.ring, [plane.ring.var(0)]),
                                  plane.ring.one(), 3, ctx)
        assert w.status == TCVerdict.NOT_IN_CLOSURE and w.witness_exponent == 1
    # probes: the cubic is flagged, the plane and the odd-p cone stay clean
    verdict, _, witness = f_rational_probe(fermat7, [[fermat7.ring.var(0), fermat7.ring.var(1)]],
                                           3, ctx7)
    assert verdict == "NotFRational" and witness["z"] == "z^2"
    for p in (3, 7):
        plane = make_algebra(GF(p), ["x", "y"], [], "plane")
        verdict, _, _ = f_rational_probe(plane, [[plane.ring.var(0), plane.ring.var(1)]],
                                         3, FrobeniusContext(plane))
        assert verdict.startswith("no-counterexample")
    for p in (3, 7):
        ring = PolynomialRing(GF(p), ["x", "y", "z"])
        cone = make_algebra(GF(p), ["x", "y", "z"],
                            [parse_poly(ring, "x*y - z^2")], "cone")
        verdict, _, _ = f_rational_probe(cone, [[cone.ring.var(0), cone.ring.var(1)]],
                                         3, FrobeniusContext(cone))
        assert verdict.startswith("no-counterexample")
    elapsed = time.time() - started
    assert elapsed < 120, f"criterion 6 took {elapsed:.1f}s"
    report(6, "char-p suite", started)


def test_criterion_7_descent_harness(veronese7, fermat7):
    started = time.time()
    y = rational_point(veronese7.target, [0, 0, 0])
    rep, _ = f_rational_descent_check(veronese7, y, [origin(veronese7.source)], 2)
    assert rep["verdict"] == "consistent"
    assert (rep["source_verdict"].startswith("no-counterexample")
            and rep["target_verdict"].startswith("no-counterexample"))

    tgt = make_algebra(GF(7), ["u", "v"], [], "uv7")
    src = make_algebra(GF(7), ["u", "x"], [], "ux7")
    blow = Morphism(tgt, src, [P(src.ring, "u"), P(src.ring, "u*x")], "blow")
    with pytest.raises(HypothesisFailed) as err:
        f_rational_descent_check(blow, rational_point(tgt, [0, 0]),
                          [rational_point(src, [0, 0])], 2)
    assert err.value.hypothesis == "equidimensionality"

    # persistence and contraction spot checks on the corpus
    ring = PolynomialRing(GF(7), ["x", "y", "z", "T"])
    ext = make_algebra(GF(7), ["x", "y", "z", "T"],
                       [parse_poly(ring, "x^3 + y^3 + z^3")], "fermat-ext")
    flat = Morphism(fermat7, ext,
                    [ext.ring.var(0), ext.ring.var(1), ext.ring.var(2)], "flat")
    z = parse_poly(fermat7.ring, "z^2")
    I = IdealHandle(fermat7.ring, [fermat7.ring.var(0), fermat7.ring.var(1)])
    assert persistence_spot_check(flat, z, I, parse_poly(fermat7.ring, "x^2"), 2)
    R = veronese7.target
    I_ab = IdealHandle(R.ring, [R.ring.var(0), R.ring.var(1)])
    for text in ("a*b", "c^2", "c", "a + b"):
        assert contraction_spot_check(veronese7, parse_poly(R.ring, text), I_ab)
    report(7, "descent harness and spot checks", started)


def test_criterion_8_determinism_and_verification(tmp_path):
    started = time.time()
    with open(CORPUS, "r", encoding="utf-8") as fh:
        text = fh.read()
    outputs = []
    for _ in range(2):
        session = parse_session(text, {"seed": 17, "frobenius_bound": 3})
        reports = run_all(session)
        outputs.append(canonical_json(reports))
    assert outputs[0] == outputs[1], "same seed must give byte-identical reports"

    payload = json.loads(outputs[0])
    verified = 0
    tampered_failure = None
    for entry in payload:
        cert = entry.get("certificate")
        if not cert or "kind" not in cert:
            continue
        ok, failures = verify_certificate(cert)
        assert ok, (entry["command"], failures)
        verified += 1
        if cert["kind"] == "split" and cert.get("sigma") and tampered_failure is None:
            bad = json.loads(canonical_json(cert))
            bad["sigma"][0][0][1] = "2"
            ok_bad, failures_bad = verify_certificate(bad)
            assert not ok_bad
            tampered_failure = failures_bad
    assert verified >= 15
    assert tampered_failure and "sigma-evaluation-at-1" in tampered_failure
    report(8, "determinism and tamper detection", started)
