"""Normalization of fibers, adapted checks, the factorization certificate,
equidimensionality reports."""

import pytest

from equipure import factorization, groebner
from equipure.errors import LiftFailure, PreconditionFailed, RecursionBudgetExceeded
from equipure.factorization import (
    NoetherData,
    _over_tags,
    adapted_check,
    build_factorization,
    lift_clear_denominators,
    noether_normalize,
    verify_equidimensional_at,
)
from equipure.fields import GF, QQ
from equipure.ideals import IdealHandle
from equipure.poly import PolynomialRing, parse_poly
from equipure.reports import factorization_certificate_obj, verify_certificate
from equipure.schemes import (
    Morphism,
    decompose_components,
    fiber,
    generic_point_of,
    make_algebra,
    maximal_points_of_fiber,
    rational_point,
)

from conftest import P, origin
from test_acceptance import recorded


def point_fiber(relations_texts, variables):
    """Fiber of the inclusion of a point into Spec k[vars]/(relations)."""
    pt_alg = make_algebra(QQ, [], [], "pt")
    ring = PolynomialRing(QQ, list(variables))
    alg = make_algebra(QQ, list(variables), [parse_poly(ring, t) for t in relations_texts])
    incl = Morphism(pt_alg, alg, [], "incl")
    return fiber(incl, rational_point(pt_alg, []))


def test_noether_normalize_examples():
    nd = noether_normalize(point_fiber(["x*y"], ["x", "y"]))
    assert nd.e == 1
    assert [str(t) for t in nd.ts] == ["x + y"]
    nd2 = noether_normalize(point_fiber([], ["x"]))
    assert nd2.e == 1 and [str(t) for t in nd2.ts] == ["x"]
    nd3 = noether_normalize(point_fiber(["x*y - 1"], ["x", "y"]))
    assert nd3.e == 1 and [str(t) for t in nd3.ts] == ["x + y"]


def test_noether_power_substitution_over_f2():
    # all three F_2-rational linear forms vanish on a component of
    # xy(x+y), so neither variables nor linear combinations can work and
    # the search must fall through to power substitutions
    pt = make_algebra(GF(2), [], [], "pt2")
    ring = PolynomialRing(GF(2), ["x", "y"])
    alg = make_algebra(GF(2), ["x", "y"],
                       [parse_poly(ring, "x*y*(x+y)")], "threelines")
    incl = Morphism(pt, alg, [], "incl")
    fm = fiber(incl, rational_point(pt, []))
    nd = noether_normalize(fm)
    assert nd.kind == "power-substitution"
    assert [str(t) for t in nd.ts] == ["x + y^2"]


def test_lift_failure_on_bogus_normalization_data():
    fm = point_fiber(["x*y"], ["x", "y"])
    ring = fm.relations.ring
    # x/2 lifts to x, which is re-checked and fails: y is not integral over x
    bogus = NoetherData(fm, 1, [ring.var(0).scale(QQ.of(1, 2))], "manual", 0, {})
    with pytest.raises(LiftFailure):
        lift_clear_denominators(bogus, fm.morphism)


def test_decompose_budget_exceeded():
    ring = PolynomialRing(QQ, ["x", "y"])
    handle = IdealHandle(ring, [parse_poly(ring, "x*y")])
    with pytest.raises(RecursionBudgetExceeded):
        decompose_components(handle, budget=1)


def test_noether_witnesses_are_monic_equations():
    fm = point_fiber(["x*y"], ["x", "y"])
    nd = noether_normalize(fm)
    # every fiber variable carries a pure-power leading exponent
    assert set(nd.witness) == {0, 1}


def test_adapted_check_examples():
    fm = point_fiber(["x*y"], ["x", "y"])
    nd = noether_normalize(fm)
    from equipure.schemes import decompose_components

    comps = decompose_components(fm.relations)
    for c in comps:
        assert adapted_check(c, nd)

    # engineered failure: plane + line, tags adapted to the plane only
    fm2 = point_fiber(["x*z", "y*z"], ["x", "y", "z"])
    ring = fm2.relations.ring
    nd2 = NoetherData(fm2, 2, [parse_poly(ring, "x + z"), parse_poly(ring, "y")],
                      "manual", 0, {})
    ok, _, contraction = _over_tags(fm2, nd2.ts)
    assert ok and not contraction
    q_line = IdealHandle(ring, [ring.var(0), ring.var(1)])
    assert not adapted_check(q_line, nd2)
    q_plane = IdealHandle(ring, [ring.var(2)])
    assert adapted_check(q_plane, nd2)
    # zero-dimensional data is vacuously adapted
    nd0 = NoetherData(point_fiber(["x^2"], ["x"]), 0, [], "trivial", 0, {})
    assert adapted_check(IdealHandle(nd0.fiber.relations.ring,
                                     [nd0.fiber.relations.ring.var(0)]), nd0)


def test_lift_clears_rational_denominators():
    fm = point_fiber([], ["x"])
    ring = fm.relations.ring
    pt_alg = make_algebra(QQ, [], [], "pt2")
    alg = make_algebra(QQ, ["x"], [], "line2")
    incl = Morphism(pt_alg, alg, [], "incl2")
    fm = fiber(incl, rational_point(pt_alg, []))
    half_x = parse_poly(alg.ring, "x").scale(QQ.of(1, 2))
    nd = NoetherData(fm, 1, [half_x], "manual", 0, {})
    ss, _ = lift_clear_denominators(nd, incl)
    assert [str(s) for s in ss] == ["x"]


def test_lift_clears_generic_denominator():
    A = make_algebra(QQ, ["a"], [], "A")
    B = make_algebra(QQ, ["a", "x"], [], "B")
    incl = Morphism(A, B, [P(B.ring, "a")], "incl")
    eta = generic_point_of(A, IdealHandle(A.ring, []))
    fm = fiber(incl, eta)
    nd = NoetherData(fm, 1, [P(B.ring, "x")], "manual", 0, {})
    ss, _ = lift_clear_denominators(nd, incl)
    assert [str(s) for s in ss] == ["x"]


def test_generic_lift_reduces_by_source_relations_and_rational_lift_does_not():
    # the one difference between the two lifts: B's relations (z - a)
    # rewrite t = x + a as x + z, and only the generic lift applies them
    A = make_algebra(QQ, ["a"], [], "A")
    ring = PolynomialRing(QQ, ["a", "x", "z"])
    B = make_algebra(QQ, ["a", "x", "z"], [P(ring, "z - a")], "B")
    incl = Morphism(A, B, [P(B.ring, "a")], "incl")
    t = P(B.ring, "x + a")
    assert str(B.reduce(t)) == "x + z"
    eta = generic_point_of(A, IdealHandle(A.ring, []))
    generic = NoetherData(fiber(incl, eta), 1, [t], "manual", 0, {})
    assert lift_clear_denominators(generic, incl)[0] == [B.reduce(t)]
    y = rational_point(A, [1])
    rational = NoetherData(fiber(incl, y), 1, [t], "manual", 0, {})
    assert lift_clear_denominators(rational, incl)[0] == [t]


def test_build_factorization_e0(double_cover, line_q):
    y = rational_point(line_q, [0])
    pts = maximal_points_of_fiber(double_cover, y)
    assert [str(g) for g in pts[0].ideal.groebner()] == ["x"]
    cert = build_factorization(double_cover, y, pts[0])
    assert cert.e == 0 and cert.lifted == []
    # e = 0 means the induced map coincides with the original one
    assert [str(f) for f in cert.induced.images] == \
        [str(f) for f in double_cover.images]
    ok, failed = verify_certificate(recorded(factorization_certificate_obj(cert)))
    assert ok, failed


def test_build_factorization_projection(flat_projection):
    tgt = flat_projection.target
    y = rational_point(tgt, [0, 0])
    pts = maximal_points_of_fiber(flat_projection, y)
    cert = build_factorization(flat_projection, y, pts[0],
                               probes=[origin(flat_projection.source)])
    assert cert.e == 1
    assert [str(s) for s in cert.lifted] == ["w"]
    ok, failed = verify_certificate(recorded(factorization_certificate_obj(cert)))
    assert ok, failed


@pytest.mark.parametrize("kind", ["rational", "generic"])
def test_the_accepted_normalization_is_checked_once(kind, cone_composite, cone_q,
                                                    monkeypatch):
    monkeypatch.setattr(groebner, "_MEMO", {})
    checks, accepted = [], []
    over_tags, normalize = factorization._over_tags, factorization.noether_normalize

    def counted(fm, ts, gens=None):
        checks.append((list(ts), gens))
        return over_tags(fm, ts, gens)

    def normalized(fm, seed, ts):
        accepted.append(normalize(fm, seed, ts))
        return accepted[-1]

    monkeypatch.setattr(factorization, "_over_tags", counted)
    monkeypatch.setattr(factorization, "noether_normalize", normalized)
    y = origin(cone_q) if kind == "rational" else generic_point_of(cone_q, cone_q.relations)
    x0 = maximal_points_of_fiber(cone_composite, y)[0]
    assert fiber(cone_composite, y).kind == kind
    cert = build_factorization(cone_composite, y, x0)
    [nd] = accepted
    assert nd.e == 1 and cert.lifted == nd.ts
    assert checks.count((nd.ts, None)) == 1


def test_build_factorization_cone_composite(cone_composite):
    y = rational_point(cone_composite.target, [0, 0, 0])
    pts = maximal_points_of_fiber(cone_composite, y)
    assert len(pts) == 1 and pts[0].comp_dim == 1
    assert sorted(str(g) for g in pts[0].ideal.groebner()) == ["x", "y"]
    cert = build_factorization(cone_composite, y, pts[0],
                               probes=[origin(cone_composite.source)])
    assert cert.e == 1 and [str(s) for s in cert.lifted] == ["w"]
    names = [p["name"] for p in cert.predicates]
    assert names == [
        "composition-identity",
        "fiber-leg-module-finite",
        "fiber-leg-zero-contraction",
        "point-contracts-to-generic",
        "components-dominate-affine-space",
        "quasi-finite-on-strata",
    ]
    assert all(p["ok"] for p in cert.predicates)
    ok, failed = verify_certificate(recorded(factorization_certificate_obj(cert)))
    assert ok, failed


def test_build_factorization_rejects_low_dimensional_component():
    # fiber with a plane and a line: the line's generic point is not allowed
    pt_alg = make_algebra(QQ, [], [], "pt")
    ring = PolynomialRing(QQ, ["x", "y", "z"])
    alg = make_algebra(QQ, ["x", "y", "z"],
                       [parse_poly(ring, "x*z"), parse_poly(ring, "y*z")], "V")
    incl = Morphism(pt_alg, alg, [], "incl")
    y = rational_point(pt_alg, [])
    pts = maximal_points_of_fiber(incl, y)
    dims = sorted(p.comp_dim for p in pts)
    assert dims == [1, 2]
    low = next(p for p in pts if p.comp_dim == 1)
    with pytest.raises(PreconditionFailed):
        build_factorization(incl, y, low)


def test_generic_point_factorization():
    A = make_algebra(QQ, ["t"], [], "A")
    B = make_algebra(QQ, ["t", "x"], [], "B")
    proj = Morphism(A, B, [P(B.ring, "t")], "proj")
    eta = generic_point_of(A, IdealHandle(A.ring, []))
    pts = maximal_points_of_fiber(proj, eta)
    cert = build_factorization(proj, eta, pts[0])
    assert cert.e == 1 and all(p["ok"] for p in cert.predicates)


def test_equidim_reports(flat_projection, blowup_chart, cone_composite):
    rep = verify_equidimensional_at(
        flat_projection, origin(flat_projection.source),
        probes=[rational_point(flat_projection.source, [1, 2, 3])])
    assert rep["verdict"] == "certified-at-probes" and rep["e"] == 1

    rep2 = verify_equidimensional_at(blowup_chart, origin(blowup_chart.source))
    assert rep2["verdict"] == "refuted"
    assert rep2["e"] == 1 and rep2["witness"]["generic_dim"] == 0

    rep3 = verify_equidimensional_at(
        cone_composite, origin(cone_composite.source),
        probes=[rational_point(cone_composite.source, [1, 1, 1])])
    assert rep3["verdict"] == "certified-at-probes" and rep3["e"] == 1


def test_maximal_points_split_fiber(double_cover, line_q):
    y1 = rational_point(line_q, [1])
    pts = maximal_points_of_fiber(double_cover, y1)
    gens = sorted(str(p.ideal.groebner()[0]) for p in pts)
    assert gens == ["x + 1", "x - 1"]
    assert all(p.comp_dim == 0 for p in pts)
