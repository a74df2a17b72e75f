"""Algebras, morphisms, points, fibers, components, dominance, finiteness."""

import pytest

from equipure import groebner
from equipure.errors import IllDefinedError, UnitIdealError
from equipure.fields import QQ
from equipure.ideals import IdealError, IdealHandle
from equipure.poly import PolynomialRing, parse_poly
from equipure.schemes import (
    Morphism,
    decompose_components,
    dominates,
    fiber,
    fiber_dim_at,
    generic_point_of,
    is_module_finite,
    is_quasi_finite_at,
    make_algebra,
    rational_point,
    verify_component_cover,
)

from conftest import P, apply, compose, origin


def test_make_algebra_examples():
    line = make_algebra(QQ, ["x"], [])
    assert line.dim() == 1
    ring = PolynomialRing(QQ, ["x", "y", "z"])
    cone = make_algebra(QQ, ["x", "y", "z"], [parse_poly(ring, "x*y - z^2")])
    assert cone.dim() == 2
    with pytest.raises(UnitIdealError):
        make_algebra(QQ, ["x"], [PolynomialRing(QQ, ["x"]).one()])


def test_morphism_validates_its_images(cone_q):
    src = make_algebra(QQ, ["x", "y"], [], "aff2")
    ok = Morphism(cone_q, src,
                  [P(src.ring, "x^2"), P(src.ring, "y^2"), P(src.ring, "x*y")])
    assert apply(ok, P(cone_q.ring, "a*b - c^2")).is_zero()
    with pytest.raises(IllDefinedError):
        Morphism(cone_q, src,
                 [P(src.ring, "x"), P(src.ring, "x"), P(src.ring, "1")])


def test_composition_stays_well_defined(double_cover, line_q):
    # q: k[s] -> k[t], s -> t^3; then compose with t -> x^2
    base = make_algebra(QQ, ["s"], [], "base")
    q = Morphism(base, line_q, [P(line_q.ring, "t^3")], "cube")
    comp = compose(q, double_cover)
    assert [str(f) for f in comp.images] == ["x^6"]


def test_fiber_examples(double_cover, line_q):
    y = rational_point(line_q, [0])
    fm = fiber(double_cover, y)
    assert [str(g) for g in fm.relations.generators] == ["x^2"]
    proj_tgt = make_algebra(QQ, ["t"], [], "t-line")
    proj_src = make_algebra(QQ, ["t", "x"], [], "tx")
    proj = Morphism(proj_tgt, proj_src, [P(proj_src.ring, "t")], "pr")
    fm2 = fiber(proj, rational_point(proj_tgt, [0]))
    assert [str(g) for g in fm2.relations.groebner()] == ["t"]
    assert fm2.dim() == 1


def test_fiber_dim_at_examples(flat_projection, blowup_chart, veronese_q):
    assert fiber_dim_at(flat_projection, origin(flat_projection.source)) == 1
    assert fiber_dim_at(blowup_chart, origin(blowup_chart.source)) == 1
    assert fiber_dim_at(veronese_q, origin(veronese_q.source)) == 0


def test_decompose_examples():
    R2 = PolynomialRing(QQ, ["x", "y"])
    comps = decompose_components(IdealHandle(R2, [parse_poly(R2, "x*y")]))
    assert sorted(str(c.generators[0]) for c in comps) == ["x", "y"]
    R3 = PolynomialRing(QQ, ["x", "y", "z"])
    cone = IdealHandle(R3, [parse_poly(R3, "x*y - z^2")])
    comps2 = decompose_components(cone)
    assert len(comps2) == 1     # pseudo-prime leaf
    zero = IdealHandle(R2, [])
    comps3 = decompose_components(zero)
    assert len(comps3) == 1 and comps3[0].is_zero()


def test_splitter_lets_unexpected_division_errors_propagate(monkeypatch):
    # x^2 - 1 splits at its rational root 1; an inexact division (IdealError)
    # only skips that root, anything else the division raises is a fault
    import equipure.schemes as schemes

    R1 = PolynomialRing(QQ, ["x"])
    handle = IdealHandle(R1, [parse_poly(R1, "x^2 - 1")])
    comps = decompose_components(handle)
    assert sorted(str(c.generators[0]) for c in comps) == ["x + 1", "x - 1"]

    def inexact(f, g):
        raise IdealError("division is not exact")

    # a stored cover would answer without dividing again
    monkeypatch.setattr(groebner, "_MEMO", {})
    monkeypatch.setattr(schemes, "exact_divide", inexact)
    comps = decompose_components(handle)
    assert len(comps) == 1

    def faulty(f, g):
        raise ZeroDivisionError("fault inside the division")

    monkeypatch.setattr(groebner, "_MEMO", {})
    monkeypatch.setattr(schemes, "exact_divide", faulty)
    with pytest.raises(ZeroDivisionError, match="fault inside the division"):
        decompose_components(handle)


def test_decompose_two_planes():
    R3 = PolynomialRing(QQ, ["x", "y", "z"])
    comps = decompose_components(
        IdealHandle(R3, [parse_poly(R3, "x*z"), parse_poly(R3, "y*z")]))
    gens = sorted(tuple(sorted(str(g) for g in c.groebner())) for c in comps)
    assert gens == [("x", "y"), ("z",)]


def test_user_supplied_cover_is_verified():
    R2 = PolynomialRing(QQ, ["x", "y"])
    handle = IdealHandle(R2, [parse_poly(R2, "x*y")])
    good = [IdealHandle(R2, [R2.var(0)]), IdealHandle(R2, [R2.var(1)])]
    assert verify_component_cover(handle, good)
    bad = [IdealHandle(R2, [R2.var(0)])]
    assert not verify_component_cover(handle, bad)


def test_dominates_examples():
    line = make_algebra(QQ, ["t"], [], "line")
    R2 = PolynomialRing(QQ, ["x", "y"])
    cross = make_algebra(QQ, ["x", "y"], [parse_poly(R2, "x*y")], "cross")
    pr = Morphism(line, cross, [P(cross.ring, "x")], "pr")
    comps = decompose_components(cross.relations)
    by_gen = {str(c.generators[0]): c for c in comps}
    ok_y, wit = dominates(by_gen["y"], pr)
    assert ok_y and wit.is_zero()
    ok_x, evidence = dominates(by_gen["x"], pr)
    assert not ok_x
    assert [str(g) for g in evidence.generators] == ["t"]
    # identity morphism: every component dominates itself
    idm = Morphism(cross, cross, [cross.ring.var(0), cross.ring.var(1)], "id")
    for c in comps:
        ok, wit = dominates(c, idm)
        assert ok and wit.same_ideal(c)


def test_is_module_finite_examples(double_cover, flat_projection, veronese_q):
    assert is_module_finite(double_cover)
    assert not is_module_finite(flat_projection)
    assert is_module_finite(veronese_q)


def test_quasi_finite_examples(double_cover, flat_projection, blowup_chart):
    for coords in ([0], [1], [2]):
        x = rational_point(double_cover.source, coords)
        assert is_quasi_finite_at(double_cover, x)
    assert not is_quasi_finite_at(flat_projection, origin(flat_projection.source))
    assert not is_quasi_finite_at(blowup_chart, origin(blowup_chart.source))


def test_fiber_commutes_with_target_isomorphism(veronese_q, cone_q):
    # precompose with the coordinate change a <-> b (an isomorphism of the
    # cone); fibers over corresponding points agree up to the renaming
    swapped = make_algebra(QQ, ["a", "b", "c"],
                           [P(cone_q.ring, "a*b - c^2")], "cone-swapped")
    iso = Morphism(swapped, cone_q,
                   [cone_q.ring.var(1), cone_q.ring.var(0), cone_q.ring.var(2)],
                   "swap")
    composed = compose(iso, veronese_q)
    for coords in ([0, 0, 0], [1, 1, 1]):
        y1 = rational_point(cone_q, coords)
        y2 = rational_point(swapped, [coords[1], coords[0], coords[2]])
        f1 = fiber(veronese_q, y1)
        f2 = fiber(composed, y2)
        assert [g.terms for g in f1.relations.groebner()] == \
            [g.terms for g in f2.relations.groebner()]


def test_point_on_variety_check(cone_q):
    with pytest.raises(ValueError):
        rational_point(cone_q, [1, 1, 0])
    pt = rational_point(cone_q, [1, 1, 1])
    assert pt.kind == "rational-closed"
    eta = generic_point_of(cone_q, cone_q.relations)
    assert eta.comp_dim == 2
