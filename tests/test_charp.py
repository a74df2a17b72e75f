"""Frobenius powers, the F-purity test, tight-closure certificates, the
F-rationality probe and the descent harness."""

import random

import pytest
from hypothesis import Phase, assume, given, settings, strategies as st

from equipure.charp import (
    FrobeniusContext,
    TCVerdict,
    f_rational_probe,
    fedder_f_pure,
    frobenius_power,
    frobenius_poly_power,
    is_parameter_sequence,
    jacobian_test_candidates,
    tc_member_certificate,
    f_rational_descent_check,
)
from equipure.errors import (
    BadCharacteristic,
    HypothesisFailed,
    NotEquidimensionalBase,
)
from equipure.fields import GF, QQ
from equipure.ideals import IdealHandle
from equipure.poly import PolynomialRing, parse_poly
from equipure.schemes import Morphism, make_algebra, rational_point

from conftest import P, origin
from test_acceptance import contraction_spot_check, persistence_spot_check


def test_frobenius_power_examples(plane7):
    ctx = FrobeniusContext(plane7)
    ring = plane7.ring
    b = frobenius_power(IdealHandle(ring, [ring.var(0), ring.var(1)]), 1, ctx)
    assert [str(g) for g in b.generators] == ["x^7", "y^7"]
    s = frobenius_power(IdealHandle(ring, [parse_poly(ring, "x + y")]), 1, ctx)
    assert [str(g) for g in s.generators] == ["x^7 + y^7"]


def test_frobenius_additivity_random(plane7):
    rng = random.Random(3)
    ring = plane7.ring
    for _ in range(20):
        f = ring.from_terms(
            [(tuple(rng.randint(0, 3) for _ in range(2)), GF(7).of(rng.randint(1, 6)))
             for _ in range(3)])
        assert frobenius_poly_power(f, 1, 7) == f ** 7


def test_frobenius_power_multiplicative(fermat7, plane7):
    for alg in (plane7, fermat7):
        ctx = FrobeniusContext(alg)
        ring = alg.ring
        handles = [
            IdealHandle(ring, [ring.var(0), ring.var(1)]),
            IdealHandle(ring, list(alg.relations.generators) or [ring.var(0)]),
        ]
        for handle in handles:
            for e in (0, 1, 2):
                once = frobenius_power(frobenius_power(handle, e, ctx), 1, ctx)
                direct = frobenius_power(handle, e + 1, ctx)
                assert [g.terms for g in once.generators] == \
                    [g.terms for g in direct.generators]


def test_frobenius_rejects_char_zero():
    with pytest.raises(BadCharacteristic):
        FrobeniusContext(make_algebra(QQ, ["x"], [], "q-line"))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_fedder_xy_is_f_pure_all_p(p):
    ring = PolynomialRing(GF(p), ["x", "y"])
    alg = make_algebra(GF(p), ["x", "y"], [parse_poly(ring, "x*y")], "xy")
    amb = make_algebra(GF(p), ["x", "y"], [], "amb")
    assert fedder_f_pure(parse_poly(ring, "x*y"),
                         rational_point(amb, [0, 0]),
                         FrobeniusContext(alg))


def test_fedder_fermat_cubic():
    for p, expected in ((2, False), (7, True)):
        ring = PolynomialRing(GF(p), ["x", "y", "z"])
        f = parse_poly(ring, "x^3 + y^3 + z^3")
        alg = make_algebra(GF(p), ["x", "y", "z"], [f], "fermat")
        amb = make_algebra(GF(p), ["x", "y", "z"], [], "amb")
        verdict = fedder_f_pure(f, rational_point(amb, [0, 0, 0]),
                                FrobeniusContext(alg))
        assert verdict is expected


def test_fedder_invariant_under_linear_substitution():
    # the verdict only depends on the ideal membership, so invertible
    # substitutions cannot change it
    p = 7
    ring = PolynomialRing(GF(p), ["x", "y", "z"])
    f = parse_poly(ring, "x^3 + y^3 + z^3")
    alg = make_algebra(GF(p), ["x", "y", "z"], [f], "fermat")
    amb = make_algebra(GF(p), ["x", "y", "z"], [], "amb")
    base = fedder_f_pure(f, rational_point(amb, [0, 0, 0]), FrobeniusContext(alg))
    subs = [
        [parse_poly(ring, "y"), parse_poly(ring, "z"), parse_poly(ring, "x")],
        [parse_poly(ring, "x + y"), parse_poly(ring, "y"), parse_poly(ring, "z")],
        [parse_poly(ring, "2*x"), parse_poly(ring, "3*y"), parse_poly(ring, "z")],
    ]
    for images in subs:
        g = f.map_vars(ring, images)
        galg = make_algebra(GF(p), ["x", "y", "z"], [g], "fermat-sub")
        assert fedder_f_pure(g, rational_point(amb, [0, 0, 0]),
                             FrobeniusContext(galg)) is base


def groebner_f_pure(f, coords, p):
    """The Groebner route to Fedder's test: f^(p-1) outside m^[p], m the
    maximal ideal of `coords`, by membership in the bracket power."""
    ring = f.ring
    bracket = [(ring.var(i) - ring.const(c)) ** p for i, c in enumerate(coords)]
    return not IdealHandle(ring, bracket).contains(f ** (p - 1))


@st.composite
def hypersurfaces_through_points(draw):
    """(f, coordinates of a rational point on f = 0, p): f is a random
    polynomial over F_p minus its value at the point."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    names = ["x", "y", "z"][:draw(st.integers(2, 3))]
    ring = PolynomialRing(GF(p), names)
    coords = tuple(draw(st.lists(st.integers(0, p - 1), min_size=len(names),
                                 max_size=len(names))))
    terms = draw(st.lists(st.tuples(st.tuples(*[st.integers(0, 3)] * len(names)),
                                    st.integers(1, p - 1)), min_size=1, max_size=4))
    g = ring.from_terms([(exp, ring.field.of(c)) for exp, c in terms])
    f = g - ring.const(g.eval_at(coords))
    assume(not f.is_zero())
    return f, coords, p


# no shrink phase: a disagreement fails at once
@settings(max_examples=80, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.generate))
@given(hypersurfaces_through_points())
def test_fedder_agrees_with_the_groebner_route(case):
    f, coords, p = case
    amb = make_algebra(f.ring.field, list(f.ring.vars), [], "amb")
    assert fedder_f_pure(f, rational_point(amb, coords),
                         FrobeniusContext(amb)) is groebner_f_pure(f, coords, p)


def test_parameter_sequences(plane7, cone7):
    ring = plane7.ring
    assert is_parameter_sequence(plane7, [ring.var(0), ring.var(1)])
    assert not is_parameter_sequence(plane7, [ring.var(0), parse_poly(ring, "x*y")])
    assert is_parameter_sequence(cone7, [cone7.ring.var(0), cone7.ring.var(1)])


def test_parameter_sequence_needs_equidimensional_base():
    ring = PolynomialRing(GF(7), ["x", "y", "z"])
    mixed = make_algebra(GF(7), ["x", "y", "z"],
                         [parse_poly(ring, "x*z"), parse_poly(ring, "y*z")], "mixed")
    with pytest.raises(NotEquidimensionalBase):
        is_parameter_sequence(mixed, [mixed.ring.var(2)])


def test_jacobian_candidates(fermat7, plane7):
    ctx = FrobeniusContext(fermat7)
    cands = [str(c) for c in jacobian_test_candidates(fermat7, ctx)]
    assert cands == ["3*x^2", "3*y^2", "3*z^2"]
    assert [str(c) for c in jacobian_test_candidates(plane7, FrobeniusContext(plane7))] == ["1"]
    # smooth hypersurface: the unit joins the candidate list
    ring = PolynomialRing(GF(7), ["x"])
    smooth = make_algebra(GF(7), ["x"], [parse_poly(ring, "x^2 - 1")], "two-pts")
    cands2 = [str(c) for c in jacobian_test_candidates(smooth, FrobeniusContext(smooth))]
    assert cands2[0] == "1"


def test_tc_member_short_circuit(plane7):
    ctx = FrobeniusContext(plane7)
    ring = plane7.ring
    v = tc_member_certificate(ring.var(0),
                              IdealHandle(ring, [ring.var(0), ring.var(1)]),
                              ring.one(), 2, ctx)
    assert v.status == TCVerdict.MEMBER


def test_tc_not_in_closure(plane7):
    ctx = FrobeniusContext(plane7)
    ring = plane7.ring
    v = tc_member_certificate(ring.var(1), IdealHandle(ring, [ring.var(0)]),
                              ring.one(), 1, ctx)
    assert v.status == TCVerdict.NOT_IN_CLOSURE and v.witness_exponent == 1
    assert v.recheck(ctx)


def test_tc_evidence_fermat(fermat7):
    ctx = FrobeniusContext(fermat7)
    ring = fermat7.ring
    v = tc_member_certificate(parse_poly(ring, "z^2"),
                              IdealHandle(ring, [ring.var(0), ring.var(1)]),
                              parse_poly(ring, "x^2"), 3, ctx)
    assert v.status == TCVerdict.EVIDENCE
    assert [flag for _, flag in v.levels] == [True, True, True]
    assert v.recheck(ctx)


def test_f_rational_probe_regular(plane7):
    ctx = FrobeniusContext(plane7)
    ring = plane7.ring
    rep = f_rational_probe(plane7, [[ring.var(0), ring.var(1)]], 2, ctx)
    assert rep.clean()


def test_f_rational_probe_fermat_flags(fermat7):
    ctx = FrobeniusContext(fermat7)
    ring = fermat7.ring
    rep = f_rational_probe(fermat7, [[ring.var(0), ring.var(1)]], 3, ctx)
    assert rep.verdict == "NotFRational"
    assert rep.witness["z"] == "z^2"


def test_f_rational_probe_degenerate_candidates():
    # Fermat cubic at p = 3: every partial derivative vanishes, so no
    # multiplier candidate survives and the probe must say so
    ring = PolynomialRing(GF(3), ["x", "y", "z"])
    cubic = make_algebra(GF(3), ["x", "y", "z"],
                         [parse_poly(ring, "x^3 + y^3 + z^3")], "fermat3")
    ctx = FrobeniusContext(cubic)
    rep = f_rational_probe(cubic, [[cubic.ring.var(0), cubic.ring.var(1)]], 2, ctx)
    assert rep.verdict == "inconclusive-no-candidates"


def test_f_rational_probe_cone_clean(cone7):
    ctx = FrobeniusContext(cone7)
    ring = cone7.ring
    rep = f_rational_probe(cone7, [[ring.var(0), ring.var(1)]], 3, ctx)
    assert rep.clean()


def test_persistence_along_flat_extension(fermat7):
    ring = PolynomialRing(GF(7), ["x", "y", "z", "T"])
    ext = make_algebra(GF(7), ["x", "y", "z", "T"],
                       [parse_poly(ring, "x^3 + y^3 + z^3")], "fermat-ext")
    flat = Morphism(fermat7, ext,
                    [ext.ring.var(0), ext.ring.var(1), ext.ring.var(2)], "flat")
    z = parse_poly(fermat7.ring, "z^2")
    I = IdealHandle(fermat7.ring, [fermat7.ring.var(0), fermat7.ring.var(1)])
    c = parse_poly(fermat7.ring, "x^2")
    assert persistence_spot_check(flat, z, I, c, 2)


def test_persistence_identity(fermat7):
    idm = Morphism(fermat7, fermat7,
                   [fermat7.ring.var(i) for i in range(3)], "id")
    z = parse_poly(fermat7.ring, "z^2")
    I = IdealHandle(fermat7.ring, [fermat7.ring.var(0), fermat7.ring.var(1)])
    assert persistence_spot_check(idm, z, I, parse_poly(fermat7.ring, "x^2"), 2)


def test_contraction_spot_checks(veronese7):
    R = veronese7.target
    I = IdealHandle(R.ring, [R.ring.var(0), R.ring.var(1)])
    for text in ("a*b", "c^2", "c", "a^2", "a + b"):
        assert contraction_spot_check(veronese7, parse_poly(R.ring, text), I)


def test_descent_harness_veronese(veronese7):
    y = rational_point(veronese7.target, [0, 0, 0])
    rep = f_rational_descent_check(veronese7, y, [origin(veronese7.source)], 2)
    assert rep.verdict == "consistent"
    assert rep.source_report.clean() and rep.target_report.clean()
    assert rep.purity_witness["pure_at_y"]
    assert not rep.alarms


def test_descent_harness_refuses_non_equidimensional():
    tgt = make_algebra(GF(7), ["u", "v"], [], "uv7")
    src = make_algebra(GF(7), ["u", "x"], [], "ux7")
    blow = Morphism(tgt, src, [P(src.ring, "u"), P(src.ring, "u*x")], "blow7")
    with pytest.raises(HypothesisFailed) as err:
        f_rational_descent_check(blow, rational_point(tgt, [0, 0]),
                          [rational_point(src, [0, 0])], 2)
    assert err.value.hypothesis == "equidimensionality"


def test_descent_harness_identity(plane7):
    idm = Morphism(plane7, plane7,
                   [plane7.ring.var(0), plane7.ring.var(1)], "id7")
    rep = f_rational_descent_check(idm, rational_point(plane7, [0, 0]),
                            [rational_point(plane7, [0, 0])], 2)
    assert rep.verdict == "consistent"
