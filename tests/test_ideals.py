"""Ideal operations: membership, elimination, saturation, dimension,
radical membership, envelopes."""

import random

import pytest

from equipure import groebner
from equipure.errors import RootSearchBudgetExceeded
from equipure.fields import GF, QQ
from equipure.groebner import normal_form
from equipure.ideals import (
    IdealHandle,
    eliminate,
    ideal_quotient,
    krull_dim,
    linear_roots,
    radical_envelope,
    radical_membership,
    saturation,
)
from equipure.orders import GREVLEX, LEX
from equipure.poly import PolynomialRing, parse_poly

from test_acceptance import monomial_ideal_dim_bruteforce, saturation_tag


def H(ring, *texts):
    return IdealHandle(ring, [parse_poly(ring, t) for t in texts])


@pytest.fixture(scope="module")
def R2():
    return PolynomialRing(QQ, ["x", "y"])


@pytest.fixture(scope="module")
def R3():
    return PolynomialRing(QQ, ["x", "y", "z"])


def test_membership_examples(R3, R2):
    cone = H(R3, "x*y - z^2")
    assert cone.contains(parse_poly(R3, "x*y - z^2"))
    assert not cone.contains(R3.var(2))
    assert H(R2, "x", "x + 1").is_unit()


def test_membership_matches_cofactor_reconstruction(R3):
    rng = random.Random(7)
    handle = H(R3, "x*y - z^2", "x^2 - y")
    basis = handle.groebner()
    for _ in range(20):
        f = R3.from_terms(
            [(tuple(rng.randint(0, 2) for _ in range(3)), QQ.of(rng.randint(-3, 3)))
             for _ in range(3)])
        r, quots = normal_form(f, basis, GREVLEX, track=True)
        recon = r
        for q, g in zip(quots, basis):
            recon = recon + q * g
        assert recon == f
        assert handle.contains(f) == r.is_zero()


def test_eliminate_examples(R2):
    R5 = PolynomialRing(QQ, ["x", "y", "a", "b", "c"])
    implicit = eliminate(H(R5, "a - x^2", "b - y^2", "c - x*y"), ["x", "y"])
    assert [str(g) for g in implicit.generators] == ["a*b - c^2"]
    # both containments certified by membership in the original ideal
    full = H(R5, "a - x^2", "b - y^2", "c - x*y")
    lifted = parse_poly(R5, "a*b - c^2")
    assert full.contains(lifted)

    RT = PolynomialRing(QQ, ["x", "T"])
    out = eliminate(H(RT, "T - x^2", "x^3"), ["x"])
    assert [str(g) for g in out.generators] == ["T^2"]

    same = eliminate(H(R2, "x*y"), [])
    assert [str(g) for g in same.generators] == ["x*y"]


def test_quotient_and_saturation(R2):
    xy = H(R2, "x*y")
    sat, n = saturation(xy, R2.var(1))
    assert [str(g) for g in sat.groebner()] == ["x"]
    assert n == 1
    # stabilization: one more quotient changes nothing
    again = ideal_quotient(sat, R2.var(1))
    assert [g.terms for g in again.groebner()] == [g.terms for g in sat.groebner()]

    same, n0 = saturation(xy, R2.one())
    assert [str(g) for g in same.groebner()] == ["x*y"]
    assert n0 == 0

    # quotient vs full saturation on (x^2, xy): the quotient by x is (x, y),
    # the saturation is the unit ideal because x^2 already lies inside
    quo = ideal_quotient(H(R2, "x^2", "x*y"), R2.var(0))
    assert [str(g) for g in quo.groebner()] == ["y", "x"]
    sat2, _ = saturation(H(R2, "x^2", "x*y"), R2.var(0))
    assert sat2.is_unit()


def test_saturation_tag_route_agrees(R2, R3):
    cases = [
        (H(R2, "x*y"), R2.var(1)),
        (H(R2, "x^2", "x*y"), R2.var(0)),
        (H(R3, "x*z", "y*z"), R3.var(0)),
        (H(R3, "x*y - z^2"), R3.var(2)),
    ]
    for handle, f in cases:
        a, _ = saturation(handle, f)
        b = saturation_tag(handle, f)
        assert [g.terms for g in a.groebner()] == [g.terms for g in b.groebner()]


def test_krull_dim_examples(R2, R3):
    assert krull_dim(H(R2)) == 2
    assert krull_dim(H(R3, "x*y - z^2")) == 2
    assert krull_dim(H(R2, "x", "y")) == 0
    assert krull_dim(H(R2, "1")) == -1
    assert krull_dim(H(R3, "x*z", "y*z")) == 2


def test_krull_dim_against_bruteforce_oracle():
    rng = random.Random(31)
    for nvars in (2, 3, 4, 5):
        ring = PolynomialRing(QQ, [f"v{i}" for i in range(nvars)])
        for _ in range(6):
            monos = []
            for _ in range(rng.randint(1, 4)):
                exp = tuple(rng.randint(0, 2) for _ in range(nvars))
                if any(exp):
                    monos.append(ring.from_terms([(exp, QQ.of(1))]))
            if not monos:
                continue
            assert krull_dim(IdealHandle(ring, monos)) == \
                monomial_ideal_dim_bruteforce(ring, monos)


def test_radical_membership_examples(R2):
    assert radical_membership(R2.var(0), H(R2, "x^2"))
    assert not radical_membership(R2.var(1), H(R2, "x^2"))
    assert radical_membership(R2.one(), H(R2, "1"))


def test_linear_roots():
    R = PolynomialRing(QQ, ["x", "y"])
    hit = linear_roots(parse_poly(R, "x^2 - 1"))
    assert hit is not None
    i, roots = hit
    assert i == 0 and roots == [QQ.of(-1), QQ.of(1)]
    assert linear_roots(parse_poly(R, "x*y")) is None
    Rp = PolynomialRing(GF(5), ["x"])
    _, roots5 = linear_roots(parse_poly(Rp, "x^2 - 1"))
    assert roots5 == [1, 4]


def test_linear_roots_refuses_a_search_cut_by_its_trial_divisor_cap():
    # 2003*2011 has no divisor but 1 up to the cap of 2000: a search cut
    # there finds neither root
    R = PolynomialRing(QQ, ["x"])
    with pytest.raises(RootSearchBudgetExceeded, match="MAX_TRIAL_DIVISOR"):
        linear_roots(parse_poly(R, "(x - 2003)*(x - 2011)"))
    # 1999*2003 < 2001^2: trial division up to the cap reaches its square root
    assert linear_roots(parse_poly(R, "(x - 1999)*(x - 2003)")) == (
        0, [QQ.of(1999), QQ.of(2003)])


def test_radical_envelope(R2):
    env = radical_envelope(H(R2, "x^2", "x*y", "y^2"))
    assert [str(g) for g in env.generators] == ["y", "x"]
    env2 = radical_envelope(H(R2, "x^2 - 1"))
    # x^2 - 1 is not primary to a linear ideal, so no variable certifies in
    assert [str(g) for g in env2.groebner()] == ["x^2 - 1"]


def test_a_basis_is_computed_once_per_process(R2, monkeypatch):
    """A second `groebner()`, on the same handle or on a new handle with the
    same generators, gives the same basis without running Buchberger's
    algorithm again; another order runs it once more."""
    runs = []
    inner = groebner._buchberger

    def counted(gens, order):
        runs.append(order)
        return inner(gens, order)

    monkeypatch.setattr(groebner, "_MEMO", {})
    monkeypatch.setattr(groebner, "_buchberger", counted)
    handle = H(R2, "x*y - 1", "x^2")
    first = handle.groebner()
    assert runs == [GREVLEX]
    assert handle.groebner() == first
    assert H(R2, "x*y - 1", "x^2").groebner() == first
    assert runs == [GREVLEX]
    handle.groebner(LEX)
    assert runs == [GREVLEX, LEX]
    assert H(R2, "x*y - 1", "x^2").groebner_any() == (first, GREVLEX)
    assert runs == [GREVLEX, LEX]
