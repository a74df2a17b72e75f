"""Shared corpus fixtures: the rings, maps and points used across suites."""

import pytest

from equipure import groebner
from equipure.fields import GF, QQ
from equipure.ideals import IdealHandle
from equipure.poly import PolynomialRing, parse_poly
from equipure.schemes import Morphism, make_algebra, rational_point
from equipure.session import run_command


def P(ring, text):
    return parse_poly(ring, text)


def run_all(session):
    """The Report of every command of a parsed session, in order."""
    return [run_command(session, line, cmd) for line, cmd in session.commands]


@pytest.fixture(scope="module", autouse=True)
def empty_groebner_memo():
    """Each test module starts and leaves with an empty process-wide
    Groebner memo, so no module sees results another one computed; tests
    that count engine calls rely on that when suites share a process."""
    groebner._MEMO.clear()
    yield
    groebner._MEMO.clear()


@pytest.fixture(scope="session")
def line_q():
    return make_algebra(QQ, ["t"], [], "line")


@pytest.fixture(scope="session")
def double_cover(line_q):
    """k[t] -> k[x], t -> x^2: module-finite, e = 0."""
    src = make_algebra(QQ, ["x"], [], "aff1")
    return Morphism(line_q, src, [P(src.ring, "x^2")], "double")


@pytest.fixture(scope="session")
def flat_projection():
    """k[u,v] -> k[u,v,w]: faithfully flat, e = 1."""
    tgt = make_algebra(QQ, ["u", "v"], [], "plane")
    src = make_algebra(QQ, ["u", "v", "w"], [], "space")
    return Morphism(tgt, src, [P(src.ring, "u"), P(src.ring, "v")], "proj")


@pytest.fixture(scope="session")
def cone_q():
    ring = PolynomialRing(QQ, ["a", "b", "c"])
    return make_algebra(QQ, ["a", "b", "c"], [P(ring, "a*b - c^2")], "cone")


@pytest.fixture(scope="session")
def veronese_q(cone_q):
    """The quadric cone inside k[x,y]: a -> x^2, b -> y^2, c -> xy."""
    src = make_algebra(QQ, ["x", "y"], [], "aff2")
    return Morphism(
        cone_q, src,
        [P(src.ring, "x^2"), P(src.ring, "y^2"), P(src.ring, "x*y")],
        "veronese")


@pytest.fixture(scope="session")
def cone_composite(cone_q):
    """Same cone map with a free variable added upstairs: e = 1."""
    src = make_algebra(QQ, ["x", "y", "w"], [], "aff3")
    return Morphism(
        cone_q, src,
        [P(src.ring, "x^2"), P(src.ring, "y^2"), P(src.ring, "x*y")],
        "cone-composite")


@pytest.fixture(scope="session")
def cusp_q():
    ring = PolynomialRing(QQ, ["a", "b"])
    return make_algebra(QQ, ["a", "b"], [P(ring, "b^2 - a^3")], "cusp")


@pytest.fixture(scope="session")
def cusp_normalization(cusp_q):
    """k[a,b]/(b^2 - a^3) -> k[t]: a -> t^2, b -> t^3."""
    src = make_algebra(QQ, ["t"], [], "param-line")
    return Morphism(
        cusp_q, src, [P(src.ring, "t^2"), P(src.ring, "t^3")], "normalization")


@pytest.fixture(scope="session")
def blowup_chart():
    """u -> u, v -> u*x: not equidimensional at the origin."""
    tgt = make_algebra(QQ, ["u", "v"], [], "uv-plane")
    src = make_algebra(QQ, ["u", "x"], [], "chart")
    return Morphism(tgt, src, [P(src.ring, "u"), P(src.ring, "u*x")], "blowup")


@pytest.fixture(scope="session")
def fermat7():
    ring = PolynomialRing(GF(7), ["x", "y", "z"])
    return make_algebra(GF(7), ["x", "y", "z"], [P(ring, "x^3+y^3+z^3")], "fermat7")


@pytest.fixture(scope="session")
def cone7():
    ring = PolynomialRing(GF(7), ["x", "y", "z"])
    return make_algebra(GF(7), ["x", "y", "z"], [P(ring, "x*y - z^2")], "cone7")


@pytest.fixture(scope="session")
def plane7():
    return make_algebra(GF(7), ["x", "y"], [], "plane7")


@pytest.fixture(scope="session")
def veronese7():
    ring = PolynomialRing(GF(7), ["a", "b", "c"])
    tgt = make_algebra(GF(7), ["a", "b", "c"], [P(ring, "a*b - c^2")], "cone7v")
    src = make_algebra(GF(7), ["x", "y"], [], "aff2-7")
    return Morphism(
        tgt, src,
        [P(src.ring, "x^2"), P(src.ring, "y^2"), P(src.ring, "x*y")],
        "veronese7")


def origin(algebra):
    return rational_point(algebra, [0] * algebra.ring.nvars)


def apply(phi, f):
    """phi(f) for f in the target's ambient ring, reduced by the source's
    relations."""
    return phi.source.reduce(f.map_vars(phi.source.ring, phi.images))


def compose(first, second):
    """first: A -> B followed by second: B -> C, as A -> C."""
    assert second.target.ring == first.source.ring, "morphisms not composable"
    return Morphism(first.target, second.source,
                    [apply(second, img) for img in first.images],
                    f"{second.name or '?'}o{first.name or '?'}")
