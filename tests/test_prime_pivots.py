"""Tests of the prime-by-shape shortcut: `ideals.prime_by_pivots`, and its
two users, the splitter search of `schemes.decompose_components` and
`ideals.radical_membership`, which test both the basis and the generators,
against the same search and the plain Rabinowitsch route without it, on
generated pivot-shaped ideals over Q and GF(7)."""

from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from equipure import groebner, ideals, schemes
from equipure.errors import RecursionBudgetExceeded
from equipure.fields import GF, QQ
from equipure.ideals import IdealHandle, prime_by_pivots, radical_membership
from equipure.poly import PolynomialRing, parse_poly, poly_from_dict
from equipure.schemes import decompose_components

from test_fiber_shortcuts import rabinowitsch

FIELDS = [QQ, GF(7)]
NAMES = ["u", "x", "y", "z"]


@st.composite
def pivot_ideals(draw):
    """(ring, generators, shape): one generator c*x_i + p_i per pivot x_i,
    with c a nonzero constant and p_i a polynomial in the variables that
    are not pivots. Either every variable is a pivot (a rational point) or
    some are left over. Shape "pivot" leaves it so; "shared" heads the last
    element with the first pivot too, and "squared" (or "shared" with one
    element) raises the first pivot to x_i^2, so that the shortcut's users
    also meet ideals that are not of pivot shape and may not be prime."""
    field = draw(st.sampled_from(FIELDS))
    shape = draw(st.sampled_from(["pivot", "squared", "shared"]))
    n = draw(st.integers(1, len(NAMES)))
    ring = PolynomialRing(field, NAMES[:n])
    variables = draw(st.permutations(range(n)))
    k = draw(st.integers(1, n))
    pivots, rest = variables[:k], variables[k:]
    tail_term = st.tuples(st.tuples(*[st.integers(0, 2)] * len(rest)),
                          st.integers(-4, 4).filter(bool))
    gens = []
    heads = [(i, 1) for i in pivots]
    if shape == "shared" and k > 1:
        heads[-1] = (pivots[0], 1)
    elif shape != "pivot":
        heads[0] = (pivots[0], 2)
    for i, degree in heads:
        terms = {tuple(degree * (j == i) for j in range(n)): field.of(draw(st.integers(1, 6)))}
        for exps, c in draw(st.lists(tail_term, max_size=3)):
            e = [0] * n
            for j, v in zip(rest, exps):
                e[j] = v
            terms[tuple(e)] = field.add(terms.get(tuple(e), field.zero), field.of(c))
        gens.append(poly_from_dict(ring, terms))
    return ring, gens, shape


def without_shortcut(call, *args):
    """`call(*args)` with `prime_by_pivots` false at both of its users: the
    splitter search and radical membership as they run without it, on a
    memo of their own, so that they compute afresh and store nothing a
    later call with the shortcut would find."""
    with mock.patch.object(schemes, "prime_by_pivots", lambda basis: False), \
            mock.patch.object(ideals, "prime_by_pivots", lambda basis: False), \
            mock.patch.object(groebner, "_MEMO", {}):
        return call(*args)


def _cover(handle):
    return [c.generators for c in decompose_components(handle)]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(pivot_ideals())
def test_components_match_the_search_without_the_shortcut(inputs):
    ring, gens, shape = inputs
    if shape == "pivot":
        assert prime_by_pivots(gens)
    handle = IdealHandle(ring, gens)
    assume(not handle.is_unit())    # a shared pivot can give the unit ideal
    cover = _cover(handle)
    assert cover == without_shortcut(_cover, IdealHandle(ring, gens))
    basis = handle.groebner()
    if prime_by_pivots(basis) or prime_by_pivots(gens):
        # a prime ideal is its own one component
        assert cover == [tuple(basis)]


@st.composite
def pivot_memberships(draw):
    ring, gens, _ = draw(pivot_ideals())
    raw = st.lists(st.tuples(st.tuples(*[st.integers(0, 2)] * ring.nvars),
                             st.integers(-3, 3).filter(bool)), min_size=1, max_size=3)

    def poly():
        return poly_from_dict(ring, {e: ring.field.of(c) for e, c in draw(raw)})

    kind = draw(st.sampled_from(["random", "member", "power", "variable"]))
    if kind == "member":
        f = gens[0] * poly()
    elif kind == "power":
        f = gens[-1] * gens[-1] + gens[0] * poly()
    elif kind == "variable":
        f = ring.var(draw(st.integers(0, ring.nvars - 1)))
    else:
        f = poly()
    return f, IdealHandle(ring, gens)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(pivot_memberships())
def test_radical_membership_matches_rabinowitsch(inputs):
    f, handle = inputs
    assert radical_membership(f, handle) == rabinowitsch(f, handle)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("gens", [
    ["u", "z^3"],               # no degree-one variable in z^3
    ["x + y^2", "x - y^2"],     # x in both elements, y only squared
    ["x^2 - y^3"],              # every variable above degree one
    ["x*y - 1"],                # x and y only in a term of degree two
    ["1"],                      # the unit ideal
    [],                         # the zero ideal
])
def test_non_examples_are_not_pivot_shaped(field, gens):
    ring = PolynomialRing(field, ["u", "x", "y", "z"])
    polys = [parse_poly(ring, g) for g in gens]
    assert not prime_by_pivots(polys)
    assert not prime_by_pivots(IdealHandle(ring, polys).groebner())


def _spy_on_extend(monkeypatch):
    """The names of every variable adjoined from now on."""
    extended = []
    extend = PolynomialRing.extend

    def spy(self, names, front=False):
        extended.extend(names)
        return extend(self, names, front)

    monkeypatch.setattr(PolynomialRing, "extend", spy)
    return extended


def test_a_rational_fiber_is_settled_without_a_tag_ring(monkeypatch):
    """The fiber over a rational probe, (u - 1, x + z^3 - 67): its basis is
    of pivot shape, so neither the search nor radical membership adjoins
    the Rabinowitsch variable w~."""
    ring = PolynomialRing(QQ, ["u", "x", "z"])
    handle = IdealHandle(ring, [parse_poly(ring, "u - 1"), parse_poly(ring, "u^2*x + z^3 - 67")])
    assert prime_by_pivots(handle.groebner())
    monkeypatch.setattr(groebner, "_MEMO", {})    # the cover and answers are computed here
    extended = _spy_on_extend(monkeypatch)
    comps = decompose_components(handle)
    assert [c.generators for c in comps] == [tuple(handle.groebner())]
    assert not radical_membership(parse_poly(ring, "x"), handle)
    assert not any(name.startswith("w~") for name in extended)


@pytest.mark.parametrize("field", FIELDS)
def test_the_twisted_cubic_is_settled_from_its_generators(monkeypatch, field):
    """(x - y^2, z - y^3) is of pivot shape with pivots x and z, but its
    reduced basis (-x + y^2, x*y - z, x^2 - y*z) is not: the generators
    settle it without a search and without w~, with the cover the search
    finds."""
    ring = PolynomialRing(field, ["x", "y", "z"])
    gens = [parse_poly(ring, "x - y^2"), parse_poly(ring, "z - y^3")]
    assert prime_by_pivots(gens)
    assert not prime_by_pivots(IdealHandle(ring, gens).groebner())
    searched = without_shortcut(_cover, IdealHandle(ring, gens))
    f = parse_poly(ring, "x*z - y")
    assert not without_shortcut(radical_membership, f, IdealHandle(ring, gens))
    handle = IdealHandle(ring, gens)
    asked = []
    monkeypatch.setattr(schemes, "radical_membership", lambda *args: asked.append(args))
    assert schemes._find_splitter(handle) is None and not asked    # no search
    monkeypatch.undo()
    monkeypatch.setattr(groebner, "_MEMO", {})    # the cover and answers are computed here
    extended = _spy_on_extend(monkeypatch)
    assert _cover(handle) == searched == [tuple(handle.groebner())]
    assert not radical_membership(f, handle)
    assert not any(name.startswith("w~") for name in extended)


@pytest.mark.parametrize("gens", [["u - 1", "x + z^3 - 67"], ["x - u^2", "z - u^3"]])
def test_the_step_budget_still_binds_a_prime_ideal(gens):
    ring = PolynomialRing(QQ, ["u", "x", "z"])
    prime = IdealHandle(ring, [parse_poly(ring, g) for g in gens])
    assert prime_by_pivots(prime.generators)
    with pytest.raises(RecursionBudgetExceeded):
        decompose_components(prime, budget=0)
