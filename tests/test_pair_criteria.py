"""Property tests of the pair criteria in `groebner._pair_loop`, on generated
small inputs: the parametric engine ends with the same leading monomials
with the chain criterion as without it, the module engine with the same
reduced basis, and the Groebner-basis checker, which skips pairs by both
criteria, agrees with the acceptance suite's criterion-free S-polynomial
test."""

from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import Phase, assume, given, settings, strategies as st

from equipure import groebner
from equipure.fields import GF, QQ
from equipure.groebner import buchberger, is_groebner
from equipure.ideals import IdealHandle
from equipure.modules import (
    _module_buchberger,
    graph_kernel_elim_order,
    graph_kernel_order,
)
from equipure.orders import GREVLEX, LEX, block_order
from equipure.parametric import CoeffDomain, DenominatorLog, _param_buchberger, generic_oracle
from equipure.poly import PolynomialRing, parse_poly, poly_from_dict

from test_acceptance import oracle_all_s_polys_reduce
from test_param_properties import COEFF, build, main_poly

FIELDS = [GF(7), QQ]
EXPONENTS = st.tuples(*[st.integers(0, 2)] * 3)


def _leading_monomials(basis, order):
    return [g.leading(order)[0] for g in basis]


@st.composite
def parametric_inputs(draw):
    field = draw(st.sampled_from(FIELDS))
    constraint = draw(st.sampled_from(["", "t^2 - s"]))
    order = draw(st.sampled_from([GREVLEX, block_order([0])]))
    gens = draw(st.lists(main_poly(2, 3), min_size=1, max_size=3))
    return field, constraint, order, gens


# no shrink phase: a counterexample fails at once, where shrinking one
# through the criterion-free route ran for minutes. `derandomize` seeds the
# examples from this test's source text, so editing its body draws other
# inputs, some of which run for minutes through the criterion-free route:
# time the test again after any edit.
@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.generate))
@given(parametric_inputs())
def test_chain_criterion_keeps_the_parametric_leading_monomials(inputs):
    field, constraint, order, raw_gens = inputs
    params = PolynomialRing(field, ["t", "s"])
    main = PolynomialRing(field, ["x", "y", "z"])
    domain = CoeffDomain(params, IdealHandle(
        params, [parse_poly(params, constraint)] if constraint else []))
    gens = [build(raw, main, domain) for raw in raw_gens]

    def run():
        return _param_buchberger(gens, order, domain,
                                 generic_oracle(domain, DenominatorLog(domain)), 4000)

    chained = run()
    with mock.patch.object(groebner, "_chained", lambda *args: False):
        unchained = run()
    assert _leading_monomials(chained, order) == _leading_monomials(unchained, order)


def _poly(ring, raw):
    return poly_from_dict(ring, {e: ring.field.of(c) for e, c in raw})


POLY = st.lists(st.tuples(EXPONENTS, st.integers(-3, 3).filter(bool)), min_size=1, max_size=3)
MODULE_ORDERS = [graph_kernel_order(0, GREVLEX), graph_kernel_order(0, LEX), graph_kernel_order(1),
                 graph_kernel_elim_order(1, {0}, 3)]


# each variable to degree 1 at most: with degree 2, one input under the
# elimination order over Q ran past 100 s with or without the criterion
MODULE_ENTRY = st.lists(st.tuples(st.tuples(*[st.integers(0, 1)] * 3),
                                  st.integers(-3, 3).filter(bool)), max_size=3)


@st.composite
def module_inputs(draw):
    """(vectors, order, ring): two to four vectors of rank one to three,
    each entry zero or a small polynomial."""
    field = draw(st.sampled_from(FIELDS))
    ring = PolynomialRing(field, ["x", "y", "z"])
    rank = draw(st.integers(1, 3))
    vectors = [tuple(_poly(ring, raw) for raw in draw(st.lists(MODULE_ENTRY, min_size=rank,
                                                                max_size=rank)))
               for _ in range(draw(st.integers(2, 4)))]
    return vectors, draw(st.sampled_from(MODULE_ORDERS)), ring


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.generate))
@given(module_inputs())
def test_chain_criterion_keeps_the_module_basis(inputs):
    vectors, order, ring = inputs
    chained = _module_buchberger(vectors, order, ring)
    with mock.patch.object(groebner, "_chained", lambda *args: False):
        unchained = _module_buchberger(vectors, order, ring)
    assert chained == unchained


@st.composite
def checker_inputs(draw):
    """(a candidate set, its order): the generators, their reduced basis, or
    that basis with one element changed by one term."""
    field = draw(st.sampled_from(FIELDS))
    order = draw(st.sampled_from([GREVLEX, LEX, block_order([0])]))
    ring = PolynomialRing(field, ["x", "y", "z"])
    gens = [g for g in (_poly(ring, raw) for raw in draw(st.lists(POLY, min_size=1, max_size=3)))
            if not g.is_zero()]
    assume(gens)
    kind = draw(st.sampled_from(["generators", "basis", "perturbed"]))
    if kind == "generators":
        return gens, order
    basis = buchberger(gens, order)
    if kind == "basis":
        return basis, order
    i = draw(st.integers(0, len(basis) - 1))
    changed = basis[i] + _poly(ring, [(draw(EXPONENTS), draw(st.integers(-3, 3).filter(bool)))])
    assume(not changed.is_zero())
    return basis[:i] + [changed] + basis[i + 1:], order


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(checker_inputs())
def test_checker_with_criteria_agrees_with_the_all_pairs_check(inputs):
    basis, order = inputs
    assert is_groebner(basis, order) == oracle_all_s_polys_reduce(basis, order)
