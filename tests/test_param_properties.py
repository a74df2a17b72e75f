"""Property tests: the parametric engine's heap division with a deferred
constant scale and packed coefficients agrees with the scanning,
rescale-every-step division on Polynomial coefficients, on generated small
bases and dividends over GF(p) and Q."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from equipure.fields import GF, QQ
from equipure.ideals import IdealHandle
from equipure.orders import GREVLEX, LEX, block_order
from equipure.parametric import (
    CoeffDomain,
    DenominatorLog,
    ParamPoly,
    generic_oracle,
)
from equipure.poly import PolynomialRing, parse_poly

from test_division import heap_param_normal_form, recording_oracle, scan_param_normal_form

ORDERS = [GREVLEX, LEX, block_order([0])]

# a parameter coefficient: up to two terms in t, s of degree <= 1 each, so
# that constants are frequent
COEFF = st.lists(
    st.tuples(st.tuples(st.integers(0, 1), st.integers(0, 1)), st.integers(-3, 3)),
    min_size=1, max_size=2)


def main_poly(maxdeg, max_terms):
    exps = st.tuples(*[st.integers(0, maxdeg)] * 3)
    return st.lists(st.tuples(exps, COEFF), min_size=1, max_size=max_terms)


@st.composite
def division_inputs(draw):
    field = draw(st.sampled_from([GF(3), GF(7), QQ]))
    constraint = draw(st.sampled_from(["", "t^2 - s"]))
    order = draw(st.sampled_from(ORDERS))
    basis = draw(st.lists(main_poly(2, 3), min_size=1, max_size=3))
    f = draw(main_poly(3, 5))
    return field, constraint, order, basis, f


def build(raw, main, domain):
    params = domain.ring
    return ParamPoly.build(main, domain, (
        (exp, params.from_terms((pexp, params.field.of(c)) for pexp, c in coeff))
        for exp, coeff in raw))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(division_inputs())
def test_param_normal_form_matches_scan(inputs):
    field, constraint, order, raw_basis, raw_f = inputs
    params = PolynomialRing(field, ["t", "s"])
    main = PolynomialRing(field, ["x", "y", "z"])
    gens = [parse_poly(params, constraint)] if constraint else []
    domain = CoeffDomain(params, IdealHandle(params, gens))
    basis = [g for g in (build(raw, main, domain) for raw in raw_basis) if not g.is_zero()]
    f = build(raw_f, main, domain)
    heap_log, scan_log = DenominatorLog(domain), DenominatorLog(domain)
    heap_qs, scan_qs = [], []
    r = heap_param_normal_form(f, basis, order,
                               recording_oracle(generic_oracle(domain, heap_log), heap_qs))
    expected = scan_param_normal_form(
        f, basis, order, recording_oracle(generic_oracle(domain, scan_log), scan_qs))
    assert r.terms == expected.terms
    assert heap_log.entries == scan_log.entries
    assert list(dict.fromkeys(heap_qs)) == list(dict.fromkeys(scan_qs))


# a parameter coefficient with up to three terms of degree <= 2 in t, s: the
# products and the reductions modulo t^2 - s run on several packed terms
MULTI_COEFF = st.lists(
    st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(lambda e: sum(e) <= 2),
              st.integers(-3, 3)),
    min_size=1, max_size=3)


def multi_poly(maxdeg, max_terms):
    exps = st.tuples(*[st.integers(0, maxdeg)] * 3)
    return st.lists(st.tuples(exps, MULTI_COEFF), min_size=1, max_size=max_terms)


@st.composite
def multi_term_inputs(draw):
    field = draw(st.sampled_from([GF(3), GF(7), QQ]))
    constraint = draw(st.sampled_from(["", "t^2 - s"]))
    order = draw(st.sampled_from(ORDERS))
    basis = draw(st.lists(multi_poly(2, 3), min_size=1, max_size=3))
    f = draw(multi_poly(3, 5))
    return field, constraint, order, basis, f


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(multi_term_inputs())
def test_param_normal_form_with_multi_term_coefficients_matches_scan(inputs):
    field, constraint, order, raw_basis, raw_f = inputs
    params = PolynomialRing(field, ["t", "s"])
    main = PolynomialRing(field, ["x", "y", "z"])
    gens = [parse_poly(params, constraint)] if constraint else []
    domain = CoeffDomain(params, IdealHandle(params, gens))
    basis = [g for g in (build(raw, main, domain) for raw in raw_basis) if not g.is_zero()]
    f = build(raw_f, main, domain)
    heap_log, scan_log = DenominatorLog(domain), DenominatorLog(domain)
    heap_qs, scan_qs = [], []
    r = heap_param_normal_form(f, basis, order,
                               recording_oracle(generic_oracle(domain, heap_log), heap_qs))
    expected = scan_param_normal_form(
        f, basis, order, recording_oracle(generic_oracle(domain, scan_log), scan_qs))
    assert r.terms == expected.terms
    assert heap_log.entries == scan_log.entries
    assert list(dict.fromkeys(heap_qs)) == list(dict.fromkeys(scan_qs))
