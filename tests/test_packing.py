"""Packed monomials: for every order family the package uses, the order
key read off the packed fields sorts as the textbook key, one int per
monomial compares as the order key does, multiplies by addition, tests
divisibility and forms quotients by one masked subtraction, decodes back,
and reports a field that would overflow; the division and Buchberger loops
give the textbook answers on exponents past the first field width."""

import hashlib

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from equipure.fields import QQ, GF
from equipure.groebner import buchberger, normal_form
from equipure.ideals import IdealHandle
from equipure.modules import (
    graph_kernel_elim_order,
    graph_kernel_order,
    module_buchberger,
    module_normal_form,
    vec_leading,
)
from equipure.orders import (
    GREVLEX,
    LEX,
    PACKING_BITS,
    PackingOverflow,
    block_order,
    exp_div,
    exp_divides,
    exp_mul,
    permuted_grevlex,
)
from equipure.parametric import (
    CoeffDomain,
    DenominatorLog,
    ParamPoly,
    _param_buchberger,
    generic_oracle,
    split_poly,
)
from equipure.poly import PolynomialRing, parse_poly

from test_acceptance import oracle_all_s_polys_reduce, oracle_divide, oracle_is_reduced
from test_division import heap_param_normal_form, recording_oracle, scan_param_normal_form

NVARS = 4
TOP = (1 << (PACKING_BITS - 1)) - 1   # the largest field value of a first packing

MONOMIAL_ORDERS = [LEX, GREVLEX, block_order([1, 3]), permuted_grevlex((2, 0, 3, 1))]
MODULE_ORDERS = [graph_kernel_order(0), graph_kernel_order(0, LEX), graph_kernel_order(2),
                 graph_kernel_elim_order(2, {0, 2}, NVARS)]

# mostly small exponents, and now and then one at or past the field width
EXPONENT = st.one_of(st.integers(0, 5), st.sampled_from([TOP - 1, TOP, TOP + 1, 2 ** 20 + 1]))
EXP = st.tuples(*[EXPONENT] * NVARS)


# -- the textbook keys (Cox, Little & O'Shea, ch. 2 §2), written out per
# order kind: the reference that `order.key`, read off packed fields, sorts
# as


def grevlex_key(exp):
    """Total degree first, then the smaller exponent in the last variable
    where two monomials differ wins."""
    return (sum(exp), tuple(-e for e in reversed(exp)))


def reference_key(order, exp):
    if order.kind == "lex":
        return exp
    if order.kind == "grevlex":
        return grevlex_key(exp)
    if order.kind == "grevlex-perm":
        return grevlex_key(tuple(exp[i] for i in order.perm))
    return (grevlex_key(tuple(exp[i] for i in order.front)),
            grevlex_key(tuple(e for i, e in enumerate(exp) if i not in order.front)))


def elim_key(lead, front, pos, exp):
    """Leading positions first, then grevlex on the front variables, then
    position, then grevlex on the rest."""
    return (pos < lead, grevlex_key(tuple(exp[i] for i in front)), -pos,
            grevlex_key(tuple(e for i, e in enumerate(exp) if i not in front)))


# each module order with its textbook key on (position, exponent)
MODULE_REFERENCES = [
    (graph_kernel_order(0), lambda pos, exp: (-pos, grevlex_key(exp))),
    (graph_kernel_order(0, LEX), lambda pos, exp: (-pos, exp)),
    (graph_kernel_order(2), lambda pos, exp: (pos < 2, -pos, grevlex_key(exp))),
    (graph_kernel_order(1, LEX), lambda pos, exp: (pos < 1, -pos, exp)),
    (graph_kernel_elim_order(2, {0, 2}, NVARS),
     lambda pos, exp: elim_key(2, (0, 2), pos, exp)),
]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(MONOMIAL_ORDERS), st.lists(EXP, max_size=8))
def test_monomial_order_keys_sort_as_the_textbook_keys(order, exps):
    assert sorted(exps, key=order.key) == sorted(exps, key=lambda e: reference_key(order, e))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(MODULE_REFERENCES),
       st.lists(st.tuples(st.integers(0, 4), EXP), max_size=8))
def test_module_order_keys_sort_as_the_textbook_keys(reference, terms):
    order, key = reference
    assert sorted(terms, key=lambda t: order.key(*t)) == sorted(terms, key=lambda t: key(*t))


def fitting(packing, *exps):
    """The first of `packing` and its widenings whose fields hold every one
    of `exps`, and their packed values."""
    while True:
        try:
            return packing, [packing.encode(e) for e in exps]
        except PackingOverflow:
            packing = packing.wider()


def check_product(packing, ka, kb, a, b):
    product = ka + kb - packing.one
    if product & packing.guard:
        # a guard bit is the loops' overflow signal: the product really
        # does not fit
        with pytest.raises(PackingOverflow):
            packing.encode(exp_mul(a, b))
    else:
        assert product == packing.encode(exp_mul(a, b))
    # a packing wide enough for the product computes it
    wide, (wa, wb, wab) = fitting(packing, a, b, exp_mul(a, b))
    assert wa + wb - wide.one == wab


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(MONOMIAL_ORDERS), EXP, EXP)
def test_monomial_packing_matches_the_order_key(order, a, b):
    packing, (ka, kb) = fitting(order.packing(NVARS), a, b)
    assert packing.decode(ka) == a and packing.decode(kb) == b
    assert (ka < kb) == (order.key(a) < order.key(b))
    assert (ka == kb) == (a == b)
    d = kb - ka + packing.one
    assert (not d & packing.divmask) == exp_divides(a, b)
    if exp_divides(a, b):
        assert d == packing.encode(exp_div(b, a))
    check_product(packing, ka, kb, a, b)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(MODULE_ORDERS), st.integers(0, 4), EXP, st.integers(0, 4), EXP)
def test_module_packing_matches_the_order_key(order, pa, a, pb, b):
    packing, (ma, mb) = fitting(order.packing(NVARS), a, b)
    ka, kb = packing.at(pa) + ma, packing.at(pb) + mb
    assert packing.decode(ka) == a and packing.position(ka) == pa
    assert (ka < kb) == (order.key(pa, a) < order.key(pb, b))
    assert (ka == kb) == ((pa, a) == (pb, b))
    d = kb - ka + packing.one
    assert (not d & packing.divmask) == (pa == pb and exp_divides(a, b))
    if pa == pb and exp_divides(a, b):
        assert d == packing.encode(exp_div(b, a))
    # a module term times a monomial keeps its position fields
    product = ka + mb - packing.one
    if not product & packing.guard:
        assert product == packing.at(pa) + packing.encode(exp_mul(a, b))


def test_encode_refuses_what_its_fields_cannot_hold():
    packing = GREVLEX.packing(2)
    assert packing.decode(packing.encode((TOP, 0))) == (TOP, 0)
    with pytest.raises(PackingOverflow):
        packing.encode((TOP, 1))
    lex = LEX.packing(2)
    assert lex.decode(lex.encode((TOP, TOP))) == (TOP, TOP)
    with pytest.raises(PackingOverflow):
        lex.encode((TOP + 1, 0))
    assert packing.wider().encode((TOP, 1)) > packing.wider().encode((TOP, 0))


# -- the loops past the field width ----------------------------------------

R = PolynomialRing(QQ, ["x", "y"])

# (dividend, basis): the input itself does not fit a first packing; it fits
# but the division's products do not (x -> y^20000 twice under lex); it
# fits but an S-pair lcm (x^20000*y^20000) does not
WIDE_CASES = [
    ("x^1048577 + y*x^3 - 1", ["y^2 - 1"]),
    ("x^2 + y", ["x - y^20000"]),
    ("x^20000*y - 1", ["x*y^20000 - x"]),
]


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=repr)
@pytest.mark.parametrize("f, basis", WIDE_CASES + [("x^1048577 + y*x^3 - 1", ["x^1048575 - y"]),
                                                   ("x^32769 + y*x^3 - 1", ["x^3 - y"])])
def test_division_past_the_field_width(order, f, basis):
    f = parse_poly(R, f)
    basis = [parse_poly(R, g) for g in basis]
    r, quots = normal_form(f, basis, order, track=True)
    assert dict(r.terms) == oracle_divide(f, basis, order)
    recon = r
    for q, g in zip(quots, basis):
        recon = recon + q * g
    assert recon == f


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=repr)
@pytest.mark.parametrize("f, basis", WIDE_CASES)
def test_buchberger_past_the_field_width(order, f, basis):
    f = parse_poly(R, f)
    basis = [parse_poly(R, g) for g in basis]
    gb = buchberger([f] + basis, order)
    assert oracle_all_s_polys_reduce(gb, order) and oracle_is_reduced(gb, order)
    assert all(not oracle_divide(h, gb, order) for h in [f] + basis)


def test_module_division_past_the_field_width():
    ring = PolynomialRing(GF(7), ["x", "y"])
    order = graph_kernel_order(0)
    gens = [(parse_poly(ring, "x^40000 - y"), parse_poly(ring, "x")),
            (parse_poly(ring, "y^3"), parse_poly(ring, "x*y + 1"))]
    gb = module_buchberger(gens, order, ring)
    leads = [vec_leading(g, order)[0] for g in gb]
    for g in gens:
        assert all(c.is_zero() for c in module_normal_form(g, gb, order))
    v = (parse_poly(ring, "x^80000*y + y^5"), parse_poly(ring, "x^2 + y^40003"))
    r, quots = module_normal_form(v, gb, order, track=True)
    recon = list(r)
    for q, g in zip(quots, gb):
        recon = [acc + q * comp for acc, comp in zip(recon, g)]
    assert tuple(recon) == v
    for pos, comp in enumerate(r):
        for exp, _ in comp.terms:
            assert not any(lpos == pos and exp_divides(lexp, exp) for lpos, lexp in leads)


def test_parametric_division_past_the_field_width():
    params = PolynomialRing(QQ, ["t"])
    main = PolynomialRing(QQ, ["x", "y"])
    domain = CoeffDomain(params, IdealHandle(params, []))
    t = parse_poly(params, "t")
    one = params.one()
    f = ParamPoly.build(main, domain, [((1048577, 1), one), ((2, 0), t)])
    basis = [ParamPoly.build(main, domain, [((40000, 0), t), ((0, 3), one)]),
             ParamPoly.build(main, domain, [((0, 2), one + t), ((0, 0), one)])]
    for order in (GREVLEX, LEX):
        questions, expected_questions = [], []
        r = heap_param_normal_form(f, basis, order,
                                   recording_oracle(lambda c: True, questions))
        expected = scan_param_normal_form(f, basis, order,
                                          recording_oracle(lambda c: True, expected_questions))
        assert r.terms == expected.terms
        assert list(dict.fromkeys(questions)) == list(dict.fromkeys(expected_questions))


# -- parametric coefficients past the field width ----------------------------

# coefficients in t, s whose products pass the first field width:
# t^20000 times t^20000, and t^40000 against the constraint t^40000 - s
WIDE_COEFF_CONSTRAINTS = ["", "t^40000 - s"]
WIDE_COEFF_CASES = [
    ("t^20000*x^2*y + s*x*y + t*y^2", ["t^20000*x - s*y", "y^2 - t^20000*x"]),
    ("x^3 + t^20000*y", ["x - t^20000*y", "y^2 + t^30000"]),
    ("t^20000*x*y^2 - s", ["2*x*y - t^20000", "t^40000*y^2 - x"]),
]


def param_case(field, constraint, texts):
    """(main ring, domain, ParamPolys) of polynomials in x, y, t, s over
    the parameters t, s modulo `constraint`."""
    params = PolynomialRing(field, ["t", "s"])
    main = PolynomialRing(field, ["x", "y"])
    domain = CoeffDomain(params, IdealHandle(
        params, [parse_poly(params, constraint)] if constraint else []))
    ring = PolynomialRing(field, ["x", "y", "t", "s"])
    return main, domain, [split_poly(parse_poly(ring, t), main, domain, (0, 1), (2, 3))
                          for t in texts]


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=repr)
@pytest.mark.parametrize("f, basis", WIDE_COEFF_CASES)
@pytest.mark.parametrize("constraint", WIDE_COEFF_CONSTRAINTS, ids=["free", "t^40000-s"])
@pytest.mark.parametrize("field", [QQ, GF(7)], ids=repr)
def test_parametric_coefficients_past_the_field_width(field, constraint, f, basis, order):
    _, domain, (f, *basis) = param_case(field, constraint, [f] + basis)
    heap_log, scan_log = DenominatorLog(domain), DenominatorLog(domain)
    heap_qs, scan_qs = [], []
    r = heap_param_normal_form(f, basis, order,
                               recording_oracle(generic_oracle(domain, heap_log), heap_qs))
    expected = scan_param_normal_form(
        f, basis, order, recording_oracle(generic_oracle(domain, scan_log), scan_qs))
    assert r.terms == expected.terms
    assert heap_log.entries == scan_log.entries
    assert list(dict.fromkeys(heap_qs)) == list(dict.fromkeys(scan_qs))


# (field, constraint, generators, order) -> (the basis printed, md5 of the
# oracle's questions in order, one per line); recorded with the engine that
# kept its coefficients as Polynomials, the third digest again once the
# engine skipped pairs by the chain criterion
WIDE_COEFF_BASES = [
    ((GF(7), "t^40000 - s", ["t^20000*x^2 - s*y + x", "t^20000*x*y - y^2"], LEX),
     (["(s)*y^3 + (6*t^20000*s^2 + s)*y^2", "(t^20000)*x*y + (6)*y^2",
       "(t^20000)*x^2 + x + (6*s)*y"], "5450778a9044c5f878c8f2dfff57bc02")),
    ((GF(7), "", ["t^20000*x*y - s", "x^2 - t^20000*y"], LEX),
     (["(6*t^60000)*y^3 + (s^2)", "(t^40000)*y^2 + (6*s)*x"],
      "766c9e7d8c602782342f1f7744c06685")),
    ((QQ, "", ["t^20000*x^2 - s*y", "t^20000*y^2 - x", "x*y - t^30000"], GREVLEX),
     (["(-t^100000 + t^30000*s)"], "c1399098f29c7d5e0ecc94a7e4122374")),
]


@pytest.mark.parametrize("case, expected", WIDE_COEFF_BASES)
def test_parametric_buchberger_past_the_coefficient_field_width(case, expected):
    field, constraint, texts, order = case
    _, domain, gens = param_case(field, constraint, texts)
    oracle = generic_oracle(domain, DenominatorLog(domain))
    questions = []
    basis = _param_buchberger(gens, order, domain,
                              recording_oracle(oracle, questions), 4000)
    digest = hashlib.md5("\n".join(map(str, questions)).encode()).hexdigest()
    assert ([repr(g) for g in basis], digest) == expected
