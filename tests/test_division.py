"""Heap-ordered division, checked against the acceptance suite's textbook
division loop (a full scan for the biggest term at every step), and the
parametric engine's fraction-free division against its scanning form."""

import random

import pytest

from equipure.fields import GF, QQ
from equipure.groebner import buchberger, normal_form
from equipure.modules import (
    graph_kernel_elim_order,
    module_buchberger,
    module_normal_form,
    vec_leading,
)
from equipure.ideals import IdealHandle
from equipure.orders import GREVLEX, LEX, block_order, exp_div, exp_divides, exp_mul
from equipure.parametric import (
    CoeffDomain,
    DenominatorLog,
    ParamPoly,
    generic_oracle,
    param_normal_form,
)
from equipure.poly import PolynomialRing, parse_poly, poly_from_dict

from test_acceptance import oracle_divide

FIELDS = [GF(7), QQ]
ORDERS = [GREVLEX, LEX, block_order([0])]


def random_poly(ring, rng, nterms=4, maxdeg=2):
    fld = ring.field
    terms = {}
    while not terms:
        for _ in range(nterms):
            exp = tuple(rng.randint(0, maxdeg) for _ in range(ring.nvars))
            c = fld.of(rng.randint(-4, 4))
            if c:
                terms[exp] = c
    return poly_from_dict(ring, terms)


def reconstruct(remainder, quotients, basis):
    acc = remainder
    for q, g in zip(quotients, basis):
        acc = acc + q * g
    return acc


def engine_order(basis, order):
    """The divisor order normal_form tries: smallest leading term first."""
    return sorted(basis, key=lambda g: (order.key(g.leading(order)[0]), g.terms))


@pytest.mark.parametrize("order", ORDERS, ids=repr)
@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.kind)
def test_heap_division_matches_oracle_on_arbitrary_bases(field, order):
    rng = random.Random(f"{field.char}-{order!r}-arbitrary")
    ring = PolynomialRing(field, ["x", "y", "z"])
    for _ in range(25):
        basis = [random_poly(ring, rng, nterms=3) for _ in range(rng.randint(1, 3))]
        f = random_poly(ring, rng, nterms=6, maxdeg=4)
        r, quots = normal_form(f, basis, order, track=True)
        assert reconstruct(r, quots, basis) == f
        assert dict(r.terms) == oracle_divide(f, engine_order(basis, order), order)


@pytest.mark.parametrize("order", ORDERS, ids=repr)
@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.kind)
def test_heap_division_remainder_is_unique_on_reduced_bases(field, order):
    rng = random.Random(f"{field.char}-{order!r}-reduced")
    ring = PolynomialRing(field, ["x", "y", "z"])
    for _ in range(6):
        gb = buchberger([random_poly(ring, rng, nterms=3) for _ in range(2)], order)
        f = random_poly(ring, rng, nterms=6, maxdeg=4)
        r, quots = normal_form(f, gb, order, track=True)
        assert reconstruct(r, quots, gb) == f
        # any divisor order gives the same remainder on a Groebner basis
        assert dict(r.terms) == oracle_divide(f, gb[::-1], order)


def test_cancelled_term_that_reenters_is_popped_once():
    # Under lex, reducing x*z by x - y cancels -y*z; reducing y^2 by
    # y^2 - y*z then brings y*z back, so the heap holds a stale entry for it.
    R = PolynomialRing(QQ, ["x", "y", "z"])
    basis = [parse_poly(R, "x - y"), parse_poly(R, "y^2 - y*z")]
    f = parse_poly(R, "x^2 + x*z - y*z")
    r, quots = normal_form(f, basis, LEX, track=True)
    assert r == parse_poly(R, "y*z")
    assert quots == [parse_poly(R, "x + y + z"), R.one()]
    assert dict(r.terms) == oracle_divide(f, basis, LEX)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.kind)
def test_module_heap_division_reconstructs_under_elim_order(field):
    rng = random.Random(f"{field.char}-module")
    ring = PolynomialRing(field, ["x", "y", "z"])
    order = graph_kernel_elim_order(1, {0}, ring.nvars)
    for _ in range(4):
        gens = [tuple(random_poly(ring, rng, nterms=2, maxdeg=1) for _ in range(3))
                for _ in range(3)]
        gb = module_buchberger(gens, order, ring)
        for basis in (gens, gb):
            leads = [vec_leading(g, order)[0] for g in basis]
            v = tuple(random_poly(ring, rng, nterms=4, maxdeg=3) for _ in range(3))
            r, quots = module_normal_form(v, basis, order, track=True)
            recon = list(r)
            for q, g in zip(quots, basis):
                recon = [acc + q * comp for acc, comp in zip(recon, g)]
            assert tuple(recon) == v
            for pos, comp in enumerate(r):
                for exp, _ in comp.terms:
                    assert not any(lpos == pos and exp_divides(lexp, exp)
                                   for lpos, lexp in leads)


def scan_param_normal_form(f, basis, order, is_invertible):
    """Fraction-free reduction as it ran before heap selection: the biggest
    term is found by a scan of the working dict at every step, and the
    leads are recomputed from the basis."""
    domain = f.domain
    work = dict(f.terms)
    remainder = {}
    leads = [g.leading(order) for g in basis]
    sort_idx = sorted(
        range(len(basis)), key=lambda i: (order.key(leads[i][0]), repr(leads[i][1]))
    )
    while work:
        exp = max(work, key=order.key)
        coeff = domain.reduce(work.pop(exp))
        if coeff.is_zero():
            continue
        hit = None
        for i in sort_idx:
            lexp, lcoeff = leads[i]
            if exp_divides(lexp, exp) and is_invertible(lcoeff):
                hit = (basis[i], lexp, lcoeff)
                break
        if hit is None:
            remainder[exp] = remainder.get(exp, domain.ring.zero()) + coeff
            continue
        g, lexp, lcoeff = hit
        mexp = exp_div(exp, lexp)
        for e in list(work):
            work[e] = work[e] * lcoeff
        for e in list(remainder):
            remainder[e] = remainder[e] * lcoeff
        for e, c in g.terms.items():
            if e == lexp:
                continue
            ne = exp_mul(e, mexp)
            work[ne] = work.get(ne, domain.ring.zero()) - c * coeff
    return ParamPoly.build(f.main, domain, remainder.items())


def random_param_poly(main, domain, rng, nterms, maxdeg):
    raw = []
    for _ in range(nterms):
        exp = tuple(rng.randint(0, maxdeg) for _ in range(main.nvars))
        coeff = random_poly(domain.ring, rng, nterms=2, maxdeg=1)
        raw.append((exp, coeff))
    return ParamPoly.build(main, domain, raw)


@pytest.mark.parametrize("order", ORDERS, ids=repr)
@pytest.mark.parametrize("constraint", ["", "t^2 - s"], ids=["Q[t,s]", "Q[t,s]/q"])
def test_param_heap_division_matches_scan(constraint, order):
    rng = random.Random(f"param-{constraint}-{order!r}")
    params = PolynomialRing(QQ, ["t", "s"])
    main = PolynomialRing(QQ, ["x", "y", "z"])
    gens = [parse_poly(params, constraint)] if constraint else []
    domain = CoeffDomain(params, IdealHandle(params, gens))
    for _ in range(12):
        size = rng.randint(1, 3)
        basis = []
        while len(basis) < size:
            g = random_param_poly(main, domain, rng, nterms=3, maxdeg=2)
            if not g.is_zero():
                basis.append(g)
        f = random_param_poly(main, domain, rng, nterms=5, maxdeg=3)
        heap_log, scan_log = DenominatorLog(domain), DenominatorLog(domain)
        r = param_normal_form(f, basis, [g.leading(order) for g in basis], order,
                              generic_oracle(domain, heap_log))
        expected = scan_param_normal_form(f, basis, order, generic_oracle(domain, scan_log))
        assert r.terms == expected.terms
        assert heap_log.entries == scan_log.entries
