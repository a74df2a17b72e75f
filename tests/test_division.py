"""Heap-ordered division, checked against the acceptance suite's textbook
division loop (a full scan for the biggest term at every step)."""

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
from equipure.orders import GREVLEX, LEX, block_order, exp_divides
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
