"""`groebner.is_groebner`, the checker behind `groebner-basis` certificates,
against the acceptance suite's textbook S-polynomial test, and the name a
certificate with a wrong basis fails by."""

import random

import pytest

from equipure.fields import GF, QQ
from equipure.groebner import buchberger, is_groebner
from equipure.orders import GREVLEX, LEX, block_order
from equipure.poly import PolynomialRing
from equipure.reports import verify_certificate

from test_acceptance import oracle_all_s_polys_reduce, recorded
from test_division import random_poly
from test_session_cli import run_corpus

FIELDS = [GF(7), QQ]
ORDERS = [GREVLEX, LEX, block_order([0])]


def candidate_sets(ring, rng, order):
    """Generator sets, their reduced bases, and both with an element whose
    leading term equals that of another element."""
    one, two = ring.one(), ring.field.of(2)
    gens = [random_poly(ring, rng, nterms=3, maxdeg=2) for _ in range(rng.randint(1, 3))]
    gb = buchberger(gens, order)
    out = [gens, gb, gens + [gens[0] + one], gb + [gb[0].scale(two)]]
    if not gb[0].is_constant():
        out.append(gb + [gb[0] + one])
    return out


@pytest.mark.parametrize("order", ORDERS, ids=repr)
@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.kind)
def test_is_groebner_agrees_with_the_textbook_check(field, order):
    rng = random.Random(f"checker-{field.char}-{order!r}")
    ring = PolynomialRing(field, ["x", "y", "z"])
    verdicts = []
    for _ in range(10):
        for basis in candidate_sets(ring, rng, order):
            expected = oracle_all_s_polys_reduce(basis, order)
            assert is_groebner(basis, order) == expected, (basis, order)
            verdicts.append(expected)
    assert True in verdicts and False in verdicts


def test_is_groebner_refuses_a_zero_element():
    ring = PolynomialRing(QQ, ["x", "y"])
    with pytest.raises(ValueError, match="leading term of zero"):
        is_groebner([ring.var(0), ring.zero()], GREVLEX)


def _corpus_groebner_certificate():
    return next(recorded(rep.certificate) for rep in run_corpus()
                if rep.certificate and rep.certificate["kind"] == "groebner-basis"
                and rep.certificate["order"]["kind"] == "grevlex")


def test_a_basis_that_is_not_groebner_fails_by_name():
    # the corpus's `gb Circle` certificate with its basis swapped for the
    # generators x^2 + y^2 - 1, x - y, whose S-polynomial leaves 2y^2 - 1
    cert = _corpus_groebner_certificate()
    assert verify_certificate(cert) == (True, [])
    swapped = dict(cert, basis=cert["generators"])
    ok, failures = verify_certificate(swapped)
    assert not ok
    assert "s-polynomial-reduces-to-nonzero" in failures


def test_a_basis_with_a_zero_element_fails_without_a_crash():
    cert = _corpus_groebner_certificate()
    ok, failures = verify_certificate(dict(cert, basis=cert["basis"] + [[]]))
    assert not ok
    assert failures[-1] == "verification error: ValueError: leading term of zero"
