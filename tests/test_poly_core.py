"""Polynomial arithmetic, orders, division and Buchberger basics."""

import random

import pytest

from equipure.fields import GF, QQ, FieldSpec
from equipure.groebner import buchberger, is_groebner, normal_form
from equipure.orders import GREVLEX, LEX, block_order
from equipure.poly import PolyParseError, PolynomialRing, parse_poly


def rand_poly(rng, ring, max_terms=5, max_deg=3):
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        exp = tuple(rng.randint(0, max_deg) for _ in range(ring.nvars))
        c = rng.randint(-4, 4)
        if c:
            terms.append((exp, ring.field.of(c)))
    return ring.from_terms(terms)


def test_field_arithmetic_exact():
    f7 = GF(7)
    assert f7.of(10) == 3
    assert f7.inv(3) == 5
    assert f7.mul(1, f7.inv(2)) == 4
    with pytest.raises(ValueError):
        FieldSpec(6)
    q = QQ
    assert q.of(1, 3) + q.of(1, 6) == q.of(1, 2)


def test_parse_and_print_roundtrip():
    R = PolynomialRing(QQ, ["x", "y", "z"])
    for text in ["x^2*y - 3/4*z + 1", "x*y - z^2", "-x + y", "0", "2"]:
        f = parse_poly(R, text)
        again = parse_poly(R, str(f)) if not f.is_zero() else R.zero()
        assert f == again
    with pytest.raises(PolyParseError):
        parse_poly(R, "x + q")


def test_ring_arithmetic_properties():
    rng = random.Random(11)
    for field in (QQ, GF(7)):
        R = PolynomialRing(field, ["x", "y"])
        for _ in range(50):
            f, g, h = (rand_poly(rng, R) for _ in range(3))
            assert f + g == g + f
            assert (f + g) + h == f + (g + h)
            assert f * (g + h) == f * g + f * h
            assert f - f == R.zero()
            assert f * R.one() == f


def test_product_with_a_constant_is_a_scale():
    rng = random.Random(12)
    for field in (QQ, GF(7)):
        R = PolynomialRing(field, ["x", "y"])
        for _ in range(30):
            f = rand_poly(rng, R)
            c = field.of(rng.randint(-5, 5))
            const = R.const(c)
            assert (f * const).terms == f.scale(c).terms
            assert (const * f).terms == f.scale(c).terms
            # the general product, term by term, gives the same bytes
            assert (f * const).terms == tuple(sorted(
                ((e, field.mul(k, c)) for e, k in f.terms if field.mul(k, c)), reverse=True))
        f = rand_poly(rng, R)
        assert f * R.zero() == R.zero() == R.zero() * f == f.scale(field.zero)
        assert R.zero() * R.const(3) == R.zero()


def test_pow_and_eval():
    R = PolynomialRing(QQ, ["x", "y"])
    f = parse_poly(R, "x + y")
    assert f ** 2 == parse_poly(R, "x^2 + 2*x*y + y^2")
    assert f.eval_at((QQ.of(2), QQ.of(3))) == QQ.of(5)
    assert parse_poly(R, "x^2*y").derivative(0) == parse_poly(R, "2*x*y")


def test_order_axioms_on_samples():
    rng = random.Random(5)
    orders = [LEX, GREVLEX, block_order([0])]
    exps = [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(40)]
    for order in orders:
        for a in exps:
            for b in exps:
                ka, kb = order.key(a), order.key(b)
                assert (ka == kb) == (a == b) or a != b
                # compatibility with multiplication
                c = (1, 2, 0)
                ac = tuple(x + y for x, y in zip(a, c))
                bc = tuple(x + y for x, y in zip(b, c))
                if ka < kb:
                    assert order.key(ac) < order.key(bc)
    # 1 is smallest
    for order in orders:
        for a in exps:
            if any(a):
                assert order.key(a) > order.key((0, 0, 0))


def test_block_order_eliminates_front():
    order = block_order([0])
    # any monomial containing x beats any x-free monomial
    assert order.key((1, 0, 0)) > order.key((0, 9, 9))


def test_normal_form_examples():
    R = PolynomialRing(QQ, ["x", "y"])
    x_minus_y = parse_poly(R, "x - y")
    # x^2 by {x - y} -> y^2
    assert normal_form(parse_poly(R, "x^2"), [x_minus_y], LEX) == parse_poly(R, "y^2")
    assert normal_form(R.zero(), [x_minus_y], LEX).is_zero()
    assert normal_form(R.var(0), [R.var(0), R.var(1)], LEX).is_zero()


def test_normal_form_idempotent_and_exact():
    rng = random.Random(23)
    R = PolynomialRing(QQ, ["x", "y"])
    G = buchberger([parse_poly(R, "x^2 - y"), parse_poly(R, "x*y - 1")], GREVLEX)
    for _ in range(30):
        f = rand_poly(rng, R)
        r, quots = normal_form(f, G, GREVLEX, track=True)
        assert normal_form(r, G, GREVLEX) == r
        recon = r
        for q, g in zip(quots, G):
            recon = recon + q * g
        assert recon == f


def test_buchberger_spec_cases():
    R = PolynomialRing(QQ, ["x", "y"])
    gb = buchberger([parse_poly(R, "x^2 + y^2 - 1"), parse_poly(R, "x - y")], LEX)
    assert is_groebner(gb, LEX)
    # the unique reduced basis: {x - y, y^2 - 1/2} (monic form of 2y^2 - 1)
    assert [str(g) for g in gb] == ["y^2 - 1/2", "x - y"]
    assert buchberger([], GREVLEX) == []
    gb2 = buchberger([R.var(0), R.var(1)], GREVLEX)
    assert [str(g) for g in gb2] == ["y", "x"]


def test_buchberger_unit_ideal():
    R = PolynomialRing(QQ, ["x"])
    gb = buchberger([parse_poly(R, "x"), parse_poly(R, "x + 1")], LEX)
    assert [str(g) for g in gb] == ["1"]


def test_buchberger_random_s_poly_oracle():
    rng = random.Random(99)
    for field in (QQ, GF(2), GF(7)):
        R = PolynomialRing(field, ["x", "y", "z"])
        for trial in range(8):
            gens = [rand_poly(rng, R, max_terms=3, max_deg=2) for _ in range(2)]
            gens = [g for g in gens if not g.is_zero()]
            for order in (GREVLEX, LEX):
                gb = buchberger(gens, order)
                assert is_groebner(gb, order)
                for g in gens:
                    assert normal_form(g, gb, order).is_zero() if gb else g.is_zero()


def test_buchberger_deterministic():
    R = PolynomialRing(QQ, ["x", "y", "z"])
    gens = [parse_poly(R, "x*y - z^2"), parse_poly(R, "x^2 - y*z"), parse_poly(R, "y^2 - x*z")]
    one = buchberger(gens, GREVLEX)
    two = buchberger(list(reversed(gens)), GREVLEX)
    assert [g.terms for g in one] == [g.terms for g in two]
