"""Free-module Groebner machinery: kernels and coefficient restriction."""

from equipure.fields import QQ
from equipure.ideals import IdealHandle
from equipure.modules import (
    graph_kernel_order,
    module_buchberger,
    module_normal_form,
    syzygy_restricted,
)
from equipure.poly import PolynomialRing, parse_poly


def test_syzygy_of_two_variables():
    R = PolynomialRing(QQ, ["x", "y"])
    x, y = R.var(0), R.var(1)
    # kernel of (c1, c2) -> c1*x + c2*y is generated by (y, -x)
    kern = syzygy_restricted([(x,), (y,)], [], R)
    assert len(kern) == 1
    v = kern[0]
    combo = v[0] * x + v[1] * y
    assert combo.is_zero()


def test_kernel_with_relations():
    R = PolynomialRing(QQ, ["x"])
    x = R.var(0)
    # c*x in (x^2)  <=>  c in (x)
    kern = syzygy_restricted([(x,)], [(parse_poly(R, "x^2"),)], R)
    handle = IdealHandle(R, [v[0] for v in kern])
    assert handle.contains(x)
    assert not handle.contains(R.one())


def test_coefficient_restriction_extracts_subring_kernel():
    # inside k[t,a]: which k[a]-combinations of {1, t} land in (t^2 - a)?
    R = PolynomialRing(QQ, ["t", "a"])
    one = R.one()
    t = R.var(0)
    rel = parse_poly(R, "t^2 - a")
    kern = syzygy_restricted([(one,), (t,)], [(rel,)], R, coeff_front={0})
    # over k[a] the pair {1, t} is a free basis of k[t,a]/(t^2-a): no kernel
    assert kern == []


def test_coefficient_restriction_finds_torsion_relation():
    # k[t,a,b] with the curve t^2 = a, t^3 = b: s1*1 + s2*t in ideal
    R = PolynomialRing(QQ, ["t", "a", "b"])
    one, t = R.one(), R.var(0)
    rels = [(parse_poly(R, "t^2 - a"),), (parse_poly(R, "t^3 - b"),)]
    kern = syzygy_restricted([(one,), (t,)], rels, R, coeff_front={0})
    # the kernel contains (-b, a) and (-a^2, b): check they annihilate
    handle = IdealHandle(R, [parse_poly(R, "t^2 - a"), parse_poly(R, "t^3 - b")])
    assert kern, "expected nonzero kernel"
    for v in kern:
        combo = v[0] * one + v[1] * t
        assert handle.contains(combo)
        # coefficients must avoid t entirely
        for comp in v:
            assert all(e[0] == 0 for e, _ in comp.terms)


def test_module_normal_form_exactness():
    R = PolynomialRing(QQ, ["x", "y"])
    order = graph_kernel_order(0)
    basis = [
        (parse_poly(R, "x"), R.zero()),
        (R.zero(), parse_poly(R, "y")),
    ]
    gb = module_buchberger(basis, order, R)
    v = (parse_poly(R, "x^2 + y"), parse_poly(R, "y^2 + x"))
    r, quots = module_normal_form(v, gb, order, track=True)
    recon = list(r)
    for q, g in zip(quots, gb):
        recon = [acc + q * comp for acc, comp in zip(recon, g)]
    assert tuple(recon) == v


def test_graph_kernel_order_dominance():
    order = graph_kernel_order(1)
    # position 0 always beats later positions
    assert order.key(0, (0, 0)) > order.key(1, (5, 5))
