"""Differential tests of the two exact shortcuts of the fiber pipeline:
`_over_tags` substituting variable tags instead of adjoining T_j - x_i,
against the adjoin-and-eliminate route; and `radical_membership` deciding
from a basis of the ideal first, against the plain Rabinowitsch route. Both
on generated small inputs over Q and GF(7)."""

import itertools

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from equipure import factorization, groebner
from equipure.factorization import _over_tags
from equipure.fields import GF, QQ
from equipure.ideals import IdealHandle, pure_powers, radical_membership
from equipure.orders import GREVLEX, block_order
from equipure.parametric import (
    CoeffDomain,
    DenominatorLog,
    ParamPoly,
    generic_oracle,
    param_buchberger,
)
from equipure.poly import PolynomialRing, parse_poly
from equipure.schemes import FiberModel, Morphism, make_algebra

from test_pair_criteria import POLY, _poly
from test_param_properties import COEFF, build

FIELDS = [QQ, GF(7)]
VARS = ["x", "y", "z"]


def adjoined_over_tags(fm, ts, gens=None):
    """The adjoin-and-eliminate route of `_over_tags`: a basis of `gens`
    (a generic fiber's parametric basis) plus T_j - t_j under the block
    order with the source variables in front."""
    src = fm.morphism.source.ring
    e = len(ts)
    ext = src.extend(src.fresh_names("T", e))
    tags = [ext.var(src.nvars + j) for j in range(e)]
    front = list(range(src.nvars))
    order = block_order(front) if front else GREVLEX
    if fm.kind == "rational":
        gens = [g.embed(ext) for g in (fm.relations.generators if gens is None else gens)]
        gens += [tag - t.embed(ext) for tag, t in zip(tags, ts)]
        basis = IdealHandle(ext, gens).groebner(order)
    else:
        domain = fm.domain

        def constant_coeffs(f):
            return ParamPoly.build(ext, domain, ((exp, domain.ring.const(c)) for exp, c in f.terms))

        gens = [ParamPoly.build(ext, domain, ((exp + (0,) * e, c) for exp, c in g.terms.items()))
                for g in fm.param_basis]
        gens += [constant_coeffs(tag).sub(constant_coeffs(t.embed(ext))) for tag, t in zip(tags, ts)]
        basis = param_buchberger(gens, order, domain, generic_oracle(domain, DenominatorLog(domain)))
    witness = {i: w[0] for i, w in pure_powers(basis, front, order).items()}
    contraction = [g for g in basis if not any(any(exp[:src.nvars]) for exp in dict(g.terms))]
    return len(witness) == src.nvars, witness, contraction


def _inclusion(field):
    """The inclusion of a point into affine 3-space over `field`, whose
    source ring carries the fibers below."""
    pt = make_algebra(field, [], [], "pt")
    return Morphism(pt, make_algebra(field, VARS, [], "A3"), [], "incl")


def rational_fiber(field, gens):
    morphism = _inclusion(field)
    return FiberModel(morphism, None, "rational", IdealHandle(morphism.source.ring, gens))


def generic_fiber(field, constraint, param_gens):
    """A generic fiber over Q[t,s]/(constraint) with the given ParamPoly
    relations."""
    morphism = _inclusion(field)
    params = PolynomialRing(field, ["t", "s"])
    domain = CoeffDomain(params, IdealHandle(
        params, [parse_poly(params, constraint)] if constraint else []))
    main = morphism.source.ring
    return FiberModel(morphism, None, "generic", None, domain=domain,
                      param_basis=[build(raw, main, domain) for raw in param_gens])


PARAM_POLY = st.lists(st.tuples(st.tuples(*[st.integers(0, 2)] * 3), COEFF), min_size=1,
                      max_size=2)
UNIT = [((0, 0, 0), 1)]
# v^2 plus a linear form: a monic relation in v, so that some fiber legs
# are module-finite
MONIC = st.tuples(st.integers(0, 2), st.lists(st.tuples(
    st.sampled_from([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]), st.integers(-3, 3).filter(bool)),
    max_size=2)).map(lambda m: [(tuple(2 * (k == m[0]) for k in range(3)), 1)] + m[1])
PARAM_MONIC = MONIC.map(lambda raw: [(exp, [((0, 0), c)]) for exp, c in raw])
# distinct variables, in any order: e = 0 up to e = nvars
TAG_VARIABLES = st.sampled_from([list(p) for e in range(4)
                                 for p in itertools.permutations(range(3), e)])


@st.composite
def rational_inputs(draw):
    field = draw(st.sampled_from(FIELDS))
    ring = PolynomialRing(field, VARS)
    raw = draw(st.lists(st.one_of(POLY, MONIC), min_size=0, max_size=2))
    if draw(st.booleans()) and draw(st.booleans()):
        raw.append(UNIT)
    gens = draw(st.one_of(st.none(), st.lists(POLY, min_size=1, max_size=2)))
    return (field, [_poly(ring, r) for r in raw],
            None if gens is None else [_poly(ring, r) for r in gens], draw(TAG_VARIABLES))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(rational_inputs())
def test_substituted_tags_match_adjoined_tags_over_a_rational_point(inputs):
    field, relations, gens, idx = inputs
    fm = rational_fiber(field, relations)
    ts = [fm.morphism.source.ring.var(i) for i in idx]
    ok, witness, contraction = _over_tags(fm, ts, gens)
    ok0, witness0, contraction0 = adjoined_over_tags(fm, ts, gens)
    assert (ok, witness) == (ok0, witness0)
    assert contraction == contraction0


@st.composite
def generic_inputs(draw):
    field = draw(st.sampled_from(FIELDS))
    constraint = draw(st.sampled_from(["", "t^2 - s"]))
    raw = draw(st.lists(st.one_of(PARAM_POLY, PARAM_MONIC), min_size=1, max_size=2))
    if draw(st.booleans()) and draw(st.booleans()):
        raw.append([((0, 0, 0), [((0, 0), 1)])])
    gens = draw(st.one_of(st.none(), st.lists(PARAM_POLY, min_size=1, max_size=2)))
    return field, constraint, raw, gens, draw(TAG_VARIABLES)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(generic_inputs())
def test_substituted_tags_match_adjoined_tags_over_a_generic_point(inputs):
    # a generic fiber's check always runs on its own basis: drawn generators
    # are the basis of a fiber of their own
    field, constraint, raw, raw_gens, idx = inputs
    fm = generic_fiber(field, constraint, raw if raw_gens is None else raw_gens)
    ts = [fm.morphism.source.ring.var(i) for i in idx]
    ok, witness, contraction = _over_tags(fm, ts)
    ok0, witness0, contraction0 = adjoined_over_tags(fm, ts)
    assert (ok, witness) == (ok0, witness0)
    assert bool(contraction) == bool(contraction0)


@pytest.mark.parametrize("field", FIELDS)
def test_unit_fiber_and_all_variables_as_tags(field):
    ring = PolynomialRing(field, VARS)
    for relations in (["1"], ["x*y - z", "y^2"], []):
        fm = rational_fiber(field, [parse_poly(ring, r) for r in relations])
        ts = [ring.var(2), ring.var(0), ring.var(1)]
        assert _over_tags(fm, ts) == adjoined_over_tags(fm, ts)
    ok, witness, contraction = _over_tags(rational_fiber(field, [ring.one()]), [ring.var(1)])
    assert not ok and witness == {} and [str(g) for g in contraction] == ["1"]


def test_only_distinct_variables_with_coefficient_one_are_substituted(monkeypatch):
    ring = PolynomialRing(QQ, VARS)
    fm = rational_fiber(QQ, [parse_poly(ring, "x*y - z^2")])
    handles = []

    def spy(ring, gens):
        handles.append(list(gens))
        return IdealHandle(ring, gens)

    monkeypatch.setattr(factorization, "IdealHandle", spy)
    x, y, z = ring.gens()
    for ts, substituted in (([z, x], True), ([x + y], False), ([x.scale(QQ.of(2))], False),
                            ([x, x], False)):
        assert _over_tags(fm, ts) == adjoined_over_tags(fm, ts)
        # the substituted route adjoins no T_j - t_j
        assert len(handles[-1]) == 1 + (0 if substituted else len(ts))


# -- radical membership --------------------------------------------------------


def rabinowitsch(f, handle):
    """f in sqrt(I) iff I + (1 - w*f) is the unit ideal."""
    if f.is_zero():
        return True
    ring = handle.ring
    ext = ring.extend(ring.fresh_names("w~", 1), front=True)
    gens = [g.embed(ext, 1) for g in handle.generators]
    gens.append(ext.one() - ext.var(0) * f.embed(ext, 1))
    return IdealHandle(ext, gens).is_unit()


# an ideal in x, y only, so that a polynomial in z has disjoint support
XY_POLY = st.lists(st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2), st.just(0)),
                             st.integers(-3, 3).filter(bool)), min_size=1, max_size=3)


@st.composite
def radical_inputs(draw):
    field = draw(st.sampled_from([QQ, GF(7), GF(3)]))
    ring = PolynomialRing(field, VARS)
    ideal = draw(st.sampled_from(["zero", "unit", "random", "square"]))
    raws = [] if ideal == "zero" else draw(st.lists(XY_POLY, min_size=1, max_size=2))
    gens = [_poly(ring, r) for r in raws]
    if ideal == "unit":
        gens.append(ring.one())
    elif ideal == "square":
        gens[0] = gens[0] * gens[0]
    f_kind = draw(st.sampled_from(["constant", "member", "disjoint", "root", "random"]))
    if f_kind == "constant":
        f = ring.const(draw(st.integers(-3, 3)))
    elif f_kind == "member" and gens:
        f = ring.zero()
        for g in gens:
            f = f + g * _poly(ring, draw(POLY))
    elif f_kind == "disjoint":
        f = _poly(ring, [((0, 0, k), c) for k, c in draw(
            st.lists(st.tuples(st.integers(1, 2), st.integers(-3, 3).filter(bool)),
                     min_size=1, max_size=2))])
    elif f_kind == "root" and gens:
        f = _poly(ring, raws[0]) if ideal == "square" else gens[0]
    else:
        f = _poly(ring, draw(POLY))
    return f, IdealHandle(ring, gens)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(radical_inputs())
def test_radical_membership_matches_rabinowitsch(inputs):
    f, handle = inputs
    assert radical_membership(f, handle) == rabinowitsch(f, handle)


def test_basis_decides_radical_membership_without_a_tag_ring(monkeypatch):
    monkeypatch.setattr(groebner, "_MEMO", {})    # the answers are computed here
    ring = PolynomialRing(QQ, ["u", "x"])
    extended = []
    extend = PolynomialRing.extend

    def spy(self, names, front=False):
        extended.extend(names)
        return extend(self, names, front)

    monkeypatch.setattr(PolynomialRing, "extend", spy)
    u, x = ring.gens()
    handle = IdealHandle(ring, [u, u * x])
    assert not radical_membership(x, handle)
    assert radical_membership(u, handle)
    assert not any(name.startswith("w~") for name in extended)
    # a member of the radical outside the ideal still takes the tag ring
    assert radical_membership(u, IdealHandle(ring, [u * u]))
    assert any(name.startswith("w~") for name in extended)
