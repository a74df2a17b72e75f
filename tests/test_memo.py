"""The per-process memos of the three Groebner engines and of ideal
membership: a stored result equals what the private loop computes, callers
cannot change it, and the parametric engine replays its oracle so a hit has
the effects a fresh run would have."""

import random

import pytest

from equipure import groebner, ideals, modules, parametric
from equipure.fields import GF, QQ
from equipure.groebner import _buchberger, buchberger
from equipure.ideals import IdealHandle
from equipure.modules import (
    _module_buchberger,
    graph_kernel_elim_order,
    graph_kernel_order,
    module_buchberger,
    pot_order,
)
from equipure.orders import GREVLEX, LEX, block_order
from equipure.parametric import (
    CoeffDomain,
    DenominatorLog,
    _param_buchberger,
    generic_oracle,
    param_buchberger,
)
from equipure.poly import PolynomialRing, parse_poly
from equipure.schemes import BranchSignal

from test_division import random_param_poly, random_poly

FIELDS = [GF(7), QQ]


def _no_recompute(*args, **kwargs):
    raise AssertionError("a stored result was expected")


def _basis_terms(basis):
    return [(g.main, g.domain, dict(g.terms)) for g in basis]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.kind)
def test_buchberger_hit_equals_private_loop(field, monkeypatch):
    rng = random.Random(f"memo-{field.char}")
    ring = PolynomialRing(field, ["x", "y", "z"])
    cases = [([random_poly(ring, rng, nterms=3) for _ in range(rng.randint(1, 3))],
              order) for order in (GREVLEX, LEX, block_order([0])) for _ in range(3)]
    expected = [_buchberger(gens, order) for gens, order in cases]
    first = [buchberger(gens, order) for gens, order in cases]
    assert first == expected
    first[0].append(ring.one())
    first[1].clear()
    monkeypatch.setattr(groebner, "_buchberger", _no_recompute)
    assert [buchberger(list(gens), order) for gens, order in cases] == expected


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.kind)
def test_module_buchberger_hit_equals_private_loop(field, monkeypatch):
    rng = random.Random(f"memo-module-{field.char}")
    ring = PolynomialRing(field, ["x", "y", "z"])
    cases = []
    for order in (pot_order(), graph_kernel_order(1), graph_kernel_elim_order(1, {0}, 3)):
        for _ in range(2):
            cases.append(([tuple(random_poly(ring, rng, nterms=2, maxdeg=1) for _ in range(3))
                           for _ in range(3)], order))
    expected = [_module_buchberger(vecs, order, ring) for vecs, order in cases]
    first = [module_buchberger(vecs, order, ring) for vecs, order in cases]
    assert first == expected
    first[0].append(first[0][0])
    first[1].clear()
    monkeypatch.setattr(modules, "_module_buchberger", _no_recompute)
    assert [module_buchberger(vecs, order, ring) for vecs, order in cases] == expected


def test_module_orders_with_different_fronts_are_separate_entries(monkeypatch):
    ring = PolynomialRing(QQ, ["x", "y", "z"])
    P = lambda text: parse_poly(ring, text)
    vectors = [(P("x - y"), ring.one(), ring.zero()),
               (P("y - z"), ring.zero(), ring.one()),
               (P("x*y - z^2"), ring.zero(), ring.zero())]
    by_x = graph_kernel_elim_order(1, {0}, 3)
    by_z = graph_kernel_elim_order(1, {2}, 3)
    assert by_x != by_z and repr(by_x) != repr(by_z)
    assert by_x == graph_kernel_elim_order(1, [0], 3)
    assert hash(by_x) == hash(graph_kernel_elim_order(1, [0], 3))
    assert graph_kernel_elim_order(1, {0}, 4) != by_x
    assert pot_order(GREVLEX) != pot_order(LEX)
    assert graph_kernel_order(1, GREVLEX) != graph_kernel_order(1, LEX)
    expected_x = _module_buchberger(vectors, by_x, ring)
    expected_z = _module_buchberger(vectors, by_z, ring)
    assert expected_x != expected_z
    assert module_buchberger(vectors, by_x, ring) == expected_x
    assert module_buchberger(vectors, by_z, ring) == expected_z
    keys = {key for key in groebner._MEMO if key[0] == "module_buchberger"
            and key[1] == tuple(vectors)}
    assert {key[2] for key in keys} >= {by_x, by_z}
    monkeypatch.setattr(modules, "_module_buchberger", _no_recompute)
    assert module_buchberger(vectors, by_x, ring) == expected_x
    assert module_buchberger(vectors, by_z, ring) == expected_z


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.kind)
def test_contains_hit_equals_fresh_decision(field, monkeypatch):
    rng = random.Random(f"memo-contains-{field.char}")
    ring = PolynomialRing(field, ["x", "y", "z"])
    cases = []
    for _ in range(6):
        handle = IdealHandle(ring, [random_poly(ring, rng, nterms=2) for _ in range(2)])
        member = handle.generators[0] * random_poly(ring, rng, nterms=2)
        cases += [(handle, member), (handle, random_poly(ring, rng, nterms=3))]
    expected = [IdealHandle(h.ring, h.generators)._contains(f) for h, f in cases]
    assert True in expected and False in expected
    assert [h.contains(f) for h, f in cases] == expected
    monkeypatch.setattr(ideals.IdealHandle, "_contains", _no_recompute)
    assert [IdealHandle(h.ring, h.generators).contains(f) for h, f in cases] == expected


def _param_cases(field, rng):
    params = PolynomialRing(field, ["t", "s"])
    main = PolynomialRing(field, ["x", "y"])
    cases = []
    for constraint in ("", "t^2 - s"):
        gens = [parse_poly(params, constraint)] if constraint else []
        domain = CoeffDomain(params, IdealHandle(params, gens))
        for _ in range(3):
            cases.append(([random_param_poly(main, domain, rng, nterms=2, maxdeg=1)
                           for _ in range(2)], domain))
    return cases


def _fresh(gens, order, domain, oracle):
    return _param_buchberger(gens, order, domain, oracle, 4000)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.kind)
def test_param_buchberger_hit_replays_the_log(field, monkeypatch):
    rng = random.Random(f"memo-param-{field.char}")
    cases = _param_cases(field, rng)
    expected = []
    for gens, domain in cases:
        log = DenominatorLog(domain)
        expected.append((_basis_terms(_fresh(gens, GREVLEX, domain,
                                             generic_oracle(domain, log))), log.entries))
    assert any(entries for _, entries in expected)
    first = []
    for gens, domain in cases:
        log = DenominatorLog(domain)
        basis = param_buchberger(gens, GREVLEX, domain, generic_oracle(domain, log))
        first.append((_basis_terms(basis), log.entries))
        if basis:
            basis[0].terms.clear()
            basis.append(basis[0])
    assert first == expected
    monkeypatch.setattr(parametric, "_param_buchberger", _no_recompute)
    for (gens, domain), (terms, entries) in zip(cases, expected):
        # a copy of the domain: the hit is built on the caller's domain
        own = CoeffDomain(domain.ring, IdealHandle(domain.ring, domain.constraint.generators))
        log = DenominatorLog(own)
        basis = param_buchberger(gens, GREVLEX, own, generic_oracle(own, log))
        assert [(g.main, dict(g.terms)) for g in basis] == [(m, t) for m, _, t in terms]
        assert all(g.domain is own for g in basis)
        assert log.entries == entries


def branching_oracle(domain, assumed):
    """The quasi-finite strata oracle: coefficients assumed nonzero are
    invertible, any other nonzero nonconstant one forks the computation."""
    assumed = {domain.reduce(a).terms for a in assumed}

    def oracle(c):
        red = domain.reduce(c)
        if red.is_zero():
            return False
        if red.is_constant() or red.terms in assumed:
            return True
        raise BranchSignal(red)

    return oracle


def _outcome(run):
    try:
        return "basis", _basis_terms(run())
    except BranchSignal as signal:
        return "branch", signal.coeff


def test_param_buchberger_hit_with_other_answers():
    cases = [case for field in FIELDS
             for case in _param_cases(field, random.Random(f"memo-branch-{field.char}"))]
    outcomes = set()
    for gens, domain in cases:
        log = DenominatorLog(domain)
        stored = ("basis", _basis_terms(
            param_buchberger(gens, GREVLEX, domain, generic_oracle(domain, log))))
        refuse = {c.terms for c in log.entries}

        def refusing(c):
            # treats every coefficient the stored run inverted as zero
            red = domain.reduce(c)
            return not red.is_zero() and red.terms not in refuse

        oracles = {"same answers": branching_oracle(domain, log.entries),
                   "branch": branching_oracle(domain, []),
                   "later branch": branching_oracle(domain, log.entries[:1]),
                   "other answers": refusing}
        for name, oracle in oracles.items():
            expected = _outcome(lambda: _fresh(gens, GREVLEX, domain, oracle))
            got = _outcome(lambda: param_buchberger(gens, GREVLEX, domain, oracle))
            assert got == expected
            outcomes.add((name, got[0], got == stored))
    assert ("other answers", "basis", False) in outcomes
    assert ("same answers", "basis", True) in outcomes
    assert {kind for _, kind, _ in outcomes} == {"basis", "branch"}
