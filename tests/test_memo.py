"""The per-process memos of the ideal and module Groebner engines, of ideal
and radical membership, and of the scheme layer above them (component
covers, fibers, fiber dimensions, equidimensionality reports and
factorizations): a stored result equals what the private implementation
computes, callers cannot change it, a call that raises stores nothing, a
certificate records its caller's names, and every kind of result stored
on the benchmark sessions is asked for again there. The parametric engine
stores nothing."""

import collections
import json
import os
import random

import pytest

from equipure import factorization, groebner, ideals, modules, schemes
from equipure.cli import main
from equipure.errors import RecursionBudgetExceeded
from equipure.factorization import build_factorization, verify_equidimensional_at
from equipure.fields import GF, QQ
from equipure.groebner import _buchberger, buchberger
from equipure.ideals import IdealHandle, radical_membership
from equipure.modules import (
    _module_buchberger,
    graph_kernel_elim_order,
    graph_kernel_order,
    module_buchberger,
)
from equipure.orders import GREVLEX, LEX, block_order
from equipure.poly import PolynomialRing, parse_poly
from equipure.reports import (
    canonical_json,
    equidim_certificate_obj,
    factorization_certificate_obj,
)
from equipure.schemes import (
    Algebra,
    Morphism,
    decompose_components,
    fiber,
    fiber_dim_at,
    generic_point_of,
    maximal_points_of_fiber,
    rational_point,
)
from equipure.session import parse_session

from conftest import origin, run_all
from test_division import random_poly
from test_session_grammar import _workloads

FIELDS = [GF(7), QQ]
CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "corpus.eqp")


def _no_recompute(*args, **kwargs):
    raise AssertionError("a stored result was expected")


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
    for order in (graph_kernel_order(0), graph_kernel_order(1),
                  graph_kernel_elim_order(1, {0}, 3)):
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
    assert graph_kernel_order(0, GREVLEX) != graph_kernel_order(0, LEX)
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


# -- the scheme layer ----------------------------------------------------------


def _generators(handles):
    return [h.generators for h in handles]


def _cover_cases(field):
    ring = PolynomialRing(field, ["x", "y", "z"])
    return [IdealHandle(ring, [parse_poly(ring, text) for text in gens])
            for gens in (["x*y", "x*z"], ["x^2 - 1", "y - z"], ["x*y - z^2"], [])]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.kind)
def test_cover_hit_equals_private_search(field, monkeypatch):
    cases = _cover_cases(field)
    expected = [_generators(schemes._decompose(h, 64)) for h in cases]
    assert any(len(comps) > 1 for comps in expected)
    first = [decompose_components(h) for h in cases]
    assert [_generators(comps) for comps in first] == expected
    first[0].clear()
    first[1].append(first[1][0])
    monkeypatch.setattr(schemes, "_decompose", _no_recompute)
    again = [decompose_components(IdealHandle(h.ring, h.generators)) for h in cases]
    assert [_generators(comps) for comps in again] == expected


def test_a_cover_search_past_its_budget_stores_nothing(monkeypatch):
    ring = PolynomialRing(QQ, ["x", "y"])
    handle = IdealHandle(ring, [parse_poly(ring, "x*y")])
    search, budgets = schemes._decompose, []
    monkeypatch.setattr(schemes, "_decompose",
                        lambda h, budget: budgets.append(budget) or search(h, budget))
    for _ in range(2):
        with pytest.raises(RecursionBudgetExceeded):
            decompose_components(handle, budget=1)
    assert budgets == [1, 1]
    assert ("components", ring, handle.generators, 1) not in groebner._MEMO
    comps = decompose_components(handle, budget=3)
    assert len(comps) == 2 and budgets == [1, 1, 3]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.kind)
def test_radical_membership_hit_equals_fresh_decision(field, monkeypatch):
    rng = random.Random(f"memo-radical-{field.char}")
    ring = PolynomialRing(field, ["x", "y", "z"])
    cases = []
    for _ in range(6):
        g = random_poly(ring, rng, nterms=2, maxdeg=1)
        handle = IdealHandle(ring, [g * g, random_poly(ring, rng, nterms=2)])
        cases += [(g, handle), (random_poly(ring, rng, nterms=2, maxdeg=1), handle)]
    expected = [ideals._radical_membership(f, IdealHandle(h.ring, h.generators))
                for f, h in cases]
    assert True in expected and False in expected
    assert [radical_membership(f, h) for f, h in cases] == expected
    monkeypatch.setattr(ideals, "_radical_membership", _no_recompute)
    assert [radical_membership(f, IdealHandle(h.ring, h.generators))
            for f, h in cases] == expected


def _fiber_content(fm):
    return (fm.kind, fm.relations and fm.relations.generators, fm.denominators,
            fm.domain and (fm.domain.ring, fm.domain.constraint.generators),
            fm.param_basis and [(g.main, dict(g.terms)) for g in fm.param_basis], fm.empty)


def test_fiber_hit_equals_fresh_fiber_around_the_callers_objects(cone_composite, cone_q,
                                                                 monkeypatch):
    points = [origin(cone_q), generic_point_of(cone_q, cone_q.relations)]
    expected = [_fiber_content(schemes._fiber(cone_composite, y)) for y in points]
    assert [kind for kind, *_ in expected] == ["rational", "generic"]
    first = [fiber(cone_composite, y) for y in points]
    assert [_fiber_content(fm) for fm in first] == expected
    first[1].param_basis[0].terms.clear()
    first[1].param_basis.clear()
    monkeypatch.setattr(schemes, "_fiber", _no_recompute)
    phi = Morphism(cone_composite.target, cone_composite.source,
                   cone_composite.images, cone_composite.name)
    copies = [origin(cone_q), generic_point_of(cone_q, cone_q.relations)]
    again = [fiber(phi, y) for y in copies]
    assert [_fiber_content(fm) for fm in again] == expected
    assert all(fm.morphism is phi and fm.point is y for fm, y in zip(again, copies))


def test_fiber_dim_hits_equal_fresh_results(cone_composite, blowup_chart, veronese_q,
                                            monkeypatch):
    maps = [cone_composite, blowup_chart, veronese_q]
    dims = [schemes._fiber_dim_at(phi, origin(phi.source)) for phi in maps]
    assert [fiber_dim_at(phi, origin(phi.source)) for phi in maps] == dims
    monkeypatch.setattr(schemes, "_fiber_dim_at", _no_recompute)
    assert [fiber_dim_at(phi, origin(phi.source)) for phi in maps] == dims


def test_equidim_and_factorization_hits_equal_fresh_certificates(cone_composite, cone_q,
                                                                monkeypatch):
    phi, wO, y = cone_composite, origin(cone_composite.source), origin(cone_q)
    x0 = maximal_points_of_fiber(phi, y)[0]
    fresh_report = equidim_certificate_obj(
        phi, wO, [wO], factorization._verify_equidimensional_at(phi, wO, (wO,)))
    fresh_cert = factorization_certificate_obj(
        factorization._build_factorization(phi, y, x0, (wO,), 0, None))
    report = verify_equidimensional_at(phi, wO, [wO])
    cert = build_factorization(phi, y, x0, probes=[wO])
    assert equidim_certificate_obj(phi, wO, [wO], report) == fresh_report
    assert factorization_certificate_obj(cert) == fresh_cert
    report.evidence[0]["dim"] = 7
    report.evidence.clear()
    cert.predicates[0].evidence["images"].append("edited")
    cert.predicates.clear()
    cert.lifted.clear()
    cert.notes.append("edited")
    monkeypatch.setattr(factorization, "_verify_equidimensional_at", _no_recompute)
    monkeypatch.setattr(factorization, "_build_factorization", _no_recompute)
    again = verify_equidimensional_at(phi, wO, [wO])
    assert equidim_certificate_obj(phi, wO, [wO], again) == fresh_report
    y_copy = rational_point(cone_q, [0, 0, 0], name="another")
    cert = build_factorization(phi, y_copy, x0, probes=(wO,))
    assert factorization_certificate_obj(cert) == fresh_cert
    assert cert.morphism is phi and cert.y is y_copy and cert.probes == (wO,)


def test_a_renamed_morphism_shares_name_free_results_but_not_its_factorization(
        cone_composite, cone_q, monkeypatch):
    phi, wO, y = cone_composite, origin(cone_composite.source), origin(cone_q)
    x0 = maximal_points_of_fiber(phi, y)[0]
    report = verify_equidimensional_at(phi, wO, [wO])
    cert = build_factorization(phi, y, x0, probes=[wO])
    target = Algebra(cone_q.ring, cone_q.relations, "cone-renamed")
    twin = Morphism(target, phi.source, phi.images, "twin")
    monkeypatch.setattr(factorization, "_verify_equidimensional_at", _no_recompute)
    shared = verify_equidimensional_at(twin, wO, [wO])
    assert (shared.e, shared.verdict, shared.evidence, shared.witness) == (
        report.e, report.verdict, report.evidence, report.witness)
    built, build = [], factorization._build_factorization
    monkeypatch.setattr(factorization, "_build_factorization",
                        lambda morphism, *args: built.append(morphism) or build(morphism, *args))
    y_twin = origin(target)
    twin_cert = build_factorization(twin, y_twin, maximal_points_of_fiber(twin, y_twin)[0],
                                    probes=[wO])
    assert built == [twin]
    assert (cert.induced.name, cert.induced.target.name) == ("cone-composite_factor",
                                                             "cone[T^1]")
    assert (twin_cert.induced.name, twin_cert.induced.target.name) == ("twin_factor",
                                                                       "cone-renamed[T^1]")
    first, second = (factorization_certificate_obj(c) for c in (cert, twin_cert))
    assert second["predicates"] == first["predicates"]
    assert second["morphism"]["name"] == "twin"


# two morphisms with the same images and relations under other names
NAMED = {"comp": ("R", "W", "m", "wO", "x0"), "twin": ("R2", "W2", "m2", "wO2", "x02")}


def _named_session(*names):
    decls, commands = [], []
    for name in names:
        tgt, src, y, probe, x0 = NAMED[name]
        decls += [f"ring {tgt} = Q[a,b,c] / (a*b - c^2);", f"ring {src} = Q[x,y,w];",
                  f"morphism {name} : {tgt} -> {src} = [a -> x^2, b -> y^2, c -> x*y];",
                  f"point {y} = closed({tgt} : 0, 0, 0);",
                  f"point {probe} = closed({src} : 0, 0, 0);",
                  f"point {x0} = fiber-point({name}, {y}, 0);"]
        commands += [f"factorize {name} at {y} from {x0} probes ({probe});",
                     f"strong-purity {name} base normal-Q-hypersurface probes ({probe});"]
    return "\n".join(decls + commands)


def _entries(text, options=None):
    return {rep.command: canonical_json(rep.to_obj())
            for rep in run_all(parse_session(text, options))}


def test_each_entry_is_the_one_its_morphism_gives_alone(monkeypatch):
    monkeypatch.setattr(groebner, "_MEMO", {})
    both = _entries(_named_session("comp", "twin"))
    assert len(both) == 4
    for name in NAMED:
        monkeypatch.setattr(groebner, "_MEMO", {})
        alone = _entries(_named_session(name))
        assert alone == {command: entry for command, entry in both.items()
                         if f" {name} " in command}
        for entry in alone.values():
            assert '"certificate-emitted"' in entry
            assert f'"name":"{name}"' in entry and f'"name":"{NAMED[name][0]}"' in entry


def test_seed_and_budget_are_parts_of_the_keys(monkeypatch):
    monkeypatch.setattr(groebner, "_MEMO", {})
    text = _named_session("comp") + "\npoint eta = generic(R);"
    for seed, budget in ((0, 64), (1, 64), (1, 32)):
        _entries(text, {"seed": seed, "budget": budget})
    keys = groebner._MEMO
    # a factorization's key ends with its seed and the normalization, which
    # `run` never passes
    assert {key[-2:] for key in keys if key[0] == "factorization"} == {(0, None), (1, None)}
    relations = parse_session(text).algebras["R"].relations
    assert {key[3] for key in keys if key[:3] == ("components", relations.ring,
                                                  relations.generators)} == {32, 64}


def _on_one_cpu(monkeypatch):
    """Run `main` in this process alone: on more CPUs, forked workers would
    share the commands, and each would count and store in its own copy."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


def test_one_corpus_run_factorizes_once_and_covers_each_ideal_once(tmp_path, monkeypatch):
    _on_one_cpu(monkeypatch)
    monkeypatch.setattr(groebner, "_MEMO", {})
    built, covers = collections.Counter(), collections.Counter()
    build, search = factorization._build_factorization, schemes._decompose

    def counted_build(morphism, *args):
        built[morphism.name] += 1
        return build(morphism, *args)

    def counted_search(handle, budget):
        covers[handle.ring, handle.generators, budget] += 1
        return search(handle, budget)

    monkeypatch.setattr(factorization, "_build_factorization", counted_build)
    monkeypatch.setattr(schemes, "_decompose", counted_search)
    out = tmp_path / "corpus.json"
    assert main(["run", CORPUS, "--seed", "1", "--json", str(out)]) == 1
    commands = [entry["command"] for entry in json.loads(out.read_text())]
    assert sum(c.startswith(("factorize comp", "strong-purity comp")) for c in commands) == 2
    assert built == {"comp": 1}
    assert len(covers) > 5 and set(covers.values()) == {1}


class _CountedMemo(dict):
    """A memo that counts its hits per kind of key."""

    def __init__(self):
        super().__init__()
        self.hits = collections.Counter()

    def get(self, key, default=None):
        stored = super().get(key, default)
        if stored is not None:
            self.hits[key[0]] += 1
        return stored


def test_every_stored_kind_is_hit_on_the_benchmark_sessions(tmp_path, monkeypatch):
    fibers = tmp_path / "fibers.eqp"
    fibers.write_text(_workloads().fibers(1).text)
    memo = _CountedMemo()
    _on_one_cpu(monkeypatch)
    monkeypatch.setattr(groebner, "_MEMO", memo)
    for session in (CORPUS, str(fibers)):
        main(["run", session, "--seed", "1", "--json", str(tmp_path / "report.json")])
    stored = {key[0] for key in memo}
    assert len(stored) > 5
    assert [kind for kind in sorted(stored) if not memo.hits[kind]] == []
