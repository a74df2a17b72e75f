"""What `verify` takes from a report entry as given. A factorization, alone
or in a strong-purity probe record, is replayed from the normalization it
records (`lifted`), so the seeded search does not run again: every edit of
a recorded normalization is rejected, and a normalization the search
rejected fails by name. The entry's seed is bound to the seed its
certificate records, and its command head to its certificate kind. A
recorded rational point is its coordinates: its ideal must be the x_i - c_i
of them, and neither building nor decoding one runs Buchberger on it. A
recorded generic point's dimension is not taken as given either. Every
report here is the seed-1 report of the corpus or of the fibers workload."""

import json
import os
from fractions import Fraction

import pytest

from equipure import cli, factorization, groebner, parametric
from equipure.fields import GF, QQ
from equipure.poly import PolynomialRing
from equipure.reports import canonical_json, point_from_obj, point_to_obj, verify_certificate
from equipure.schemes import make_algebra, rational_point
from equipure.session import COMMANDS, parse_session

from conftest import P, run_all
from test_session_grammar import _workloads

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


@pytest.fixture(scope="module")
def sessions(tmp_path_factory):
    """name -> (session path, its seed-1 report as a file records it)."""
    out = {}
    for name in ("corpus", "fibers"):
        if name == "corpus":
            path = os.path.join(DATA, "corpus.eqp")
        else:
            path = str(tmp_path_factory.mktemp("fibers") / "fibers.eqp")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(_workloads().fibers(1).text)
        with open(path, encoding="utf-8") as fh:
            session = parse_session(fh.read(), {"seed": 1})
        out[name] = path, json.loads(canonical_json(run_all(session)))
    return out


def _certified(sessions, *kinds):
    return [entry for _, entries in sessions.values() for entry in entries
            if entry["certificate"] is not None
            and (not kinds or entry["certificate"]["kind"] in kinds)]


def _normalizations(certificate):
    """Every recorded normalization of a certificate: the `lifted` list of
    a factorization or of each strong-purity probe record's factorization."""
    if certificate["kind"] == "factorization":
        return [certificate["lifted"]]
    if certificate["kind"] == "strong-purity":
        return [rec["factorization"]["lifted"] for rec in certificate["probes"]]
    return []


def _leaves(node):
    """(container, key) of every string leaf under `node`."""
    for key in range(len(node)):
        if isinstance(node[key], list):
            yield from _leaves(node[key])
        else:
            yield node, key


def test_factorizations_verify_without_the_candidate_search(sessions, monkeypatch):
    def no_search(*args):
        raise AssertionError("the candidate search ran")

    monkeypatch.setattr(groebner, "_MEMO", {})
    monkeypatch.setattr(factorization, "_candidate_streams", no_search)
    entries = _certified(sessions, "factorization", "strong-purity")
    assert len(entries) == 10
    for entry in entries:
        assert verify_certificate(entry) == (True, []), entry["command"]


def _counted_main(monkeypatch, argv):
    """(`_over_tags` calls, `_param_buchberger` calls) of `cli.main(argv)`
    on one CPU, in this process, from an empty memo."""
    counts = {"_over_tags": 0, "_param_buchberger": 0}
    with monkeypatch.context() as patch:
        for module, name in ((factorization, "_over_tags"), (parametric, "_param_buchberger")):
            def counted(*args, inner=getattr(module, name), name=name):
                counts[name] += 1
                return inner(*args)
            patch.setattr(module, name, counted)
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        patch.setattr(groebner, "_MEMO", {})
        assert cli.main(argv) in (0, 1)
    return counts["_over_tags"], counts["_param_buchberger"]


def test_verify_checks_each_normalization_once_and_run_still_searches(sessions, tmp_path,
                                                                      monkeypatch, capsys):
    """Over the generic point each fibers factorization checks its recorded
    normalization alone: 8 `_over_tags` calls against 32 in `run`, whose
    search rejects three candidates per factorization first. The corpus
    factorization also checks adaptedness and x0's contraction, and its
    search rejects two candidates; `strong-purity comp` replays it from
    the same recorded normalization, so it finds the memo entry that
    `factorize comp` stored and adds no call."""
    counts = {}
    for name, (path, entries) in sessions.items():
        report, again = tmp_path / f"{name}.json", tmp_path / f"{name}-again.json"
        report.write_text(canonical_json(entries), encoding="utf-8")
        counts[name, "verify"] = _counted_main(monkeypatch, ["verify", str(report)])
        counts[name, "run"] = _counted_main(
            monkeypatch, ["run", path, "--seed", "1", "--json", str(again)])
        assert again.read_bytes() == report.read_bytes()
    capsys.readouterr()
    assert counts["fibers", "verify"] == (8, 36)
    assert counts["fibers", "run"] == (32, 60)
    assert counts["corpus", "verify"][0] == 3
    assert counts["corpus", "run"][0] == 5


def test_every_edit_of_a_recorded_normalization_is_rejected(sessions, monkeypatch):
    """Each scalar leaf of each recorded normalization, an exponent or a
    coefficient, raised by one. A normalization is an input, so an edit
    is not always rejected at its own path: the predicates' evidence
    records the tags, and an edit the finiteness check refuses leaves the
    replay without a certificate. No edit runs the candidate search."""
    def no_search(*args):
        raise AssertionError("the candidate search ran")

    monkeypatch.setattr(groebner, "_MEMO", {})
    monkeypatch.setattr(factorization, "_candidate_streams", no_search)
    edits = 0
    for entry in _certified(sessions, "factorization", "strong-purity"):
        edited = json.loads(json.dumps(entry))
        for lifted in _normalizations(edited["certificate"]):
            for node, key in list(_leaves(lifted)):
                value = node[key]
                node[key] = str(int(value) + 1)
                ok, failures = verify_certificate(edited)
                node[key] = value
                assert not ok and failures, (entry["command"], value)
                assert not any("search ran" in f for f in failures), failures
                edits += 1
    assert edits == 8 * 10 + 2 * 4


def test_a_normalization_the_search_rejected_fails_by_name(sessions, monkeypatch):
    """The first candidate a search tries and rejects, recorded in place of
    the normalization it accepted, fails and is named: (t, s) for the
    fibers factorization at `p0`, and (x) in the corpus strong-purity probe
    record of `comp`."""
    monkeypatch.setattr(groebner, "_MEMO", {})
    fibers = next(e for e in sessions["fibers"][1] if e["command"].startswith("factorize p0 "))
    corpus = next(e for e in sessions["corpus"][1] if e["command"].startswith("strong-purity "))
    cases = [(fibers, lambda c: c, ["t", "s", "x", "y"], "(t, s)",
              [[[["1", "0", "0", "0"], "1"]], [[["0", "1", "0", "0"], "1"]]]),
             (corpus, lambda c: c["probes"][0]["factorization"], ["x", "y", "w"], "(x)",
              [[[["1", "0", "0"], "1"]]])]
    for entry, factorization_of, ring, name, rejected in cases:
        edited = json.loads(json.dumps(entry))
        recorded = factorization_of(edited["certificate"])
        assert recorded["morphism"]["source"]["ring"]["vars"] == ring
        recorded["lifted"] = rejected
        ok, failures = verify_certificate(edited)
        assert not ok
        assert (f"replay-emitted-no-certificate: precondition-failed: normalization {name} is "
                "not module-finite with an empty contraction") in failures, failures
        assert "payload-differs-at $" in failures
        assert "entry-differs-at $.verdict" in failures


def test_verify_binds_the_seed_and_the_command_head(sessions, monkeypatch):
    """Each certified entry with its seed edited, where its certificate
    records one, and with its command's head swapped for another command's:
    the seed fails at `$.seed`, the head at `$.command`."""
    monkeypatch.setattr(groebner, "_MEMO", {})
    heads = sorted(COMMANDS)
    seeds = heads_swapped = 0
    for entry in _certified(sessions):
        assert verify_certificate(entry) == (True, []), entry["command"]
        head, rest = entry["command"].split(" ", 1)
        other = heads[(heads.index(head) + 1) % len(heads)]
        ok, failures = verify_certificate(dict(entry, command=f"{other} {rest}"))
        assert not ok and "entry-differs-at $.command" in failures, (entry["command"], failures)
        heads_swapped += 1
        if entry["certificate"]["kind"] in ("factorization", "strong-purity"):
            ok, failures = verify_certificate(dict(entry, seed=str(int(entry["seed"]) + 1)))
            assert not ok and "entry-differs-at $.seed" in failures, (entry["command"], failures)
            seeds += 1
    assert (heads_swapped, seeds) == (16 + 24, 10)


def test_a_recorded_rational_point_ideal_must_come_from_its_coordinates(sessions, monkeypatch):
    """The fibers entry `equidim-check c0 at co0 probes (cp0)` with the
    ideal (u, x, z) of its point recorded as (u, x, z^2), or as (u) alone,
    fails, and the failure names the ideal."""
    monkeypatch.setattr(groebner, "_MEMO", {})
    entry = next(e for e in sessions["fibers"][1]
                 if e["command"] == "equidim-check c0 at co0 probes (cp0)")
    assert verify_certificate(entry) == (True, [])
    u, x, z = ideal = entry["certificate"]["x"]["ideal"]
    assert z == [[["0", "0", "1"], "1"]]
    for edit in ([u, x, [[["0", "0", "2"], "1"]]], [u]):
        edited = json.loads(json.dumps(entry))
        edited["certificate"]["x"]["ideal"] = edit
        assert verify_certificate(edited) == (False, [
            "verification error: ValueError: a rational point's ideal is not x_i - c_i "
            "of its coords"])
    assert entry["certificate"]["x"]["ideal"] == ideal


def test_an_edited_generic_point_dimension_is_rejected(sessions, monkeypatch):
    """Each of the 16 generic points of the 8 fibers `factorize` entries,
    `$.y` and `$.x0`, with its `comp_dim` edited from 2 to 3, fails. A
    point recorded with its component has the component's dimension,
    computed when it is decoded, so the replay differs at the edit; x0 is
    recorded without one, and the factorization refuses it, as the
    generic fiber has dimension 2."""
    monkeypatch.setattr(groebner, "_MEMO", {})
    refused = ("replay-emitted-no-certificate: precondition-failed: x0 has dimension 3, "
               "the generic fiber has dimension 2")
    edits = 0
    for entry in sessions["fibers"][1]:
        if not entry["command"].startswith("factorize "):
            continue
        for key, failure in (("y", "payload-differs-at $.y.comp_dim"), ("x0", refused)):
            edited = json.loads(json.dumps(entry))
            point = edited["certificate"][key]
            assert (point["kind"], point["comp_dim"]) == ("generic-of-component", "2")
            point["comp_dim"] = "3"
            ok, failures = verify_certificate(edited)
            assert not ok and failure in failures, (entry["command"], key, failures)
            edits += 1
    assert edits == 16


def test_building_or_decoding_a_rational_point_runs_no_buchberger(monkeypatch):
    """The relations are checked by evaluation at the coordinates, and
    (x_i - c_i) is never the unit ideal: no Buchberger run has a point's
    ideal as its input, over Q or over GF(7)."""
    inputs = []

    def recorded(generators, order, inner=groebner._buchberger):
        inputs.append(set(generators))
        return inner(generators, order)

    monkeypatch.setattr(groebner, "_MEMO", {})
    monkeypatch.setattr(groebner, "_buchberger", recorded)
    for field, coords in ((QQ, (2, 3, Fraction(5, 7))), (GF(7), (2, 3, 4))):
        ring = PolynomialRing(field, ["x", "y", "z"])
        algebra = make_algebra(field, ring.vars, [P(ring, "x*y - 6")], "R")
        point = rational_point(algebra, coords)
        again = point_from_obj(point_to_obj(point))
        assert again.key == point.key
        with pytest.raises(ValueError):
            rational_point(algebra, (1, 1, 0))
        assert set(point.ideal.generators) not in inputs
    assert inputs
