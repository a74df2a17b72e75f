"""Session parsing, command dispatch, canonical reports, the verifier and
the CLI: determinism is byte-level, tampering is caught by name."""

import hashlib
import importlib.util
import json
import os
import random
import re
import subprocess
import sys
import time

import pytest

from equipure import groebner, parametric
from equipure.cli import main
from equipure.errors import EquipureError
from equipure.ideals import IdealError
from equipure.reports import (
    EXIT_REFUTED,
    canonical_json,
    point_from_obj,
    point_to_obj,
    verify_certificate,
)
from equipure.session import SessionError, parse_session

from conftest import run_all
from test_acceptance import recorded

DATA = os.path.join(os.path.dirname(__file__), "data")
CORPUS = os.path.join(DATA, "corpus.eqp")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_corpus(seed=1):
    with open(CORPUS, "r", encoding="utf-8") as fh:
        text = fh.read()
    session = parse_session(text, {"seed": seed, "frobenius_bound": 3})
    return run_all(session)


@pytest.fixture(scope="module")
def corpus_reports():
    return run_corpus()


def test_parse_declarations():
    text = """
    ring R = Q[x,y] / (x*y - 1);
    ideal I = (x) in R;
    point p = closed(R : 1, 1);
    """
    session = parse_session(text)
    assert set(session.algebras) == {"R"}
    assert set(session.ideals) == {"I"}
    assert set(session.points) == {"p"}


def test_parse_empty_file():
    session = parse_session("")
    assert not session.commands


def test_unknown_name_is_rejected():
    with pytest.raises(SessionError) as err:
        parse_session("morphism f : R -> S = [a -> x^2];")
    assert "unknown ring 'R'" in str(err.value)


def test_duplicate_name_is_rejected():
    with pytest.raises(SessionError):
        parse_session("ring R = Q[x];\nring R = Q[y];")


def test_missing_semicolon():
    with pytest.raises(SessionError):
        parse_session("ring R = Q[x]")


def test_point_off_variety_is_rejected():
    with pytest.raises(SessionError):
        parse_session("ring C = Q[a,b] / (b^2 - a^3);\npoint p = closed(C : 1, 2);")


def test_error_report_for_bad_command():
    session = parse_session("ring R = Q[x];\nideal I = (x) in R;")
    session.commands = [(1, "gb J")]
    reports = run_all(session)
    assert reports[0]["exit_class"] == 2
    assert "unknown ideal" in reports[0]["verdict"]


def test_descent_of_a_map_that_is_not_module_finite_is_refused():
    session = parse_session("ring A7 = F7[x]; ring B7 = F7[x,y]; "
                            "morphism pr : A7 -> B7 = [x -> x]; "
                            "point a0 = closed(A7 : 0); point b0 = closed(B7 : 0, 0); "
                            "descend-check pr at a0 probes (b0);")
    (rep,) = run_all(session)
    assert rep["exit_class"] == 2
    assert rep["verdict"] == ("refused: hypothesis failed: partial-purity "
                              "(no purity witness: the harness requires a module-finite map)")


@pytest.mark.parametrize("command", [
    "dim I extra", "gb Circle lex junk", "splits ver please",
    "pure-at nu at cuspO now", "fedder F at fO twice", "fiber-dim ver at sO extra",
])
def test_trailing_words_are_rejected(command):
    with open(CORPUS, "r", encoding="utf-8") as fh:
        session = parse_session(fh.read())
    session.commands = [(42, command)]
    (rep,) = run_all(session)
    assert rep["exit_class"] == 2
    assert rep["verdict"].startswith("error: line 42: ")


def test_corpus_runs_and_exit_classes(corpus_reports):
    verdicts = {rep["command"]: rep for rep in corpus_reports}
    assert verdicts["splits ver"]["exit_class"] == 0
    assert verdicts["splits nu"]["exit_class"] == 1
    assert verdicts["pure-at nu at cuspO"]["exit_class"] == 1
    assert verdicts["pure-at nu at cuspEta"]["exit_class"] == 0
    assert verdicts["fedder F at fO"]["exit_class"] == 0
    assert verdicts["tc-member (z^2) in Fxy mult (x^2) in F"]["exit_class"] == 3
    assert verdicts["descend-check ver7 at m7 probes (s7O)"]["exit_class"] == 0
    assert verdicts["dim I"]["verdict"] == "0"


def test_reports_roundtrip_bit_exactly(corpus_reports):
    for rep in corpus_reports:
        text = canonical_json(rep)
        assert canonical_json(json.loads(text)) == text


def test_determinism_same_seed_byte_identical(corpus_reports):
    second = run_corpus()
    first_json = canonical_json(corpus_reports)
    second_json = canonical_json(second)
    assert first_json == second_json


def test_integers_serialized_as_decimal_strings(corpus_reports):
    payload = json.loads(canonical_json(corpus_reports[0]))

    def walk(node):
        assert not isinstance(node, (int, float)) or isinstance(node, bool)
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    walk(payload)


def test_assumption_ledger_completeness(corpus_reports):
    # the literal marker 'assumed' appears exactly where the ledger says
    for rep in corpus_reports:
        text = canonical_json(rep)
        count = text.count('"assumed"')
        ledger = sum(1 for a in rep["assumptions"] if a.get("status") == "assumed")
        assert count == ledger


def test_every_certificate_verifies(corpus_reports):
    checked = 0
    for rep in corpus_reports:
        if rep["certificate"] is None or "kind" not in rep["certificate"]:
            continue
        checked += 1
        ok, failures = verify_certificate(recorded(rep["certificate"]))
        assert ok, (rep["command"], failures)
    assert checked >= 15


def test_tampered_sigma_fails_by_name(corpus_reports):
    split_rep = next(rep for rep in corpus_reports if rep["command"] == "splits ver")
    cert = json.loads(canonical_json(split_rep["certificate"]))
    # flip one coefficient of sigma
    assert cert["sigma"][0][0][1] == "1"
    cert["sigma"][0][0][1] = "2"
    ok, failures = verify_certificate(cert)
    assert not ok
    assert "sigma-evaluation-at-1" in failures


def test_verify_rejects_unknown_and_malformed_payloads():
    ok, failures = verify_certificate({"kind": "no-such-kind"})
    assert not ok and "unknown certificate kind" in failures[0]
    ok2, failures2 = verify_certificate({"kind": "split"})
    assert not ok2 and failures2[0].startswith("verification error")


def test_tampered_basis_fails_by_name(corpus_reports):
    gb_rep = next(rep for rep in corpus_reports if rep["command"].startswith("gb Circle"))
    cert = json.loads(canonical_json(gb_rep["certificate"]))
    cert["basis"][0][0][1] = "17"
    ok, failures = verify_certificate(cert)
    assert not ok and failures


def test_cli_end_to_end(tmp_path, capsys):
    out = tmp_path / "reports.json"
    rc = main(["run", CORPUS, "--seed", "1", "--json", str(out)])
    assert rc == 1     # the cusp refutations dominate the exit code
    first = out.read_bytes()
    out2 = tmp_path / "reports2.json"
    main(["run", CORPUS, "--seed", "1", "--json", str(out2)])
    assert out2.read_bytes() == first
    rc_verify = main(["verify", str(out)])
    assert rc_verify == 0
    captured = capsys.readouterr()
    assert "re-verified" in captured.out


def test_cli_verify_catches_tampering(tmp_path):
    out = tmp_path / "reports.json"
    main(["run", CORPUS, "--seed", "1", "--json", str(out)])
    payload = json.loads(out.read_text())
    for entry in payload:
        cert = entry.get("certificate")
        if cert and cert.get("kind") == "split" and cert.get("sigma"):
            cert["sigma"][0][0][1] = "3"
            break
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(payload))
    rc = main(["verify", str(tampered)])
    assert rc == 1


def test_corpus_report_bytes_are_pinned(tmp_path):
    # seed-1 digest recorded when the benchmark was defined; a speed change
    # must leave these bytes identical
    out = tmp_path / "reports.json"
    main(["run", CORPUS, "--seed", "1", "--json", str(out)])
    assert hashlib.md5(out.read_bytes()).hexdigest() == "fe277adfd3586e14fa1d5aa26189d569"


def test_fibers_report_bytes_are_pinned(tmp_path):
    # the benchmark's fibers session at seed 1 (generic-point factorizations
    # through the parametric engine); digest recorded with the benchmark
    out = tmp_path / "reports.json"
    main(["run", os.path.join(DATA, "fibers.eqp"), "--seed", "1", "--json", str(out)])
    assert hashlib.md5(out.read_bytes()).hexdigest() == "6fda2c20306e3bef7b869d079862409f"


def test_fibers_report_verifies_in_a_fresh_process(tmp_path):
    # in-process every replay of the fibers session is a memo hit; a fresh
    # process re-derives each certificate, parametric runs included
    out = tmp_path / "reports.json"
    main(["run", os.path.join(DATA, "fibers.eqp"), "--seed", "1", "--json", str(out)])
    assert hashlib.md5(out.read_bytes()).hexdigest() == "6fda2c20306e3bef7b869d079862409f"
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "equipure.cli", "verify", str(out)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr
    assert len(re.findall(r"^\[ok\] ", proc.stdout, re.M)) == 24
    assert "[FAIL]" not in proc.stdout


def test_rationals_report_bytes_are_pinned(tmp_path):
    # reduced bases, points and maps with coefficients such as 1/2 and 2/3;
    # digest recorded while every rational was still a Fraction. A fresh
    # process re-derives each certificate from the parsed report
    out = tmp_path / "reports.json"
    main(["run", os.path.join(DATA, "rationals.eqp"), "--seed", "1", "--json", str(out)])
    assert hashlib.md5(out.read_bytes()).hexdigest() == "8efc0a64bf6b7f6a973765197d3cd410"
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "equipure.cli", "verify", str(out)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr
    assert len(re.findall(r"^\[ok\] ", proc.stdout, re.M)) == 5
    assert "[FAIL]" not in proc.stdout


def test_exponents_past_the_packed_field_width_keep_their_report(tmp_path):
    # gb and dim on ideals whose inputs, products or S-pair lcms leave the
    # first packed field width; digest recorded with the exponent-tuple
    # engine that preceded packed monomials
    out = tmp_path / "reports.json"
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "equipure.cli", "run",
                           os.path.join(DATA, "wide.eqp"), "--seed", "1", "--json", str(out)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr
    assert hashlib.md5(out.read_bytes()).hexdigest() == "3eea809bba4bf7ceffa8c26351b066cf"
    assert main(["verify", str(out)]) == 0


def test_a_closed_stdout_ends_the_output_not_the_run(tmp_path):
    # `equipure run fibers.eqp | true`: the reader is gone before the first
    # report line, and the run still writes its reports and exits as they say
    out = tmp_path / "reports.json"
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen([sys.executable, "-m", "equipure.cli", "run",
                             os.path.join(DATA, "fibers.eqp"), "--seed", "1", "--json", str(out)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == EXIT_REFUTED
    assert stderr == ""
    assert hashlib.md5(out.read_bytes()).hexdigest() == "6fda2c20306e3bef7b869d079862409f"


@pytest.mark.parametrize("hashseed", ["0", "12345"])
@pytest.mark.parametrize("name, digest", [
    ("corpus.eqp", "fe277adfd3586e14fa1d5aa26189d569"),
    ("fibers.eqp", "6fda2c20306e3bef7b869d079862409f"),
])
def test_report_bytes_do_not_depend_on_the_hash_seed(tmp_path, name, digest, hashseed):
    # results are stored in hash-keyed dicts for the life of a process; the
    # pinned bytes must not depend on the interpreter's string hashing
    out = tmp_path / "reports.json"
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=hashseed)
    proc = subprocess.run([sys.executable, "-m", "equipure.cli", "run",
                           os.path.join(DATA, name), "--seed", "1", "--json", str(out)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert "Traceback" not in proc.stderr
    assert hashlib.md5(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("text", ["[1]", "[null]", '["x"]', '[{"certificate": 5}]'])
def test_verify_of_a_non_object_entry_exits_2(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "cannot read report: entry 0 is not a report or certificate object"]


TC_SESSION = """
ring F = F7[x,y,z] / (x^3 + y^3 + z^3);
ideal Fxy = (x, y) in F;
tc-member (z^2) in Fxy mult (x^2) in F;
"""


def test_frobenius_bound_over_the_limit_exits_2(tmp_path):
    path = tmp_path / "tc.eqp"
    path.write_text(TC_SESSION)
    out = tmp_path / "reports.json"
    assert main(["run", str(path), "--frobenius-bound", "5", "--json", str(out)]) == 2
    [rep] = json.loads(out.read_text())
    assert rep["exit_class"] == "2"
    assert rep["verdict"] == "error: Frobenius bound 5: 7^5 exceeds the limit 2401"


@pytest.mark.parametrize("bound", [5, 10 ** 9])
def test_edited_frobenius_bound_fails_verify_quickly(corpus_reports, bound):
    [rep] = [r for r in corpus_reports if r["command"].startswith("tc-member (z^2)")]
    payload = json.loads(canonical_json(rep["certificate"]))
    assert payload["bound"] == "3"
    payload["bound"] = str(bound)
    started = time.perf_counter()
    ok, failures = verify_certificate(payload)
    assert not ok
    assert failures == [f"verification error: ValueError: Frobenius bound {bound}: "
                        f"7^{bound} exceeds the limit 2401"]
    assert time.perf_counter() - started < 5


# x inside more nested parentheses than the parser can descend
DEEP = "(" * 5000 + "x" + ")" * 5000


@pytest.mark.parametrize("text", [
    "field k = F4;", "ring R = Q[x,x];",
    pytest.param(f"ring R = Q[x]; ideal I = ({DEEP}) in R;", id="deep-parentheses"),
    pytest.param("ring R = Q[x,y]; ideal I = (x,,y,) in R;", id="empty-generator"),
])
def test_parse_time_value_errors_exit_2(tmp_path, text):
    path = tmp_path / "bad.eqp"
    path.write_text(text + "\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "equipure.cli", "run", str(path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("parse error: line 1: ")


@pytest.mark.parametrize("mode, what", [("run", "session"), ("verify", "report")])
def test_a_file_that_is_not_utf8_exits_2(tmp_path, capsys, mode, what):
    path = tmp_path / "latin1.txt"
    path.write_bytes("ring R = Q[x];  # \u00e9\n".encode("latin-1"))
    assert main([mode, str(path)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"cannot read {what}: 'utf-8' codec can't decode")


def test_an_unwritable_json_path_exits_2(tmp_path, capsys):
    path = tmp_path / "dim.eqp"
    path.write_text("ring R = Q[x];\nideal I = (x) in R;\ndim I;\n")
    assert main(["run", str(path), "--json", str(tmp_path / "missing" / "r.json")]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("cannot write reports: [Errno 2] No such file or directory")


def test_deep_parentheses_in_a_command_are_an_error_report():
    session = parse_session(TC_SESSION)
    session.commands = [(7, f"tc-member ({DEEP}) in Fxy mult (x^2) in F")]
    (rep,) = run_all(session)
    assert rep["exit_class"] == 2
    assert rep["verdict"] == "error: parentheses nested too deeply"


def test_root_search_beyond_its_budget_exits_2(tmp_path):
    # splitting R into its two components needs the rational roots of
    # (x - 2003)*(x - 2011), whose constant has no divisor up to the cap
    path = tmp_path / "roots.eqp"
    path.write_text("field k = Q;\nring R = k[x,y] / ((x-2003)*(x-2011));\n"
                    "point eta = generic(R);\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "equipure.cli", "run", str(path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("parse error: line 3: budget MAX_TRIAL_DIVISOR exhausted")


# a generic-point factorization (its y has a zero-ideal component) and a
# blow-up chart checked at a probe
FIBERS = """
ring T = Q[t,s];
ring U = Q[u,v];
point eta = generic(T);
ring P0 = Q[t,s,x,y];
morphism p0 : T -> P0 = [t -> t + 3*x*y, s -> s*x^2 + y];
point g0 = fiber-point(p0, eta, 0);
ring C0 = Q[u,x,z];
morphism c0 : U -> C0 = [u -> u, v -> u^2*x + z];
point co0 = closed(C0 : 0, 0, 0);
point cp0 = closed(C0 : 1, 4, 2);
factorize p0 at eta from g0;
equidim-check c0 at co0 probes (cp0);
"""


def _nodes(node):
    yield node
    children = node.values() if isinstance(node, dict) else node if isinstance(node, list) else ()
    for child in children:
        yield from _nodes(child)


def test_points_round_trip(corpus_reports):
    fibers = run_all(parse_session(FIBERS))
    points = [node for rep in corpus_reports + fibers if rep["certificate"]
              for node in _nodes(json.loads(canonical_json(rep["certificate"])))
              if isinstance(node, dict) and "comp_dim" in node]
    assert any(p["component"] == [] for p in points)
    for obj in points:
        assert json.loads(canonical_json(point_to_obj(point_from_obj(obj)))) == obj
    for rep in fibers:
        ok, failures = verify_certificate(recorded(rep["certificate"]))
        assert ok, (rep["command"], failures)


def test_exhausted_parametric_budget_is_an_error_report(monkeypatch):
    assert issubclass(IdealError, EquipureError)
    # factorizations stored by earlier tests would answer without the engine
    monkeypatch.setattr(groebner, "_MEMO", {})
    # the declarations' fibers run at the full budget, the factorization at 1
    session = parse_session(FIBERS)
    monkeypatch.setattr(parametric, "PARAM_PAIR_BUDGET", 1)
    [rep] = [r for r in run_all(session) if r["command"].startswith("factorize")]
    assert rep["exit_class"] == 2
    assert rep["verdict"] == "error: parametric Buchberger budget exceeded"


# payload paths a replay decodes as the producer's inputs; every other leaf
# is an output of the producer
REPLAY_INPUTS = {
    "groebner-basis": r"ring|generators|order",
    "dimension": r"ring|generators",
    "split": r"morphism",
    "factorization": r"morphism|y|x0|probes|seed|lifted",
    "equidim": r"morphism|x|probes",
    "pure-at": r"morphism|point",
    "splinter-probe": r"base|covers",
    "strong-purity": r"morphism|base_class|probes\[\d+\]\.factorization\.(probes|seed|lifted)",
    "fedder": r"ring|defining|point",
    "tc-verdict": r"algebra|z|ideal|multiplier|bound",
    "f-rational-probe": r"algebra|sops|bound",
    "descent": r"morphism|y|probes|bound",
}


def _scalar_leaves(node, path="$"):
    """(path, container, key) of every string, bool and null leaf."""
    keys = sorted(node) if isinstance(node, dict) else range(len(node))
    for key in keys:
        child = node[key]
        sub = f"{path}.{key}" if isinstance(node, dict) else f"{path}[{key}]"
        if isinstance(child, (dict, list)):
            yield from _scalar_leaves(child, sub)
        else:
            yield sub, node, key


def test_every_output_edit_is_rejected_at_its_path(corpus_reports):
    edits = 0
    for rep in corpus_reports:
        if rep["certificate"] is None:
            continue
        payload = json.loads(canonical_json(rep["certificate"]))
        inputs = re.compile(rf"\$\.(kind|{REPLAY_INPUTS[payload['kind']]})(\.|\[|$)")
        outputs = [leaf for leaf in _scalar_leaves(payload) if not inputs.match(leaf[0])]
        for path, node, key in random.Random(rep["command"]).sample(outputs, min(5, len(outputs))):
            value = node[key]
            node[key] = (not value) if isinstance(value, bool) else (value or "") + "7"
            ok, failures = verify_certificate(payload)
            node[key] = value
            assert not ok and f"payload-differs-at {path}" in failures, (rep["command"], path)
            edits += 1
    assert edits >= 60


@pytest.mark.parametrize("kind, key", [
    ("factorization", "e"),             # "1" -> 1
    ("factorization", "seed"),
    ("dimension", "dim"),               # "0" -> 0
    ("tc-verdict", "witness_exponent"),
    ("pure-at", "pure"),                # true -> 1, which == takes for True
    ("fedder", "f_pure"),
])
def test_a_type_only_edit_is_rejected_at_its_path(corpus_reports, kind, key):
    """A leaf, output or recorded input, rewritten as a JSON number with the
    text or truth of its canonical value is an edit: `verify` compares with
    the payload as loaded, not with its canonical form."""
    payload = next(p for p in (recorded(rep["certificate"]) for rep in corpus_reports)
                   if p and p["kind"] == kind and p.get(key) not in (None, False))
    assert verify_certificate(payload) == (True, [])
    edited = dict(payload, **{key: int(payload[key])})
    ok, failures = verify_certificate(edited)
    assert not ok and failures[0] == f"payload-differs-at $.{key}", failures


def _entry_edits(entry):
    """(edited copy of a certified report entry, the failure `verify` must
    name) for each field of the entry outside its payload, and for the
    payload's kind."""
    def edited(**fields):
        return dict(json.loads(json.dumps(entry)), **fields)

    assumptions = [] if entry["assumptions"] else [{"status": "assumed", "text": "EDITED"}]
    no_kind = edited()
    del no_kind["certificate"]["kind"]
    return [(edited(verdict="EDITED"), "entry-differs-at $.verdict"),
            (edited(exit_class="1" if entry["exit_class"] == "0" else "0"),
             "entry-differs-at $.exit_class"),
            (edited(assumptions=assumptions), "entry-differs-at $.assumptions"),
            (no_kind, "unknown certificate kind None")]


def test_verify_binds_the_verdict_exit_class_assumptions_and_kind(corpus_reports, tmp_path,
                                                                   capsys):
    entries = [recorded(rep) for rep in corpus_reports if rep["certificate"] is not None]
    assert len(entries) == 16
    for entry in entries:
        assert verify_certificate(entry) == (True, []), entry["command"]
        for edit, failure in _entry_edits(entry):
            ok, failures = verify_certificate(edit)
            assert not ok and failure in failures, (entry["command"], failure, failures)
    # through the command line, each edit of every entry fails its line
    for k in range(4):
        path = tmp_path / f"edit{k}.json"
        path.write_text(json.dumps([_entry_edits(entry)[k][0] for entry in entries]))
        assert main(["verify", str(path)]) == EXIT_REFUTED
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 16 and all(line.startswith("[FAIL] ") for line in lines), lines


@pytest.mark.parametrize("command, words", [
    ("strong-purity comp base normal-Q-hypersurface probes ()", "probes () is empty"),
    ("splinter-probe Cusp covers ()", "covers () is empty"),
    ("f-rational-probe P7 sops ()", "sops () is empty"),
    ("descend-check ver7 at m7 probes ()", "probes () is empty"),
])
def test_an_empty_evidence_list_is_an_error_report(command, words):
    with open(CORPUS, "r", encoding="utf-8") as fh:
        session = parse_session(fh.read())
    session.commands = [(60, command)]
    (rep,) = run_all(session)
    assert rep["exit_class"] == 2 and rep["certificate"] is None
    assert rep["verdict"].startswith("error: ") and words in rep["verdict"], rep["verdict"]


def test_verify_checks_the_entries_the_benchmark_maps_its_lines_to(tmp_path, capsys,
                                                                   monkeypatch):
    """`perfbench/run.py` pairs the [ok]/[FAIL] lines of `verify` with the
    entries `perfbench/child.py:certificate_indices` selects; on every
    session under tests/data the two counts agree."""
    bench = os.path.join(os.path.dirname(SRC), "perfbench")
    monkeypatch.syspath_prepend(bench)
    spec = importlib.util.spec_from_file_location("bench_child", os.path.join(bench, "child.py"))
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    sessions = sorted(name for name in os.listdir(DATA) if name.endswith(".eqp"))
    assert len(sessions) >= 4
    for name in sessions:
        out = tmp_path / f"{name}.json"
        main(["run", os.path.join(DATA, name), "--seed", "1", "--json", str(out)])
        capsys.readouterr()
        entries = json.loads(out.read_text(encoding="utf-8"))
        assert main(["verify", str(out)]) == 0
        marks = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith(("[ok]", "[FAIL]"))]
        assert len(marks) == len(child.certificate_indices(entries)) > 0, name
