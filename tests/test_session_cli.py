"""Session parsing, command dispatch, canonical reports, the verifier and
the CLI: determinism is byte-level, tampering is caught by name."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from equipure.cli import main
from equipure.reports import Report, canonical_json, verify_certificate
from equipure.session import SessionError, parse_session, run_session

DATA = os.path.join(os.path.dirname(__file__), "data")
CORPUS = os.path.join(DATA, "corpus.eqp")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_corpus(seed=1):
    with open(CORPUS, "r", encoding="utf-8") as fh:
        text = fh.read()
    session = parse_session(text, {"seed": seed, "frobenius_bound": 3})
    return run_session(session)


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
    reports = run_session(session)
    assert reports[0].exit_class == 2
    assert "unknown ideal" in reports[0].verdict


def test_corpus_runs_and_exit_classes(corpus_reports):
    verdicts = {rep.command: rep for rep in corpus_reports}
    assert verdicts["splits ver"].exit_class == 0
    assert verdicts["splits nu"].exit_class == 1
    assert verdicts["pure-at nu at cuspO"].exit_class == 1
    assert verdicts["pure-at nu at cuspEta"].exit_class == 0
    assert verdicts["fedder F at fO"].exit_class == 0
    assert verdicts["tc-member (z^2) in Fxy mult (x^2) in F"].exit_class == 3
    assert verdicts["descend-check ver7 at m7 probes (s7O)"].exit_class == 0
    assert verdicts["dim I"].verdict == "0"


def test_reports_roundtrip_bit_exactly(corpus_reports):
    for rep in corpus_reports:
        text = rep.to_json()
        again = Report.from_obj(json.loads(text))
        assert again.to_json() == text


def test_determinism_same_seed_byte_identical(corpus_reports):
    second = run_corpus()
    first_json = canonical_json([rep.to_obj() for rep in corpus_reports])
    second_json = canonical_json([rep.to_obj() for rep in second])
    assert first_json == second_json


def test_integers_serialized_as_decimal_strings(corpus_reports):
    payload = json.loads(corpus_reports[0].to_json())

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
        text = rep.to_json()
        count = text.count('"assumed"')
        ledger = sum(1 for a in rep.assumptions if a.get("status") == "assumed")
        assert count == ledger


def test_every_certificate_verifies(corpus_reports):
    checked = 0
    for rep in corpus_reports:
        if rep.certificate is None or "kind" not in rep.certificate:
            continue
        checked += 1
        ok, failures = verify_certificate(rep.certificate)
        assert ok, (rep.command, failures)
    assert checked >= 15


def test_tampered_sigma_fails_by_name(corpus_reports):
    split_rep = next(rep for rep in corpus_reports if rep.command == "splits ver")
    cert = json.loads(canonical_json(split_rep.certificate))
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
    gb_rep = next(rep for rep in corpus_reports if rep.command.startswith("gb Circle"))
    cert = json.loads(canonical_json(gb_rep.certificate))
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


@pytest.mark.parametrize("text", ["field k = F4;", "ring R = Q[x,x];"])
def test_parse_time_value_errors_exit_2(tmp_path, text):
    path = tmp_path / "bad.eqp"
    path.write_text(text + "\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "equipure.cli", "run", str(path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("parse error: line 1: ")
