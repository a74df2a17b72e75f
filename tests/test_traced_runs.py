"""The benchmark's traced path: `perfbench/child.py run` and `verify` with a
spans file, each in a fresh interpreter, on the corpus and fibers sessions
at seed 1. Under the tracer every public function of the package is
wrapped, `session.run_command` is timed through its module global and
`cli.verify_certificate` is called through a one-argument wrapper, so a
change to one of those call shapes shows here and not in an untraced run.
The report bytes, every `verify` line and the spans files are checked."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from test_session_grammar import ROOT, _workloads

SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(ROOT, "perfbench", "child.py")

# workload -> (md5 of the seed-1 report, certificates `verify` checks)
EXPECTED = {
    "corpus": ("fe277adfd3586e14fa1d5aa26189d569", 16),
    "fibers": ("6fda2c20306e3bef7b869d079862409f", 24),
}


def _child(*argv):
    """(exit code, stdout) of `perfbench/child.py argv` from the repository
    root, as the benchmark starts it."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    out = subprocess.run([sys.executable, CHILD, *argv], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert not out.stderr, out.stderr
    return out.returncode, out.stdout


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_a_traced_run_and_verify_give_the_untraced_outputs(name, tmp_path):
    if name == "corpus":
        session = os.path.join(ROOT, "tests", "data", "corpus.eqp")
    else:
        session = tmp_path / "fibers.eqp"
        session.write_text(_workloads().fibers(1).text, encoding="utf-8")
    report, timings = tmp_path / "report.json", tmp_path / "timings.json"
    run_spans, verify_spans = tmp_path / "run-spans.json", tmp_path / "verify-spans.json"
    digest, certified = EXPECTED[name]

    code, _ = _child("run", str(session), "1", str(report), str(timings), str(run_spans))
    assert code in (0, 1)
    assert json.loads(timings.read_text(encoding="utf-8"))["error"] is None
    assert hashlib.md5(report.read_bytes()).hexdigest() == digest

    code, stdout = _child("verify", str(report), str(verify_spans))
    assert code == 0
    lines = stdout.splitlines()
    assert len(lines) == certified
    assert all(line.startswith("[ok] ") for line in lines), stdout

    for spans in (run_spans, verify_spans):
        assert json.loads(spans.read_text(encoding="utf-8"))["spans"]
