"""The command line the `equipure` command reads: help and version exit 0,
every usage error exits 2 with one line on stderr, and an option reads the
same in either spelling and on either side of the positional argument."""

import os
import subprocess
import sys

import pytest

from equipure import __version__
from equipure.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CORPUS = os.path.join(ROOT, "tests", "data", "corpus.eqp")

SMALL = "ring R = Q[x,y];\nideal I = (x^2 - y) in R;\ngb I;\ndim I;\n"


@pytest.mark.parametrize("argv, usage", [
    (["-h"], "usage: equipure [-h] [--version] {run,verify} ..."),
    (["--help"], "usage: equipure [-h] [--version] {run,verify} ..."),
    (["run", "-h"], "usage: equipure run [-h] [--seed N] [--budget N] "
                    "[--frobenius-bound E] [--json PATH] session"),
    (["run", CORPUS, "--seed", "1", "--help"], "usage: equipure run [-h]"),
    (["verify", "--help"], "usage: equipure verify [-h] report"),
])
def test_help_exits_0_with_the_usage_on_stdout(capsys, argv, usage):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out.startswith(usage) and err == ""


def test_version_exits_0(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr() == (f"{__version__}\n", "")


@pytest.mark.parametrize("argv, message", [
    ([], "a command is required"),
    (["frobnicate"], "unknown command 'frobnicate'"),
    (["--seed", "1"], "unknown option '--seed'"),
    (["run", CORPUS, "--no-such-option"], "unknown option '--no-such-option'"),
    (["run", CORPUS, "--seed"], "option --seed needs a value"),
    (["run", CORPUS, "--json", "--seed", "1"], "option --json needs a value"),
    (["run", CORPUS, "--seed", "x"], "option --seed: 'x' is not an integer"),
    (["run", CORPUS, "--frobenius-bound=2.5"], "option --frobenius-bound: '2.5' is not an integer"),
    (["run", CORPUS, "extra"], "unexpected argument 'extra'"),
    (["run"], "the session argument is required"),
    (["verify", "a.json", "b.json"], "unexpected argument 'b.json'"),
    (["verify", "a.json", "--json", "x"], "unknown option '--json'"),
    # argparse read a unique prefix of an option as the option; no longer
    (["run", CORPUS, "--se", "2"], "unknown option '--se'"),
    (["run", CORPUS, "--budget", "-1"], "option --budget: '-1' is not a non-negative integer"),
    (["run", CORPUS, "--budget=-1"], "option --budget: '-1' is not a non-negative integer"),
])
def test_a_usage_error_exits_2_with_one_line(capsys, argv, message):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    [line] = err.splitlines()
    assert out == "" and line.startswith(f"equipure: error: {message}")
    assert "; usage: equipure " in line


@pytest.mark.parametrize("argv", [["run", CORPUS, "--seed", "x"],
                                  ["run", CORPUS, "--budget", "-1"]])
def test_a_usage_error_has_no_traceback(argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "equipure.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert line.startswith("equipure: error: option --")


def test_option_spellings_and_positions_read_the_same(tmp_path, capsys):
    path = tmp_path / "small.eqp"
    path.write_text(SMALL)
    outs = [tmp_path / f"{k}.json" for k in range(5)]
    assert main(["run", str(path), "--seed", "1", "--json", str(outs[0])]) == 0
    assert main(["run", str(path), "--seed=1", f"--json={outs[1]}"]) == 0
    assert main(["run", "--seed", "1", "--json", str(outs[2]), str(path)]) == 0
    assert main(["run", "--seed=1", "--", str(path), f"--json={outs[3]}"]) == 2
    assert main(["run", "--seed=1", f"--json={outs[3]}", "--", str(path)]) == 0
    assert main(["run", str(path), "--json", str(outs[4])]) == 0
    first = outs[0].read_bytes()
    assert [out.read_bytes() for out in outs[1:4]] == [first] * 3
    assert outs[4].read_bytes() != first     # the reports record the seed


def test_a_budget_of_0_still_reaches_the_splitter(tmp_path, capsys):
    path = tmp_path / "cusp.eqp"
    path.write_text("ring C = Q[a,b] / (b^2 - a^3);\npoint eta = generic(C);\n")
    assert main(["run", str(path), "--budget", "0"]) == 2
    assert capsys.readouterr().err == (
        "parse error: line 2: component splitting exceeded 0 steps\n")
