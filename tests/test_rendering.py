"""Each process renders the report entries of the commands it ran, and the
parent of `run` writes their text in session order. The canonical JSON of
a report list is its entries' canonical JSON joined by commas inside
brackets, so the file is the same bytes; `run` renders each report once,
and only with `--json`; and the parent holds no report object graph, so
its peak memory does not grow with the report."""

import glob
import os
import subprocess
import sys

import pytest

from equipure import cli, reports
from equipure.reports import canonical_json
from equipure.session import COMMANDS, parse_session

from conftest import run_all

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
DATA = os.path.join(ROOT, "tests", "data")
FIBERS = os.path.join(DATA, "fibers.eqp")


@pytest.mark.parametrize("name", sorted(os.path.basename(path)
                                        for path in glob.glob(os.path.join(DATA, "*.eqp"))))
def test_the_canonical_list_is_its_entries_joined(name):
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        session = parse_session(fh.read(), {"seed": 1})
    entries = run_all(session)
    for some in (entries, []):
        assert canonical_json(some) == "[" + ",".join(canonical_json(e) for e in some) + "]"


@pytest.mark.parametrize("json_path", [False, True])
def test_one_cpu_renders_each_report_once_and_only_for_json(tmp_path, capsys, monkeypatch,
                                                            json_path):
    calls = []

    def counted(obj):
        calls.append(obj)
        return canonical_json(obj)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(cli, "canonical_json", counted)
    monkeypatch.setattr(reports, "canonical_json", counted)
    report = tmp_path / "report.json"
    argv = ["run", FIBERS, "--seed", "1"] + (["--json", str(report)] if json_path else [])
    assert cli.main(argv) == 1
    printed = capsys.readouterr().out.splitlines()
    assert len(calls) == (40 if json_path else 0)
    assert len(printed) == (41 if json_path else 40)


def _peak_kb(tmp_path, name, text):
    """VmHWM, in kB, of `run --json` of a session in a fresh interpreter
    pinned to one usable CPU."""
    session = tmp_path / f"{name}.eqp"
    session.write_text(text, encoding="utf-8")
    argv = ["run", str(session), "--seed", "1", "--json", str(tmp_path / f"{name}.json")]
    code = ("import os\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from equipure.cli import main\n"
            f"main({argv!r})\n"
            "with open('/proc/self/status') as fh:\n"
            "    print(next(line.split()[1] for line in fh if line.startswith('VmHWM')))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return int(out.stdout.splitlines()[-1])


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_the_peak_memory_of_run_does_not_grow_with_the_report(tmp_path):
    """The fibers seed-1 session with its 40 commands repeated five times
    peaks less than 1 MB above the session run once: the repeats are
    answered from the memo, so only the report grows."""
    with open(FIBERS, encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    commands = [line for line in lines if line.split(" ", 1)[0] in COMMANDS]
    declarations = [line for line in lines if line not in commands]
    assert len(commands) == 40
    once = _peak_kb(tmp_path, "once", "".join(declarations + commands))
    repeated = _peak_kb(tmp_path, "repeated", "".join(declarations + commands * 5))
    assert repeated - once < 1024, (once, repeated)
