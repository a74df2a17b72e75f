"""`run` and `verify` share a session's commands, and a report's replays,
among one process per usable CPU. Whatever the number of CPUs, the report
bytes, the printed lines and the exit codes are those of one process. A
command that raises in a worker raises in the caller, naming the command,
and no worker outlives the call; with one CPU nothing is forked."""

import os
import time

import pytest

from equipure import groebner, reports
from equipure.cli import main

from test_session_grammar import _workloads

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def _session(tmp_path, name):
    """The path of a session: a file under tests/data, or a fibers workload
    session by seed."""
    if name.endswith(".eqp"):
        return os.path.join(DATA, name)
    path = tmp_path / f"{name}.eqp"
    path.write_text(_workloads().fibers(int(name.split("-")[1])).text, encoding="utf-8")
    return str(path)


def _on_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def _cli(capsys, argv):
    """(exit code, stdout) of `main(argv)`, started with an empty memo, so
    that no run reuses what an earlier one computed."""
    groebner._MEMO.clear()
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("name, seed", [("corpus.eqp", 1), ("fibers-1", 1),
                                        ("fibers-2", 2), ("rationals.eqp", 1)])
def test_a_split_run_and_verify_match_one_process(tmp_path, capsys, monkeypatch,
                                                  name, seed, cpus):
    session = _session(tmp_path, name)
    outputs = {}
    for n in (1, cpus):
        _on_cpus(monkeypatch, n)
        report = tmp_path / f"report-{n}.json"
        run = _cli(capsys, ["run", session, "--seed", str(seed), "--json", str(report)])
        verify = _cli(capsys, ["verify", str(report)])
        outputs[n] = (run[0], run[1].replace(str(report), "REPORT"), report.read_bytes(),
                      verify)
    assert outputs[cpus] == outputs[1]
    assert "[ok]" in outputs[1][3][1] and "[FAIL]" not in outputs[1][3][1]


def _failing_in_workers(monkeypatch, failure):
    """Patch the fibers session's producers: in a forked worker each one
    calls `failure()`; in this process each one first waits 5 ms, so that
    the workers claim groups before this process has done them all."""
    caller = os.getpid()

    def patched(producer):
        def run(**kwargs):
            if os.getpid() != caller:
                failure()
            time.sleep(0.005)
            return producer(**kwargs)
        return run

    for name in ("produce_factorization", "produce_equidim", "produce_fiber_dim"):
        monkeypatch.setattr(reports, name, patched(getattr(reports, name)))


def _divide_by_zero():
    return 1 // 0


@pytest.mark.parametrize("failure, says", [
    (_divide_by_zero, "ZeroDivisionError"),
    (lambda: os._exit(7), "exited with status 7 without sending its results"),
])
def test_a_failing_worker_raises_in_the_caller_and_leaves_no_child(tmp_path, monkeypatch,
                                                                   failure, says):
    session = _session(tmp_path, "fibers-1")
    _on_cpus(monkeypatch, 2)
    _failing_in_workers(monkeypatch, failure)
    groebner._MEMO.clear()
    with pytest.raises(RuntimeError) as raised:
        main(["run", session, "--seed", "1", "--json", str(tmp_path / "report.json")])
    message = str(raised.value)
    assert says in message
    if failure is _divide_by_zero:
        with open(session, encoding="utf-8") as fh:
            commands = [line.strip().rstrip(";") for line in fh
                        if line.startswith(("factorize", "equidim-check", "fiber-dim"))]
        assert any(message.startswith(f"{command!r} raised in worker process")
                   for command in commands)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_one_cpu_forks_nothing(tmp_path, capsys, monkeypatch):
    def no_fork():
        raise AssertionError("forked on one CPU")

    _on_cpus(monkeypatch, 1)
    monkeypatch.setattr(os, "fork", no_fork)
    report = tmp_path / "report.json"
    code, out = _cli(capsys, ["run", _session(tmp_path, "fibers-1"), "--seed", "1",
                              "--json", str(report)])
    assert code == 1 and out.count("\n") == 41
    code, out = _cli(capsys, ["verify", str(report)])
    assert code == 0 and out.count("[ok]") == 24
