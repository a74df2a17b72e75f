"""`run` and `verify` share a session's commands, and a report's replays,
among one process per usable CPU. Whatever the number of CPUs, the report
bytes, the printed lines and the exit codes are those of one process. A
command that raises in a worker raises in the caller, naming the command,
and no worker outlives the call; with one CPU, or without `os.fork`,
nothing is forked. A worker holds no other worker's result pipe, and one
whose parent has died stops after its current group. Each process of a
split runs on one usable CPU of its own, and the caller's CPU mask is as it
was when the call returns or raises."""

import os
import time

import pytest

from equipure import cli, groebner, reports
from equipure.cli import main

from test_session_grammar import _workloads

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

two_cpus = pytest.mark.skipif(
    len(os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()) < 2,
    reason="needs two usable CPUs")


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


@pytest.mark.parametrize("case", ["one CPU", "os.fork deleted"])
def test_one_cpu_forks_nothing(tmp_path, capsys, monkeypatch, case):
    def no_fork():
        raise AssertionError("forked on one CPU")

    if case == "one CPU":
        _on_cpus(monkeypatch, 1)
        monkeypatch.setattr(os, "fork", no_fork)
    else:
        _on_cpus(monkeypatch, 3)
        monkeypatch.delattr(os, "fork")
    report = tmp_path / "report.json"
    code, out = _cli(capsys, ["run", _session(tmp_path, "fibers-1"), "--seed", "1",
                              "--json", str(report)])
    assert code == 1 and out.count("\n") == 41
    code, out = _cli(capsys, ["verify", str(report)])
    assert code == 0 and out.count("[ok]") == 24


def _pipes():
    """The pipes this process holds a descriptor of, as 'pipe:[inode]'."""
    links = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            links.add(os.readlink(f"/proc/self/fd/{fd}"))
        except OSError:     # the listing's own descriptor, closed by now
            pass
    return {link for link in links if link.startswith("pipe:")}


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_a_worker_holds_only_the_token_pipe_and_its_own_result_pipe(monkeypatch):
    before = _pipes()

    def held(i):
        time.sleep(0.02)    # so that both workers claim groups
        return os.getpid(), sorted(_pipes() - before)

    _on_cpus(monkeypatch, 3)
    held_by = dict(cli._spread(held, [f"factorize p{i} at x" for i in range(24)]))
    workers = {pid: pipes for pid, pipes in held_by.items() if pid != os.getpid()}
    assert len(workers) == 2
    assert all(len(pipes) == 2 for pipes in workers.values()), workers


def _read_within(fd, seconds):
    """What one read of `fd` gives, b"" at end of file; fails the test when
    nothing comes within `seconds`."""
    import select

    if not select.select([fd], [], [], max(seconds, 0))[0]:
        pytest.fail(f"nothing to read within {seconds:.1f} s")
    return os.read(fd, 4)


def test_an_orphaned_worker_stops_after_its_current_group(monkeypatch):
    """A parent running `_spread` over 100 groups of 0.2 s each is killed
    while its worker works through a group; the worker stops after that
    group, not after the 20 s of the rest. The read end of the pipe below
    gives end of file once every process holding its write end, the killed
    parent and its worker, has exited."""
    _on_cpus(monkeypatch, 2)
    r, w = os.pipe()
    parent = os.fork()
    if parent == 0:
        try:
            os.close(r)

            def slow(i):
                os.write(w, os.getpid().to_bytes(4, "little"))
                time.sleep(0.2)

            cli._spread(slow, [f"factorize p{i} at x" for i in range(100)])
        finally:
            os._exit(0)
    os.close(w)
    pids = {parent}
    try:
        while len(pids) < 2:
            sent = _read_within(r, 30)
            assert len(sent) == 4, "the split ended before its parent was killed"
            pids.add(int.from_bytes(sent, "little"))
        os.kill(parent, 9)      # SIGKILL
        os.waitpid(parent, 0)
        pids.discard(parent)
        deadline = time.monotonic() + 5
        while _read_within(r, deadline - time.monotonic()):
            pass
        pids.clear()
    finally:
        os.close(r)
        for pid in pids:        # left here only when the test fails
            try:
                os.kill(pid, 9)
            except ProcessLookupError:
                pass
        if parent in pids:
            os.waitpid(parent, 0)


@two_cpus
def test_each_process_of_a_split_runs_on_one_cpu_of_its_own():
    def where(i):
        time.sleep(0.01)    # so that the worker claims groups too
        return os.getpid(), sorted(os.sched_getaffinity(0))

    mask = os.sched_getaffinity(0)
    placed = cli._spread(where, [f"factorize p{i} at x" for i in range(8)])
    assert os.sched_getaffinity(0) == mask
    assert all(len(cpus) == 1 for _, cpus in placed)
    cpus_of = {}
    for pid, cpus in placed:
        cpus_of.setdefault(pid, set()).update(cpus)
    assert os.getpid() in cpus_of and len(cpus_of) > 1
    assert all(len(cpus) == 1 for cpus in cpus_of.values())
    assert len(set.union(*cpus_of.values())) == len(cpus_of)


@two_cpus
def test_a_failing_worker_leaves_the_callers_cpu_mask_as_it_was(tmp_path, monkeypatch):
    session = _session(tmp_path, "fibers-1")
    _failing_in_workers(monkeypatch, _divide_by_zero)
    mask = os.sched_getaffinity(0)
    groebner._MEMO.clear()
    with pytest.raises(RuntimeError, match="ZeroDivisionError"):
        main(["run", session, "--seed", "1"])
    assert os.sched_getaffinity(0) == mask
