"""One measured process of the benchmark; run.py starts it from the
repository root with `src` on PYTHONPATH.

    python3 perfbench/child.py setup SESSION SEED
    python3 perfbench/child.py run SESSION SEED REPORT TIMINGS [SPANS]
    python3 perfbench/child.py verify REPORT [SPANS]

`setup` imports equipure and parses the session. `run` and `verify` call
`equipure.cli.main`, the entry point of the `equipure` command. `run` also
writes to TIMINGS the latency of each `session.run_command` call, the
uncaught exception if a command raised one, and the process's peak RSS.
With SPANS the tracer is installed first and its spans are written to
SPANS at exit.
"""

from __future__ import annotations

import json
import sys
import time
import traceback

from tracer import Tracer

OPTIONS = {"budget": 64, "frobenius_bound": 3}


def peak_rss_kb():
    """High-water RSS of this process image. Unlike getrusage's ru_maxrss,
    VmHWM does not include the parent's memory that was mapped before exec."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def setup(session_path, seed):
    from equipure.session import parse_session

    with open(session_path, "r", encoding="utf-8") as fh:
        text = fh.read()
    parse_session(text, dict(OPTIONS, seed=int(seed)))
    return 0


def run(session_path, seed, report_path, timings_path, spans_path=None):
    from equipure import cli, session

    tracer = Tracer().install() if spans_path else None
    inner = session.run_command
    latencies = []
    error = None

    def timed(sess, line, command):
        if tracer:
            tracer.request = len(latencies)
        start = time.perf_counter()
        try:
            return inner(sess, line, command)
        finally:
            latencies.append(time.perf_counter() - start)
            if tracer:
                tracer.request = -1

    session.run_command = timed
    try:
        code = cli.main(["run", session_path, "--seed", str(seed),
                         "--json", report_path])
    except Exception as exc:  # the command would crash; record it as such
        traceback.print_exc()
        error = f"{type(exc).__name__}: {exc}"
        code = 1
    finally:
        session.run_command = inner
        if tracer:
            tracer.uninstall()
            tracer.dump(spans_path)
        with open(timings_path, "w", encoding="utf-8") as fh:
            json.dump({"latency_s": latencies, "error": error,
                       "peak_rss_kb": peak_rss_kb()}, fh)
    return code


def certificate_indices(entries):
    """Indices of the report entries `equipure verify` checks, in its order."""
    out = []
    for i, entry in enumerate(entries):
        cert = entry.get("certificate") if "certificate" in entry else entry
        if cert is not None and "kind" in cert:
            out.append(i)
    return out


def verify(report_path, spans_path=None):
    from equipure import cli

    if not spans_path:
        return cli.main(["verify", report_path])
    with open(report_path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    requests = iter(certificate_indices([data] if isinstance(data, dict) else data))
    tracer = Tracer().install()
    inner = cli.verify_certificate

    def with_request(payload):
        tracer.request = next(requests, -1)
        try:
            return inner(payload)
        finally:
            tracer.request = -1

    cli.verify_certificate = with_request
    try:
        return cli.main(["verify", report_path])
    finally:
        cli.verify_certificate = inner
        tracer.uninstall()
        tracer.dump(spans_path)


MODES = {"setup": setup, "run": run, "verify": verify}

if __name__ == "__main__":
    raise SystemExit(MODES[sys.argv[1]](*sys.argv[2:]))
