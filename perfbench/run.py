"""The equipure benchmark: run and verify time on one workload.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 40 --trace 0

Run it from the repository root. It is a single-client closed loop: one
process at a time, the commands of a session in order, no threads doing
work. It writes the workload's session, measures set-up in fresh
processes, then alternates `equipure run` and `equipure verify` processes
until --seconds is spent, and checks every verdict and certificate. The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 it runs
once untraced and once under the tracer and reports per-layer figures.
See perfbench/README.md for every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibration  # noqa: E402
import child as child_process  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.json")
WORK_DIR = ".bench_work"
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 150

_SEVERITY = {workloads.OK: 0, workloads.INCONCLUSIVE: 1, workloads.REFUTED: 2,
             workloads.ERROR: 3}

END_TO_END = [
    ("setup_s", "s"), ("run_s", "s"), ("verify_s", "s"), ("peak_rss_mb", "MB"),
]
# Printed, not declared: the corpus's 17 commands form a few clusters of
# latency, and both percentiles sit at a cluster edge, so they jump from run
# to run (quartile spreads over ten seeds: p50 0.32, p90 up to 0.25).
PRINTED_ONLY = [("cmd_p50_s", "s"), ("cmd_p90_s", "s")]

# per-function figures of the traced run: (span name, figures)
PER_FUNCTION = [
    ("groebner.buchberger", ("calls", "self_s", "unique_frac")),
    ("orders.key", ("calls",)),
    ("groebner.normal_form", ("calls", "self_s")),
    ("groebner.is_groebner", ("self_s", "s")),
    ("ideals.IdealHandle.groebner", ("hit_frac",)),
    ("schemes.decompose_components", ("calls", "unique_frac", "self_s")),
    ("modules.module_buchberger", ("calls", "unique_frac", "self_s")),
    ("modules.module_normal_form", ("self_s",)),
    ("purity.splitting_ideal", ("calls", "unique_frac")),
    ("parametric.param_buchberger", ("calls", "self_s")),
    ("parametric.param_normal_form", ("self_s",)),
    ("factorization.noether_normalize", ("calls", "self_s")),
    ("schemes.finite_locus_strata", ("self_s", "branch_frac")),
    ("charp.frobenius_power", ("calls",)),
    ("charp.tc_member_certificate", ("self_s",)),
    ("session.parse_session", ("s",)),
    ("reports.verify_certificate", ("self_s",)),
    ("reports.canonical_json", ("s",)),
]
TRACE_FIGURES = ["trace.untraced_run_s", "trace.run_s", "trace.overhead_s",
                 "trace.verify_s"]


def unit_of(figure):
    if figure.endswith("calls"):
        return "count"
    if figure.endswith("_frac"):
        return "fraction"
    return "s"


def per_layer_names():
    names = [f"{fn}.{fig}" for fn, figs in PER_FUNCTION for fig in figs]
    names += [f"{layer}.{fig}" for layer in tracing.LAYER_NAMES
              for fig in ("calls", "self_s")]
    return names + TRACE_FIGURES


# -- processes -----------------------------------------------------------------


class Child:
    """Runs perfbench/child.py in a fresh interpreter and records its wall
    time, exit code and output."""

    def __init__(self, root, work):
        self.root = root
        self.work = work
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.counter = 0

    def __call__(self, *args):
        self.counter += 1
        out_path = os.path.join(self.work, f"child{self.counter}.out")
        err_path = os.path.join(self.work, f"child{self.counter}.err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, CHILD, *args], cwd=self.root,
                                    env=self.env, stdout=out, stderr=err)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                proc.wait()
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        with open(out_path, "r", encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(err_path, "r", encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        return {"code": proc.returncode, "wall": wall, "stdout": stdout,
                "stderr": stderr}


# -- checking outputs --------------------------------------------------------------


def entry_digest(entry):
    """md5 of one report entry's canonical bytes (sorted keys, no spaces)."""
    text = json.dumps(entry, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.md5(text.encode("ascii")).hexdigest()


def load_entries(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    return [data] if isinstance(data, dict) else data


def judge_run(workload, entries, timings):
    """(reasons, digests): per command, None or why it failed, and the
    digest of its report entry (None when there is no entry)."""
    n = len(workload.expected)
    reasons = [None] * n
    digests = [None] * n
    if timings is None:
        reasons = ["no timings written"] * n
    elif timings["error"]:
        done = len(timings["latency_s"])
        for i in range(n):
            if done == 0:
                reasons[i] = f"session failed: {timings['error']}"
            elif i == done - 1:
                reasons[i] = f"uncaught {timings['error']}"
            elif i >= done:
                reasons[i] = "not run: an earlier command raised"
    if entries is None:
        return [r or "no report written" for r in reasons], digests
    for i, (command, verdict, exit_class) in enumerate(workload.expected):
        if i >= len(entries):
            reasons[i] = reasons[i] or "missing from report"
            continue
        entry = entries[i]
        digests[i] = entry_digest(entry)
        got = (entry.get("command"), entry.get("verdict"), int(entry.get("exit_class", -1)))
        if reasons[i] is None and got != (command, verdict, exit_class):
            reasons[i] = f"expected {(command, verdict, exit_class)}, got {got}"
    if len(entries) != n:
        reasons = [r or f"report has {len(entries)} entries, expected {n}"
                   for r in reasons]
    return reasons, digests


def verify_verdicts(entries, stdout):
    """{entry digest: ok} from `equipure verify` output, whose [ok]/[FAIL]
    lines follow the certificate-bearing entries in order."""
    marks = [line.startswith("[ok]") for line in stdout.splitlines()
             if line.startswith("[ok]") or line.startswith("[FAIL]")]
    checked = [entries[i] for i in child_process.certificate_indices(entries)]
    out = {}
    for k, entry in enumerate(checked):
        out[entry_digest(entry)] = k < len(marks) and marks[k] and len(marks) == len(checked)
    for entry in entries:
        out.setdefault(entry_digest(entry), True)   # nothing to verify
    return out


class Ledger:
    """Every run attempt of every command, and what verify said."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.attempts = []      # (reasons, digests) per run process
        self.verified = {}      # digest -> ok

    def add_run(self, reasons, digests):
        self.attempts.append((reasons, digests))

    def add_verify(self, verdicts):
        for digest, ok in verdicts.items():
            self.verified[digest] = self.verified.get(digest, True) and ok

    def failures(self):
        out = []
        for reasons, digests in self.attempts:
            for i, (reason, digest) in enumerate(zip(reasons, digests)):
                if reason is None and digest is not None:
                    ok = self.verified.get(digest)
                    if ok is None:
                        reason = "report entry never verified"
                    elif not ok:
                        reason = "certificate rejected by verify"
                if reason:
                    out.append((self.workload.expected[i][0], reason))
        return out

    def attempted(self):
        return len(self.attempts) * len(self.workload.expected)

    def identical(self):
        """(identical, compared) against the recorded reference digests."""
        if self.reference is None:
            return 0, 0
        same = sum(d == r for _, digests in self.attempts
                   for d, r in zip(digests, self.reference))
        return same, self.attempted()


def expected_exit(workload):
    worst = workloads.OK
    for _, _, exit_class in workload.expected:
        if _SEVERITY[exit_class] > _SEVERITY[worst]:
            worst = exit_class
    return worst


def load_reference(name, seed):
    try:
        with open(REFERENCE, "r", encoding="utf-8") as fh:
            table = json.load(fh)
    except FileNotFoundError:
        return None
    return table.get("digests", {}).get(name, {}).get(str(seed))


# -- measuring ----------------------------------------------------------------------


class Bench:
    def __init__(self, root, work, workload):
        self.child = Child(root, work)
        self.work = work
        self.workload = workload
        self.session = os.path.join(work, "session.eqp")
        with open(self.session, "w", encoding="utf-8") as fh:
            fh.write(workload.text)
        self.ledger = Ledger(workload, load_reference(workload.name, workload.seed))
        self.latencies = []
        self.runs = 0
        self.kernel_s = []      # calibration kernel times, in order

    def timed(self, work, *args):
        """Run `work(*args)` between two calibration kernels; `scaled` is its
        wall time in reference-speed seconds (see calibration.py)."""
        if not self.kernel_s:
            self.kernel_s.append(calibration.measure())
        before = self.kernel_s[-1]
        res = work(*args)
        self.kernel_s.append(calibration.measure())
        res["scale"] = calibration.REFERENCE_S / ((before + self.kernel_s[-1]) / 2)
        res["scaled"] = res["wall"] * res["scale"]
        return res

    def setup(self):
        """SETUP_REPEATS set-up processes back to back, scaled together: each
        is too short to sit between two kernel runs of its own."""
        batch = self.timed(self._setups)
        for res in batch["results"]:
            res["scaled"] = res["wall"] * batch["scale"]
        return batch["results"]

    def _setups(self):
        results = []
        for _ in range(SETUP_REPEATS):
            res = self.child("setup", self.session, str(self.workload.seed))
            if res["code"] != 0:
                raise RuntimeError("session set-up failed:\n" + res["stderr"])
            results.append(res)
        return {"results": results, "wall": sum(r["wall"] for r in results)}

    def run(self, trace=False):
        self.runs += 1
        report = os.path.join(self.work, f"report{self.runs}.json")
        timings = os.path.join(self.work, f"timings{self.runs}.json")
        args = ["run", self.session, str(self.workload.seed), report, timings]
        spans = os.path.join(self.work, f"spans-run{self.runs}.json")
        res = self.timed(self.child, *args, *([spans] if trace else []))
        entries = load_entries(report)
        try:
            with open(timings, "r", encoding="utf-8") as fh:
                timing_data = json.load(fh)
        except (OSError, json.JSONDecodeError):
            timing_data = None
        reasons, digests = judge_run(self.workload, entries, timing_data)
        if res["code"] != expected_exit(self.workload):
            reasons = [r or f"exit code {res['code']}" for r in reasons]
        self.ledger.add_run(reasons, digests)
        if timing_data and not timing_data["error"]:
            self.latencies.extend(t * res["scale"] for t in timing_data["latency_s"])
        res["rss_mb"] = timing_data["peak_rss_kb"] / 1024.0 if timing_data else None
        res.update(report=report, entries=entries, spans=spans)
        return res

    def verify(self, run_res, trace=False):
        spans = os.path.join(self.work, f"spans-verify{self.runs}.json")
        res = self.timed(self.child, "verify", run_res["report"],
                         *([spans] if trace else []))
        if run_res["entries"] is not None:
            self.ledger.add_verify(verify_verdicts(run_res["entries"], res["stdout"]))
        res["spans"] = spans
        return res


def measure(bench, seconds):
    """Alternate run and verify processes until `seconds` is spent; start a
    process only when its last duration still fits. At least one of each."""
    runs, verifies = [], []
    est = {}
    start = time.perf_counter()
    last_run = None
    while True:
        kind = "run" if last_run is None or len(verifies) == len(runs) else "verify"
        elapsed = time.perf_counter() - start
        if runs and verifies and elapsed + est[kind] > seconds:
            break
        if kind == "run":
            last_run = bench.run()
            runs.append(last_run)
            est["run"] = last_run["wall"] + bench.kernel_s[-1]
        else:
            verifies.append(bench.verify(last_run))
            est["verify"] = verifies[-1]["wall"] + bench.kernel_s[-1]
    return runs, verifies


def quantile(values, q):
    """Linear-interpolated quantile of the sorted values (q in [0, 1])."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(bench, seconds):
    setup = bench.setup()
    runs, verifies = measure(bench, seconds)
    lat = bench.latencies or [0.0]

    def median(key, results):
        return statistics.median(r[key] for r in results)

    metrics = {
        "setup_s": median("scaled", setup),
        "run_s": median("scaled", runs),
        "verify_s": median("scaled", verifies),
        "cmd_p50_s": quantile(lat, 0.5),
        "cmd_p90_s": quantile(lat, 0.9),
        "peak_rss_mb": statistics.median(
            [r["rss_mb"] for r in runs if r["rss_mb"] is not None] or [0.0]),
    }
    notes = [f"set-up processes: {len(setup)}; run processes: {len(runs)}; "
             f"verify processes: {len(verifies)}; command latency samples: "
             f"{len(bench.latencies)}",
             f"times are in reference-speed seconds (calibration kernel median "
             f"{statistics.median(bench.kernel_s):.4f} s over {len(bench.kernel_s)} "
             f"runs, reference {calibration.REFERENCE_S} s); raw wall medians: "
             f"set-up {median('wall', setup):.4f} s, run {median('wall', runs):.4f} s, "
             f"verify {median('wall', verifies):.4f} s"]
    notes += [f"  {name:44s} {metrics[name]:.6g} {unit} (not declared)"
              for name, unit in PRINTED_ONLY]
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}, notes


def per_layer(bench):
    plain = bench.run()
    traced = bench.run(trace=True)
    checked = bench.verify(traced, trace=True)
    span_sets, count_sets = [], []
    for path in (traced["spans"], checked["spans"]):
        if not os.path.exists(path):
            raise RuntimeError("traced process wrote no spans:\n" + traced["stderr"]
                               + checked["stderr"])
        spans, counts = tracing.load(path)
        span_sets.append(spans)
        count_sets.append(counts)
    summary = tracing.summarize(span_sets, count_sets,
                                [traced["scale"], checked["scale"]])
    values = {}
    for fn, figs in PER_FUNCTION:
        for fig in figs:
            values[f"{fn}.{fig}"] = summary.get(fn, {}).get(fig, 0)
    for layer in tracing.LAYER_NAMES:
        for fig in ("calls", "self_s"):
            values[f"{layer}.{fig}"] = summary[layer][fig]
    values["trace.untraced_run_s"] = plain["scaled"]
    values["trace.run_s"] = traced["scaled"]
    values["trace.overhead_s"] = traced["scaled"] - plain["scaled"]
    values["trace.verify_s"] = checked["scaled"]
    metrics = {name: {"value": values[name], "unit": unit_of(name)}
               for name in per_layer_names()}
    notes = [f"spans: run {len(span_sets[0])}, verify {len(span_sets[1])}"]
    return metrics, notes


# -- main ------------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # a terminated benchmark still stops its child and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "equipure", "cli.py")):
        print("run from the repository root: src/equipure not found", file=sys.stderr)
        return 2
    try:
        workload = workloads.GENERATORS[args.workload](args.seed)
    except OSError as exc:
        print(f"cannot build workload {args.workload}: {exc}", file=sys.stderr)
        return 2

    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-",
                            dir=os.path.join(root, WORK_DIR))
    try:
        bench = Bench(root, work, workload)
        if args.trace:
            metrics, notes = per_layer(bench)
        else:
            metrics, notes = end_to_end(bench, args.seconds)
    except RuntimeError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ledger = bench.ledger
    failures = ledger.failures()
    attempted = ledger.attempted()
    same, compared = ledger.identical()
    print(f"workload {workload.name}, seed {workload.seed}, "
          f"{len(workload.expected)} commands per session")
    for note in notes:
        print(note)
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':44s} {len(failures) / attempted:.6g} fraction "
          f"({len(failures)} of {attempted} attempted commands)")
    if compared:
        print(f"  {'report_identical_frac':44s} {same / compared:.6g} fraction "
              f"({same} of {compared} report entries)")
    else:
        print(f"  {'report_identical_frac':44s} n/a (no reference recorded "
              f"for this seed; see perfbench/record.py)")
    for command, reason in failures[:20]:
        print(f"FAILED {command}: {reason}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
