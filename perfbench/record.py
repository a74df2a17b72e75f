"""Record the reference report digests that report_identical_frac compares to.

    python3 perfbench/record.py --seeds 0-31 [--workload corpus ...]

Run it from the repository root at the commit whose reports are the
reference. For every workload and seed it runs and verifies the session
once, refuses to record a run that fails any check, and stores in
perfbench/reference.json the md5 of the whole report file and of each
report entry's canonical bytes. Existing entries for other seeds are kept.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

import run as bench_run
import workloads


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def commit(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, check=True,
                             capture_output=True, text=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def record_one(root, name, seed):
    work = tempfile.mkdtemp(prefix=f"record-{name}-{seed}-",
                            dir=os.path.join(root, bench_run.WORK_DIR))
    try:
        bench = bench_run.Bench(root, work, workloads.GENERATORS[name](seed))
        res = bench.run()
        bench.verify(res)
        failures = bench.ledger.failures()
        if failures:
            raise RuntimeError(f"{name} seed {seed}: {failures[:3]}")
        with open(res["report"], "rb") as fh:
            file_md5 = hashlib.md5(fh.read()).hexdigest()
        return file_md5, [bench_run.entry_digest(e) for e in res["entries"]]
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="a seed or a range lo-hi")
    parser.add_argument("--workload", action="append",
                        choices=sorted(workloads.GENERATORS))
    args = parser.parse_args(argv)
    root = os.getcwd()
    os.makedirs(os.path.join(root, bench_run.WORK_DIR), exist_ok=True)
    try:
        with open(bench_run.REFERENCE, "r", encoding="utf-8") as fh:
            table = json.load(fh)
    except FileNotFoundError:
        table = {"commit": None, "files": {}, "digests": {}}
    head = commit(root)
    if table["commit"] not in (None, head):
        print(f"reference was recorded at {table['commit']}, HEAD is {head}",
              file=sys.stderr)
        return 2
    table["commit"] = head
    for name in args.workload or sorted(workloads.GENERATORS):
        for seed in parse_seeds(args.seeds):
            file_md5, digests = record_one(root, name, seed)
            table["files"].setdefault(name, {})[str(seed)] = file_md5
            table["digests"].setdefault(name, {})[str(seed)] = digests
            print(f"{name} seed {seed}: {file_md5}", flush=True)
            with open(bench_run.REFERENCE, "w", encoding="utf-8") as fh:
                json.dump(table, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
