"""Command-line front end: run session files, verify emitted certificates.

Exit codes: 0 all verdicts positive, 1 some verdict refuted, 2 error,
3 inconclusive. `run --json` writes the canonical report list; `verify`
replays the producer of every certificate in a report file, diffs the whole
payload and names the first differing path, and runs the identity checks
that hold of the recorded outputs, naming any that fails. A reader that
closes stdout early ends the output, not the command.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .reports import (
    DEFAULT_FROBENIUS_BOUND,
    EXIT_ERROR,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_REFUTED,
    canonical_json,
    verify_certificate,
)
from .schemes import DEFAULT_SPLIT_BUDGET

_SEVERITY = {EXIT_OK: 0, EXIT_INCONCLUSIVE: 1, EXIT_REFUTED: 2, EXIT_ERROR: 3}


def aggregate_exit(codes) -> int:
    worst = EXIT_OK
    for c in codes:
        if _SEVERITY[c] > _SEVERITY[worst]:
            worst = c
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="equipure",
        description="exact checks for equidimensionality, purity, splinters "
                    "and char-p descent, with verifiable certificates")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="mode", required=True)

    runp = sub.add_parser("run", help="execute a session file")
    runp.add_argument("session", help="path to the session file")
    runp.add_argument("--seed", type=int, default=0, help="deterministic seed")
    runp.add_argument("--budget", type=int, default=DEFAULT_SPLIT_BUDGET,
                      help="recursion budget for component splitting")
    runp.add_argument("--frobenius-bound", type=int, default=DEFAULT_FROBENIUS_BOUND,
                      help="Frobenius evidence bound E")
    runp.add_argument("--json", dest="json_path", default=None,
                      help="write the canonical report list to this path")

    verp = sub.add_parser("verify", help="re-check an emitted report file")
    verp.add_argument("report", help="path to a report or report-list JSON file")

    args = parser.parse_args(argv)
    if args.mode == "run":
        return _run(args)
    return _verify(args)


def _run(args) -> int:
    # only `run` parses sessions: `verify` never compiles the session layer
    from .session import SessionError, parse_session, run_session

    try:
        with open(args.session, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read session: {exc}", file=sys.stderr)
        return EXIT_ERROR
    options = {
        "seed": args.seed,
        "budget": args.budget,
        "frobenius_bound": args.frobenius_bound,
    }
    try:
        session = parse_session(text, options)
    except SessionError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    reports = run_session(session)
    for rep in reports:
        _say(f"[{_tag(rep.exit_class)}] {rep.command}  ->  {rep.verdict}")
    if args.json_path:
        payload = [rep.to_obj() for rep in reports]
        try:
            with open(args.json_path, "w", encoding="utf-8") as fh:
                fh.write(canonical_json(payload))
        except OSError as exc:
            print(f"cannot write reports: {exc}", file=sys.stderr)
            return EXIT_ERROR
        _say(f"wrote {len(reports)} report(s) to {args.json_path}")
    return aggregate_exit(rep.exit_class for rep in reports) if reports else EXIT_OK


def _say(line: str):
    """Print a line to stdout. A reader that has closed stdout ends the
    output, not the command: the rest of the output goes to the null
    device, and the exit code is still the one the reports give."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)


def _tag(exit_class: int) -> str:
    return {EXIT_OK: "ok", EXIT_REFUTED: "refuted", EXIT_ERROR: "error",
            EXIT_INCONCLUSIVE: "inconclusive"}[exit_class]


def _verify(args) -> int:
    try:
        with open(args.report, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"cannot read report: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if not isinstance(data, list):
        data = [data]
    bad = next((i for i, entry in enumerate(data)
                if not isinstance(entry, dict)
                or not isinstance(entry.get("certificate"), (dict, type(None)))), None)
    if bad is not None:
        print(f"cannot read report: entry {bad} is not a report or certificate object",
              file=sys.stderr)
        return EXIT_ERROR
    worst = EXIT_OK
    checked = 0
    for entry in data:
        cert = entry.get("certificate") if "certificate" in entry else entry
        if cert is None or "kind" not in cert:
            continue
        checked += 1
        ok, failures = verify_certificate(cert)
        label = entry.get("command", cert.get("kind"))
        if ok:
            _say(f"[ok] {label}: certificate re-verified")
        else:
            worst = EXIT_REFUTED
            _say(f"[FAIL] {label}: {', '.join(failures)}")
    if checked == 0:
        print("no verifiable certificates found", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
