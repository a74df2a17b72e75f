"""Command-line front end: run session files, verify emitted certificates.

Exit codes: 0 all verdicts positive, 1 some verdict refuted, 2 error,
3 inconclusive. `run --json` writes the canonical report list; `verify`
replays the producer of every certificate in a report file, diffs the whole
payload and names the first differing path, checks a report entry's
verdict, exit class and assumptions against the replay's, its seed against
the certificate's and its command head against the certificate's kind, and
runs the identity checks that hold of the recorded outputs, naming any
that fails. A certificate of no known kind fails. A reader that
closes stdout early ends the output, not the command.

`run` and `verify` fork one worker per usable CPU but one. Commands that
name one first object (`p3` in `factorize p3 at eta from g`) form a group,
which one process works through with one memo; each process takes the next
group from a token, the next group's index, that a pipe passes among them.
Each process renders the reports of the commands it ran: a `run` command's
result is its exit class, its status line and, with `--json`, its entry's
canonical JSON text. Workers send their results back with `marshal` and
never print; the parent prints the lines and writes the texts in session
order, joined by commas inside brackets, which is the canonical JSON of the
list, so it never holds a report as objects. With one CPU or one group, or
without `os.fork`, nothing is forked and the parent runs every command
itself, in session order. A worker whose parent has died stops after its
current group. Each process of a split binds itself to one usable CPU of
its own, the parent to the first, so the split does not wait on a kernel
that never moves a worker off its parent's CPU; a pin the kernel refuses is
ignored, and the caller's CPU mask is restored when the split ends. Before the
command phase, forked or not, the heap is frozen (`gc.freeze`): the
modules, the parsed session or read report and the memo live until exit,
and frozen they are neither scanned by the collector nor torn down at exit.
A caller of `main` in its own process keeps the objects frozen, so
`gc.get_freeze_count()` grows with each call.

The command line is read against one table of the two modes and their
options, `_MODES`:

    equipure run SESSION [--seed N] [--budget N] [--frobenius-bound E] [--json PATH]
    equipure verify REPORT

An option takes its value from the next argument or after '='
(`--seed 1`, `--seed=1`), options may come before or after the positional
argument, and `--` ends the options. Options are spelled in full. `-h` or
`--help`, at the top or after a mode, and `--version` print to stdout and
exit 0. Any other command line the table does not accept, such as a
missing mode, an unknown option, a missing or non-integer value or a
negative `--budget`, exits 2 with one line on stderr that names the fault
and gives the usage. `--budget` bounds only the component search behind
`generic(...)` point declarations; every cover a command computes runs at
its default, `schemes.DEFAULT_SPLIT_BUDGET`.
"""

from __future__ import annotations

import gc
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


_DESCRIPTION = ("exact checks for equidimensionality, purity, splinters "
                "and char-p descent, with verifiable certificates")


def _count(text):
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


# what an option's value must be -> its reader, which raises ValueError
_READERS = {"an integer": int, "a non-negative integer": _count, "a path": str}

# mode -> (help, positional argument, its help,
#          {option: (metavar, kind of value, default, help)})
_MODES = {
    "run": ("execute a session file", "session", "path to the session file", {
        "--seed": ("N", "an integer", 0, "deterministic seed"),
        "--budget": ("N", "a non-negative integer", DEFAULT_SPLIT_BUDGET,
                     "component-splitting step budget of generic(...) point declarations"),
        "--frobenius-bound": ("E", "an integer", DEFAULT_FROBENIUS_BOUND,
                              "Frobenius evidence bound E"),
        "--json": ("PATH", "a path", None, "write the canonical report list to this path"),
    }),
    "verify": ("re-check an emitted report file", "report",
               "path to a report or report-list JSON file", {}),
}

_USAGE = "usage: equipure [-h] [--version] {run,verify} ..."
_HELP_ROW = ("-h, --help", "show this help and exit")


class _UsageError(Exception):
    """A command line the table does not accept: (usage, message)."""


def _help(usage, about, rows):
    return "\n".join([usage, "", about, ""] + [f"  {left:<24}{right}" for left, right in rows])


def _is_option(arg):
    """An argument that names an option: it starts with '-' and is neither
    '-' nor a negative number."""
    return arg.startswith("-") and arg != "-" and not arg[1:].isdecimal()


def _read_argv(argv):
    """(mode, {option or positional argument: value}) of a command line,
    or (None, text to print) when it asks for help or the version."""
    if argv[:1] in (["-h"], ["--help"]):
        return None, _help(_USAGE, _DESCRIPTION, [
            (mode, spec[0]) for mode, spec in _MODES.items()]
            + [_HELP_ROW, ("--version", "print the version and exit")])
    if argv[:1] == ["--version"]:
        return None, __version__
    if not argv or argv[0] not in _MODES:
        what = ("a command is required" if not argv
                else f"unknown option {argv[0]!r}" if _is_option(argv[0])
                else f"unknown command {argv[0]!r}")
        raise _UsageError(_USAGE, f"{what} (run or verify)")
    mode, rest = argv[0], argv[1:]
    about, positional, positional_help, options = _MODES[mode]
    usage = " ".join([f"usage: equipure {mode} [-h]"]
                     + [f"[{opt} {spec[0]}]" for opt, spec in options.items()] + [positional])
    args = {opt: spec[2] for opt, spec in options.items()}
    values, i = [], 0
    while i < len(rest):
        arg = rest[i]
        i += 1
        if arg in ("-h", "--help"):
            return None, _help(usage, about, [(positional, positional_help), _HELP_ROW] + [
                (f"{opt} {meta}", text if default is None else f"{text} (default: {default})")
                for opt, (meta, _, default, text) in options.items()])
        if arg == "--":
            values += rest[i:]
            break
        if not _is_option(arg):
            values.append(arg)
            continue
        opt, eq, value = arg.partition("=")
        if opt not in options:
            raise _UsageError(usage, f"unknown option {opt!r}")
        if not eq:
            if i == len(rest) or _is_option(rest[i]):
                raise _UsageError(usage, f"option {opt} needs a value")
            value = rest[i]
            i += 1
        kind = options[opt][1]
        try:
            args[opt] = _READERS[kind](value)
        except ValueError:
            raise _UsageError(usage, f"option {opt}: {value!r} is not {kind}") from None
    if len(values) != 1:
        raise _UsageError(usage, f"unexpected argument {values[1]!r}" if values
                          else f"the {positional} argument is required")
    args[positional] = values[0]
    return mode, args


def main(argv=None) -> int:
    try:
        mode, args = _read_argv(sys.argv[1:] if argv is None else list(argv))
    except _UsageError as exc:
        usage, message = exc.args
        print(f"equipure: error: {message}; {usage}", file=sys.stderr)
        return EXIT_ERROR
    if mode is None:
        _say(args)
        return EXIT_OK
    return _run(args) if mode == "run" else _verify(args)


def _run(args) -> int:
    # only `run` parses sessions: `verify` never compiles the session layer
    from . import session

    try:
        with open(args["session"], "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read session: {exc}", file=sys.stderr)
        return EXIT_ERROR
    options = {"seed": args["--seed"], "budget": args["--budget"],
               "frobenius_bound": args["--frobenius-bound"]}
    try:
        parsed = session.parse_session(text, options)
    except session.SessionError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    path = args["--json"]

    def report(i):
        # the entry is rendered here, in the process that ran the command
        entry = session.run_command(parsed, *parsed.commands[i])
        return (entry["exit_class"],
                f"[{_tag(entry['exit_class'])}] {entry['command']}  ->  {entry['verdict']}",
                canonical_json(entry) if path else None)

    results = _spread(report, [command for _, command in parsed.commands])
    for _, line, _ in results:
        _say(line)
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                # the canonical JSON of the list, entry by entry
                fh.write("[" + ",".join(text for _, _, text in results) + "]")
        except OSError as exc:
            print(f"cannot write reports: {exc}", file=sys.stderr)
            return EXIT_ERROR
        _say(f"wrote {len(results)} report(s) to {path}")
    return aggregate_exit(code for code, _, _ in results)


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
        with open(args["report"], "r", encoding="utf-8") as fh:
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
    entries = [entry for entry in data if entry.get("certificate", entry) is not None]
    labels = [entry.get("command", entry.get("certificate", entry).get("kind"))
              for entry in entries]
    if not entries:
        print("no verifiable certificates found", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    checks = _spread(lambda i: verify_certificate(entries[i]), labels)
    worst = EXIT_OK
    for label, (ok, failures) in zip(labels, checks):
        if ok:
            _say(f"[ok] {label}: certificate re-verified")
        else:
            worst = EXIT_REFUTED
            _say(f"[FAIL] {label}: {', '.join(failures)}")
    return worst


def _spread(work, labels):
    """`[work(i) for i in range(len(labels))]`, spread over the usable CPUs
    as the module docstring says; with one usable CPU or one group, or
    without `os.fork`, this process does it all, in index order."""
    groups = {}
    for i, label in enumerate(labels):
        words = str(label).split()
        groups.setdefault(words[1] if len(words) > 1 else i, []).append(i)
    groups = list(groups.values())
    # what is alive now (modules, the parsed session or read report, the
    # memo) lives until exit: keep the collector, and the exit, off it
    gc.freeze()
    mask = (os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity")
            else range(os.cpu_count() or 1))
    usable = sorted(mask)
    if min(len(usable), len(groups)) < 2 or not hasattr(os, "fork"):
        return [work(i) for i in range(len(labels))]
    import marshal

    parent = os.getpid()
    token_r, token_w = os.pipe()    # holds the index of the next group to claim
    os.write(token_w, (0).to_bytes(8, "little"))

    def claimed(worker):
        while not (worker and os.getppid() != parent):   # a worker stops when orphaned
            g = int.from_bytes(os.read(token_r, 8), "little")
            os.write(token_w, (g + 1).to_bytes(8, "little"))
            if g >= len(groups):
                return
            yield from groups[g]

    workers = {}        # pid -> its result pipe, until it is reaped
    try:
        for cpu in usable[1:len(groups)]:
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    for fh in workers.values():     # the earlier workers' result pipes
                        fh.close()
                    os.close(r)
                    _pin({cpu})
                    reply = []      # the (index, result) pairs, or the error
                    try:
                        for i in claimed(True):
                            reply.append((i, work(i)))
                    except Exception:
                        import traceback

                        reply = (f"{labels[i]!r} raised in worker process {os.getpid()}:\n"
                                 + traceback.format_exc())
                    with os.fdopen(w, "wb") as fh:
                        fh.write(marshal.dumps(reply))
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(w)
            workers[pid] = os.fdopen(r, "rb")
        _pin({usable[0]})
        pairs = [(i, work(i)) for i in claimed(False)]
        for pid in list(workers):
            sent = workers[pid].read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            workers.pop(pid).close()
            reply = marshal.loads(sent) if sent else (
                f"worker process {pid} exited with status {status} without sending its results")
            if isinstance(reply, str):
                raise RuntimeError(reply)
            pairs += reply
    finally:
        for pid, fh in workers.items():     # a worker is left here only when raising
            fh.close()
            os.kill(pid, 9)     # SIGKILL
            os.waitpid(pid, 0)
        os.close(token_r)
        os.close(token_w)
        _pin(mask)
    return [result for _, result in sorted(pairs, key=lambda pair: pair[0])]


def _pin(cpus):
    """Bind this process to `cpus`; where the kernel refuses, or cannot
    bind at all, the process stays as it was."""
    try:
        os.sched_setaffinity(0, cpus)
    except (AttributeError, OSError):
        pass


if __name__ == "__main__":
    raise SystemExit(main())
