"""Which modules a parse, a `run` or a `verify` process loads. Parsing a
session loads the scheme layer and below only: `session.COMMANDS` holds
each command's grammar, and `run_command` looks its producer up in
`reports.PRODUCERS`, which names it by module and function, when the
command runs. The report code of the purity family lives in `purity` and
that of the char-p family in `charp`, which `reports` imports only when a
command of the family runs or a kind it writes is replayed, and `reports`
imports `factorization` only in the producers that use it. So the fiber
and equidimensionality commands, and their replays, never compile
`charp`, `purity` or `modules` (nor any purity or char-p report code), a
`gb` session compiles none of the four, and `verify` never compiles
`session`. Neither mode, nor parsing, imports `argparse`, `fractions`,
`decimal` or `numbers` (the rationals are `fields`' own), and neither mode
compiles a regular expression from the package's own code. Each check
runs in a fresh interpreter with `src` on PYTHONPATH; a check of
everything one run loads pins it to one usable CPU, since a forked
worker's imports stay in the worker. Whether forked or not, a `run`
freezes the heap before its command phase."""

import importlib
import inspect
import json
import os
import subprocess
import sys

import pytest

from equipure import reports
from equipure.session import COMMANDS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CORPUS = os.path.join(ROOT, "tests", "data", "corpus.eqp")

FIBER_SESSION = """
ring T = Q[t,s];
point eta = generic(T);
ring P = Q[t,s,x,y];
morphism p : T -> P = [t -> t + x*y, s -> s*x + y];
point g = fiber-point(p, eta, 0);
ring U = Q[u,v];
ring C = Q[u,x,z];
morphism c : U -> C = [u -> u, v -> u*x + z^3];
point co = closed(C : 0, 0, 0);
point cp = closed(C : 1, 1, 9);
factorize p at eta from g;
equidim-check c at co probes (cp);
fiber-dim c at co;
"""

COMMAND_MODULES = {"equipure.charp", "equipure.purity", "equipure.modules"}
# the command layer, which parsing a session never compiles
COMMAND_LAYER = COMMAND_MODULES | {"equipure.reports", "equipure.factorization",
                                   "equipure.cli"}
# standard-library modules no parse, `run` or `verify` process imports
UNLOADED = ("argparse", "decimal", "fractions", "numbers")


def _fresh(code):
    """Run `code` in a fresh interpreter; the last line of its stdout."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip().splitlines()[-1]


# records each pattern `re` compiles whose nearest caller outside `re` is
# a file under src/equipure; installed before anything imports equipure
COMPILE_GUARD = f"""
import json, os, re, sys
RE_DIR = os.path.dirname(re.__file__)
compiled = []
inner = re._compiler.compile

def compile(pattern, flags=0):
    frame = sys._getframe(1)
    while frame.f_code.co_filename.startswith(RE_DIR):
        frame = frame.f_back
    if frame.f_code.co_filename.startswith({os.path.join(SRC, "equipure")!r}):
        compiled.append(f"{{frame.f_code.co_filename}}:{{frame.f_lineno}}: {{pattern}}")
    return inner(pattern, flags)

re._compiler.compile = compile
"""


def _cli(*argv, one_cpu=False):
    """(exit code, the equipure modules loaded, the modules of UNLOADED
    that were imported, the patterns compiled from equipure code) of
    `equipure.cli.main(argv)` in a fresh interpreter; with `one_cpu`, the
    interpreter runs on one usable CPU, so that one process runs every
    command."""
    code = (COMPILE_GUARD
            + ("os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n" if one_cpu else "")
            + "from equipure.cli import main\n"
            f"code = main({list(argv)!r})\n"
            "print(json.dumps([code, sorted(m for m in sys.modules"
            f" if m.startswith('equipure')), [m for m in {UNLOADED!r} if m in sys.modules],"
            " compiled]))")
    exit_code, modules, unloaded, compiled = json.loads(_fresh(code))
    return exit_code, set(modules), unloaded, compiled


@pytest.mark.parametrize("source", ["corpus", "fibers"])
def test_parsing_a_session_loads_only_the_scheme_layer_and_below(source):
    if source == "corpus":
        with open(CORPUS, encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = FIBER_SESSION
    loaded = set(json.loads(_fresh(
        "import json, sys\n"
        "from equipure.session import parse_session\n"
        f"session = parse_session({text!r}, {{'seed': 1}})\n"
        "assert session.commands and session.points\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('equipure')"
        f" or m in {UNLOADED!r})))")))
    assert "equipure.schemes" in loaded
    assert not loaded & (COMMAND_LAYER | set(UNLOADED))


def test_every_command_names_a_public_producer_of_reports():
    """Each command head names, in `reports.PRODUCERS`, a public function
    of the module it names; each replayed kind's decoder and check are
    functions of the module of its head's producer."""
    assert sorted(reports.PRODUCERS) == sorted(COMMANDS)
    for head, (module_name, name) in reports.PRODUCERS.items():
        module = importlib.import_module(f"equipure.{module_name}")
        producer = getattr(module, name, None)
        assert not name.startswith("_"), head
        assert inspect.isfunction(producer) and producer.__module__ == module.__name__, head
        assert reports.producer(head) is producer, head
    for kind, (head, *named) in reports._REPLAY.items():
        module = importlib.import_module(f"equipure.{reports.PRODUCERS[head][0]}")
        for name in named:
            assert name is None or inspect.isfunction(getattr(module, name, None)), (kind, name)


# the report code of the purity and char-p families: no module a fibers
# `verify` loads may define any of it
FAMILY_CODE = {
    "produce_split", "produce_pure_at", "produce_splinter", "produce_strong_purity",
    "split_certificate_obj", "_split_inputs", "_pure_at_inputs", "_splinter_inputs",
    "_strong_purity_inputs", "_sigma_identities", "_witness_identities", "produce_fedder",
    "produce_tc", "produce_f_rational", "produce_descent", "tc_certificate_obj",
    "_fedder_inputs", "_tc_inputs", "_f_rational_inputs", "_descent_inputs", "_tc_recheck",
    "TEST_ELEMENT_NOTE",
}


def test_a_fibers_verify_compiles_no_purity_or_charp_report_code(tmp_path):
    from test_session_grammar import _workloads

    session = tmp_path / "fibers.eqp"
    session.write_text(_workloads().fibers(1).text, encoding="utf-8")
    report = tmp_path / "fibers.json"
    assert _cli("run", str(session), "--seed", "1", "--json", str(report))[0] == 1
    code = ("import json, sys\n"
            "from equipure.cli import main\n"
            f"code = main({['verify', str(report)]!r})\n"
            "print(json.dumps([code, {m: sorted(vars(sys.modules[m])) for m in sys.modules"
            " if m.startswith('equipure')}]))")
    exit_code, names = json.loads(_fresh(code))
    assert exit_code == 0 and "equipure.factorization" in names
    assert {m: sorted(FAMILY_CODE & set(v)) for m, v in names.items()
            if FAMILY_CODE & set(v)} == {}


def test_fiber_commands_load_no_purity_charp_or_session_modules(tmp_path):
    session = tmp_path / "fibers.eqp"
    session.write_text(FIBER_SESSION, encoding="utf-8")
    report = tmp_path / "fibers.json"
    code, loaded, unloaded, _ = _cli("run", str(session), "--json", str(report))
    assert code in (0, 1) and unloaded == []
    assert "equipure.session" in loaded
    assert not loaded & COMMAND_MODULES
    code, loaded, unloaded, _ = _cli("verify", str(report))
    assert code == 0 and unloaded == []
    assert "equipure.reports" in loaded
    assert not loaded & (COMMAND_MODULES | {"equipure.session"})


def test_a_groebner_session_and_its_verify_load_no_factorization(tmp_path):
    session = tmp_path / "gb.eqp"
    session.write_text("ring R = Q[x,y];\nideal I = (x^2 - y, x*y) in R;\ngb I;\ndim I;\n",
                       encoding="utf-8")
    report = tmp_path / "gb.json"
    for argv in (("run", str(session), "--json", str(report)), ("verify", str(report))):
        code, loaded, _, _ = _cli(*argv)
        assert code == 0 and "equipure.reports" in loaded
        assert not loaded & (COMMAND_MODULES | {"equipure.factorization"})


@pytest.fixture(scope="module")
def corpus_processes(tmp_path_factory):
    """`_cli` of a corpus `run --seed 1` and of the `verify` of its report,
    each in one process on one CPU."""
    report = tmp_path_factory.mktemp("corpus") / "corpus.json"
    return (_cli("run", CORPUS, "--seed", "1", "--json", str(report), one_cpu=True),
            _cli("verify", str(report), one_cpu=True))


def test_a_corpus_session_loads_what_it_needs_and_verifies(corpus_processes):
    (_, loaded, _, _), (code, verify_loaded, _, _) = corpus_processes
    assert loaded >= COMMAND_MODULES | {"equipure.session"}
    assert code == 0
    assert verify_loaded >= COMMAND_MODULES
    assert "equipure.session" not in verify_loaded


def test_a_corpus_run_and_verify_import_no_argparse_and_compile_no_regex(corpus_processes):
    run, verify = corpus_processes
    assert run[0] == 1 and (run[2], run[3]) == ([], [])
    assert verify[0] == 0 and (verify[2], verify[3]) == ([], [])


@pytest.mark.parametrize("module", ["cli", "session", "reports", "charp", "purity"])
def test_each_module_imports_on_its_own(module):
    assert _fresh(f"import equipure.{module}; print('ok')") == "ok"


@pytest.mark.parametrize("one_cpu", [True, False])
def test_a_run_freezes_the_heap_with_one_cpu_or_all(tmp_path, one_cpu):
    report = tmp_path / "corpus.json"
    code = ("import gc, os\n"
            + ("os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n" if one_cpu else "")
            + "from equipure.cli import main\n"
            f"main({['run', CORPUS, '--seed', '1', '--json', str(report)]!r})\n"
            "print(gc.get_freeze_count())")
    assert int(_fresh(code)) > 0
