"""Tests of the benchmark itself (not timed):

    python3 -m pytest perfbench/tests -q

from the repository root.
"""

import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run as bench_run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, self_times, summarize  # noqa: E402


# -- generators ------------------------------------------------------------------


@pytest.mark.parametrize("name", ["ideal-gb", "fibers"])
def test_generators_are_pure_functions_of_the_seed(name):
    gen = workloads.GENERATORS[name]
    assert gen(7).text == gen(7).text
    assert gen(7).expected == gen(7).expected
    assert gen(7).text != gen(8).text
    assert [c for c, _, _ in gen(7).expected] == [c for c, _, _ in gen(8).expected]


@pytest.mark.parametrize("name", ["ideal-gb", "fibers"])
def test_session_text_does_not_depend_on_hash_seed(name):
    code = ("import sys, hashlib; sys.path.insert(0, sys.argv[1]); import workloads; "
            f"print(hashlib.md5(workloads.GENERATORS[{name!r}](3).text.encode())"
            ".hexdigest())")
    digests = set()
    for hash_seed in ("0", "1", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run([sys.executable, "-c", code, BENCH], env=env,
                             capture_output=True, text=True, check=True)
        digests.add(out.stdout.strip())
    assert len(digests) == 1


@pytest.mark.parametrize("name", ["ideal-gb", "fibers"])
def test_expected_table_lists_every_command_in_order(name):
    wl = workloads.GENERATORS[name](1)
    commands = [s.strip() for s in re.findall(r"^(?:gb|dim|factorize|equidim-check|"
                                              r"fiber-dim) [^;]*;", wl.text, re.M)]
    assert commands == [f"{c};" for c, _, _ in wl.expected]


def test_corpus_table_matches_session_commands():
    wl = workloads.corpus(1, root=ROOT)
    from equipure.session import _statements

    heads = ("field", "ring", "ideal", "point", "morphism")
    commands = [s for _, s in _statements(wl.text) if s.split()[0] not in heads]
    assert commands == [c for c, _, _ in wl.expected]


def test_ideal_gb_expected_table_against_sympy():
    sympy = pytest.importorskip("sympy")
    wl = workloads.ideal_gb(1)
    expected = {c: v for c, v, _ in wl.expected}
    for name, field, (nvars, _), _, _ in workloads.IDEAL_GB_SYSTEMS:
        body = re.search(r"ideal %s = \((.*?)\) in" % name, wl.text, re.S).group(1)
        gens = [sympy.sympify(g.replace("^", "**")) for g in body.split(",\n")]
        xs = sympy.symbols(f"x0:{nvars}")
        options = {"modulus": 32003} if field == "F32003" else {}
        basis = sympy.groebner(gens, *xs, order="grevlex", **options)
        assert expected[f"gb {name}"] == f"basis-size-{len(basis.exprs)}"
        assert basis.is_zero_dimensional == (expected[f"dim {name}"] == "0")


# -- span arithmetic -----------------------------------------------------------------


def _tree():
    # 0: [0, 100]; children 1: [10, 30] and 2: [40, 90]; 3: [50, 60] under 2
    return [Span("groebner.buchberger", 0, -1, 0, 100),
            Span("groebner.normal_form", 0, 0, 10, 30),
            Span("groebner.normal_form", 0, 0, 40, 90),
            Span("orders.exp_lcm", 0, 2, 50, 60)]


def test_self_time_subtracts_child_intervals():
    assert self_times(_tree()) == [100 - 20 - 50, 20, 50 - 10, 10]


def test_self_time_counts_overlapping_and_overhanging_children_once():
    spans = [Span("a.f", 0, -1, 0, 100),
             Span("a.g", 0, 0, 10, 50), Span("a.h", 0, 0, 30, 70),
             Span("a.k", 0, 0, 90, 130)]
    assert self_times(spans)[0] == 100 - 60 - 10


def test_summary_ratios():
    spans = [
        Span("ideals.IdealHandle.groebner", 0, -1, 0, 10),
        Span("groebner.buchberger", 0, 0, 1, 9, key="k1"),
        Span("ideals.IdealHandle.groebner", 0, -1, 20, 21),
        Span("groebner.buchberger", 1, -1, 30, 40, key="k1"),
        Span("parametric.param_buchberger", 1, -1, 40, 50, outcome="BranchSignal"),
        Span("parametric.param_buchberger", 1, -1, 50, 60),
    ]
    out = summarize([spans], [{"orders.key": 5}])
    assert out["ideals.IdealHandle.groebner"]["hit_frac"] == 0.5
    assert out["groebner.buchberger"]["unique_frac"] == 0.5
    assert out["groebner.buchberger"]["calls"] == 2
    assert out["schemes.finite_locus_strata"]["branch_frac"] == 0.5
    assert out["orders.key"]["calls"] == 5
    assert out["arith"]["calls"] == 5
    assert out["groebner"]["self_s"] == pytest.approx(18e-9)
    assert out["ideals"]["self_s"] == pytest.approx(3e-9)


# -- tracer bindings --------------------------------------------------------------------


def _equipure_modules():
    return {name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "equipure" or name.startswith("equipure."))}


def _snapshot():
    import importlib

    for name in tracing.LAYERS:     # every module the tracer patches
        importlib.import_module(f"equipure.{name}")
    from equipure.ideals import IdealHandle
    from equipure.orders import MonomialOrder

    snap = {}
    for name, mod in _equipure_modules().items():
        for attr, obj in vars(mod).items():
            if callable(obj):
                snap[(name, attr)] = obj
    for cls in (IdealHandle, MonomialOrder):
        for attr, obj in vars(cls).items():
            snap[(cls.__name__, attr)] = obj
    return snap


def test_tracer_patches_every_binding_site_and_restores_them():
    import equipure.groebner as groebner
    import equipure.ideals as ideals
    import equipure.reports as reports
    from equipure.orders import MonomialOrder

    before = _snapshot()
    original = groebner.buchberger
    tracer = Tracer().install()
    try:
        assert groebner.buchberger is not original
        assert ideals.buchberger is groebner.buchberger
        assert reports.normal_form is groebner.normal_form
        assert groebner.buchberger.__traced__ is original
        assert MonomialOrder.key.__traced__ is not None
    finally:
        tracer.uninstall()
    assert _snapshot() == before
    assert not any(hasattr(obj, "__traced__") for obj in before.values())


def test_traced_calls_record_nested_spans_and_counts():
    from equipure.fields import QQ
    from equipure.ideals import IdealHandle
    from equipure.poly import PolynomialRing, parse_poly

    ring = PolynomialRing(QQ, ["x", "y"])
    handle = IdealHandle(ring, [parse_poly(ring, "x^2 - y"), parse_poly(ring, "x*y - 1")])
    tracer = Tracer().install()
    try:
        tracer.request = 4
        handle.groebner()
        handle.groebner()
    finally:
        tracer.uninstall()
    names = [s.name for s in tracer.spans]
    assert names.count("ideals.IdealHandle.groebner") == 2
    bb = names.index("groebner.buchberger")
    assert tracer.spans[tracer.spans[bb].parent].name == "ideals.IdealHandle.groebner"
    assert all(s.request == 4 and s.end >= s.start for s in tracer.spans)
    assert tracer.counts["orders.key"] > 0
    summary = summarize([tracer.spans], [tracer.counts])
    assert summary["ideals.IdealHandle.groebner"]["hit_frac"] == 0.5


def test_per_layer_names_are_valid_and_unique():
    names = bench_run.per_layer_names()
    assert len(names) == len(set(names)) <= 128
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert {f"{layer}.self_s" for layer in tracing.LAYER_NAMES} <= set(names)


# -- output checks -------------------------------------------------------------------


def test_judge_run_flags_wrong_verdicts_and_uncaught_exceptions():
    wl = workloads.fibers(1)
    entries = [{"command": c, "verdict": v, "exit_class": str(e)} for c, v, e in wl.expected]
    n = len(entries)
    reasons, digests = bench_run.judge_run(wl, entries, {"latency_s": [0.1] * n,
                                                         "error": None})
    assert reasons == [None] * n and None not in digests
    entries[1] = dict(entries[1], verdict="something-else")
    reasons, _ = bench_run.judge_run(wl, entries, {"latency_s": [0.1] * n, "error": None})
    assert [i for i, r in enumerate(reasons) if r] == [1]
    reasons, _ = bench_run.judge_run(wl, None, {"latency_s": [0.1] * 3,
                                                "error": "BranchSignal: x"})
    assert reasons[2].startswith("uncaught BranchSignal") and all(reasons)


def test_verify_output_maps_to_certificate_entries():
    entries = [{"command": "a", "certificate": {"kind": "x"}},
               {"command": "b", "certificate": None},
               {"command": "c", "certificate": {"kind": "y"}}]
    got = bench_run.verify_verdicts(entries, "[ok] a: fine\n[FAIL] c: broken\n")
    digest = bench_run.entry_digest
    assert got == {digest(entries[0]): True, digest(entries[1]): True,
                   digest(entries[2]): False}


def test_benchmark_json_declares_exactly_the_reported_metrics():
    import json

    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        declared = json.load(fh)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == bench_run.END_TO_END
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == [
        (name, bench_run.unit_of(name)) for name in bench_run.per_layer_names()]
    assert {w["name"] for w in declared["workloads"]} <= set(workloads.GENERATORS)
