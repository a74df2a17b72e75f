"""In-memory span tracer for the equipure package, installed from outside.

`Tracer.install()` wraps the public functions of every layer module and a
few public methods, at every binding site: the defining module and each
module that bound the same function with `from .x import f`. Patching only
the defining module would miss those calls. `Tracer.uninstall()` puts every
original back, so untraced runs execute unpatched code.

A span records name, request id (the session command index, -1 outside
commands), parent span, start and end in nanoseconds, how it ended, and an
input fingerprint for the functions whose repeat rate is measured. Spans
stay in memory until `dump()`. The per-term helpers (exponent-vector
operations, `MonomialOrder.key`, module vector operations) run up to
millions of times per session, so they are only counted: their time stays
in the self time of the span that called them.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import sys
import time

PACKAGE = "equipure"

# module -> layer
LAYERS = {
    "fields": "arith", "orders": "arith", "poly": "arith",
    "groebner": "groebner",
    "ideals": "ideals",
    "modules": "modules",
    "parametric": "parametric",
    "schemes": "schemes",
    "factorization": "factorization",
    "purity": "purity",
    "charp": "charp",
    "session": "frontend", "reports": "frontend", "cli": "frontend",
}
LAYER_NAMES = ["arith", "groebner", "ideals", "modules", "parametric", "schemes",
               "factorization", "purity", "charp", "frontend"]

# public methods traced like functions: (module, class, method)
SPAN_METHODS = [("ideals", "IdealHandle", "groebner"),
                ("ideals", "IdealHandle", "contains")]

# counted only: metric name -> (module, class or None, attribute)
COUNTED = {
    "orders.key": ("orders", "MonomialOrder", "key"),
    "orders.exp_mul": ("orders", None, "exp_mul"),
    "orders.exp_divides": ("orders", None, "exp_divides"),
    "orders.exp_div": ("orders", None, "exp_div"),
    "orders.exp_lcm": ("orders", None, "exp_lcm"),
    "orders.exp_coprime": ("orders", None, "exp_coprime"),
    "modules.vec_zero": ("modules", None, "vec_zero"),
    "modules.vec_is_zero": ("modules", None, "vec_is_zero"),
    "modules.vec_add": ("modules", None, "vec_add"),
    "modules.vec_sub": ("modules", None, "vec_sub"),
    "modules.vec_term_mul": ("modules", None, "vec_term_mul"),
    "modules.vec_scale": ("modules", None, "vec_scale"),
    "modules.vec_leading": ("modules", None, "vec_leading"),
}


def _polys(polys):
    return tuple(str(p) for p in polys)


def _ring_of(polys):
    return repr(polys[0].ring) if polys else ""


def _morphism(phi):
    return (repr(phi.target.ring), repr(phi.target.relations),
            repr(phi.source.ring), repr(phi.source.relations), _polys(phi.images))


def _fp_buchberger(generators, order, ring=None, strategy="normal"):
    gens = list(generators)
    return (repr(order), repr(ring) if ring is not None else _ring_of(gens),
            strategy, _polys(gens))


def _fp_module_buchberger(vectors, order, ring):
    return (repr(order), repr(ring), tuple(_polys(v) for v in vectors))


def _fp_decompose(handle, budget=64, supplied=None):
    return (repr(handle.ring), _polys(handle.generators), budget, supplied is None)


def _fp_splitting_ideal(morphism, presentation=None):
    return (_morphism(morphism), presentation is None)


# functions whose inputs are fingerprinted, for unique_frac
FINGERPRINTS = {
    "groebner.buchberger": _fp_buchberger,
    "modules.module_buchberger": _fp_module_buchberger,
    "schemes.decompose_components": _fp_decompose,
    "purity.splitting_ideal": _fp_splitting_ideal,
}


class Span:
    __slots__ = ("name", "request", "parent", "start", "end", "outcome", "key")

    def __init__(self, name, request, parent, start, end=0, outcome="ok", key=None):
        self.name = name
        self.request = request
        self.parent = parent
        self.start = start
        self.end = end
        self.outcome = outcome
        self.key = key

    def to_list(self):
        return [self.name, self.request, self.parent, self.start, self.end,
                self.outcome, self.key]

    @classmethod
    def from_list(cls, row):
        return cls(*row)


def _fingerprint_digest(value):
    return hashlib.md5(repr(value).encode()).hexdigest()[:16]


class Tracer:
    """Wraps equipure's public functions while installed; see the module
    docstring. One tracer per process; not thread-safe (the benchmark runs
    one command at a time)."""

    def __init__(self):
        self.spans = []
        self.counts = {name: 0 for name in COUNTED}
        self.request = -1
        self._stack = []
        self._patches = []      # (owner, attribute, original)
        self.installed = False

    # -- targets --------------------------------------------------------

    def targets(self):
        """[(metric name, owner, attribute, original, counted?)] for every
        function and method the tracer wraps, at its defining site."""
        out = []
        counted_ids = set()
        for name, (mod_name, cls_name, attr) in COUNTED.items():
            owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
            if cls_name:
                owner = getattr(owner, cls_name)
            original = inspect.getattr_static(owner, attr)
            counted_ids.add(id(original))
            out.append((name, owner, attr, original, True))
        for mod_name in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            for attr, obj in sorted(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__
                        or id(obj) in counted_ids):
                    continue
                out.append((f"{mod_name}.{attr}", module, attr, obj, False))
        for mod_name, cls_name, attr in SPAN_METHODS:
            owner = getattr(importlib.import_module(f"{PACKAGE}.{mod_name}"),
                            cls_name)
            out.append((f"{mod_name}.{cls_name}.{attr}", owner, attr,
                        inspect.getattr_static(owner, attr), False))
        return out

    # -- install / uninstall ------------------------------------------------

    def install(self):
        if self.installed:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for name, owner, attr, original, counted in self.targets():
            wrapper = (self._counting(original, name) if counted
                       else self._spanning(original, name))
            wrappers[id(original)] = wrapper
            self._patch(owner, attr, wrapper)
        # every other module that bound the same function object
        prefix = PACKAGE + "."
        for mod_name, module in sorted(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE
                                      or mod_name.startswith(prefix)):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and obj is not wrapper:
                    self._patch(module, attr, wrapper)
        self.installed = True
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        self.installed = False

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _counting(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__traced__ = fn
        return counted

    def _spanning(self, fn, name):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        fingerprint = FINGERPRINTS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = (_fingerprint_digest(fingerprint(*args, **kwargs))
                   if fingerprint else None)
            span = Span(name, tracer.request, stack[-1] if stack else -1, 0, key=key)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span.outcome = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()

        traced.__traced__ = fn
        return traced

    # -- output ---------------------------------------------------------------

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [s.to_list() for s in self.spans],
                       "counts": self.counts}, fh)


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return [Span.from_list(row) for row in data["spans"]], data["counts"]


# -- aggregation ------------------------------------------------------------------


def self_times(spans):
    """Self time of each span in ns: its duration minus the part of its
    interval that its child spans cover (children clipped to the parent and
    overlaps counted once)."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for s, kids in zip(spans, children):
        covered = 0
        cursor = s.start
        for start, end in sorted(kids):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append(s.end - s.start - covered)
    return out


def _layer_of(name):
    return LAYERS[name.split(".", 1)[0]]


def _outermost(spans, i):
    """True when no ancestor of span i has the same name (no double count
    of recursive calls in inclusive times)."""
    name = spans[i].name
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == name:
            return False
        p = spans[p].parent
    return True


def summarize(span_sets, count_sets, scales=None):
    """Per-function and per-layer figures over several span lists (one per
    traced process) and their call counts. Each process's times are
    multiplied by its entry in `scales` (default 1).

    Returns {function or layer name: {"calls", "self_s", "s", "unique_frac",
    ...}}; times in seconds."""
    funcs = {}
    layers = {name: {"calls": 0, "self_s": 0.0} for name in LAYER_NAMES}
    hits = {"calls": 0, "misses": 0}
    branch = {"calls": 0, "branched": 0}
    for spans, scale in zip(span_sets, scales or [1.0] * len(span_sets)):
        selfs = [t * scale / 1e9 for t in self_times(spans)]
        missed = set()
        for i, s in enumerate(spans):
            if s.name == "groebner.buchberger":
                p = s.parent
                while p >= 0 and spans[p].name != "ideals.IdealHandle.groebner":
                    p = spans[p].parent
                if p >= 0:
                    missed.add(p)
        for i, s in enumerate(spans):
            f = funcs.setdefault(s.name, {"calls": 0, "self_s": 0.0, "s": 0.0,
                                          "keys": set()})
            f["calls"] += 1
            f["self_s"] += selfs[i]
            if _outermost(spans, i):
                f["s"] += (s.end - s.start) * scale / 1e9
            if s.key is not None:
                f["keys"].add(s.key)
            layer = layers[_layer_of(s.name)]
            layer["calls"] += 1
            layer["self_s"] += selfs[i]
            if s.name == "ideals.IdealHandle.groebner":
                hits["calls"] += 1
                hits["misses"] += i in missed
            elif s.name == "parametric.param_buchberger":
                branch["calls"] += 1
                branch["branched"] += s.outcome == "BranchSignal"
    for counts in count_sets:
        for name, n in counts.items():
            f = funcs.setdefault(name, {"calls": 0, "self_s": 0.0, "s": 0.0,
                                        "keys": set()})
            f["calls"] += n
            layers[_layer_of(name)]["calls"] += n
    for name, f in funcs.items():
        keys = f.pop("keys")
        if name in FINGERPRINTS:
            f["unique_frac"] = len(keys) / f["calls"] if f["calls"] else 0.0
    out = dict(funcs)
    out.update(layers)
    out["ideals.IdealHandle.groebner"] = dict(
        out.get("ideals.IdealHandle.groebner", {"calls": 0, "self_s": 0.0, "s": 0.0}),
        hit_frac=(hits["calls"] - hits["misses"]) / hits["calls"] if hits["calls"] else 0.0)
    out["schemes.finite_locus_strata"] = dict(
        out.get("schemes.finite_locus_strata", {"calls": 0, "self_s": 0.0, "s": 0.0}),
        branch_frac=branch["branched"] / branch["calls"] if branch["calls"] else 0.0)
    return out
