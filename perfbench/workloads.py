"""Benchmark workloads: session text plus the verdict each command must give.

Every workload is a pure function of the workload seed: the same seed gives
byte-identical session text, and the expected table is known by
construction, never by running the program under test.

  corpus    tests/data/corpus.eqp unchanged; the seed is passed as --seed.
  ideal-gb  katsura-5 over F32003, katsura-4 over Q and cyclic-4 over
            F32003, each under a seeded change of coordinates; `gb` and
            `dim` on each.
  fibers    generic-point factorizations of seeded projections and
            `equidim-check` / `fiber-dim` on seeded blow-up charts.
"""

from __future__ import annotations

import os
import random

CORPUS_PATH = os.path.join("tests", "data", "corpus.eqp")

# exit classes of the program's reports
OK, REFUTED, ERROR, INCONCLUSIVE = 0, 1, 2, 3


class Workload:
    """Session text and the expected (command, verdict, exit class) of each
    command in session order."""

    def __init__(self, name, seed, text, expected):
        self.name = name
        self.seed = seed
        self.text = text
        self.expected = expected


# -- corpus -------------------------------------------------------------------

# Verdicts of tests/data/corpus.eqp. None of them depends on the seed.
CORPUS_EXPECTED = [
    ("gb Circle", "basis-size-2", OK),
    ("gb Axes lex", "basis-size-1", OK),
    ("dim I", "0", OK),
    ("fiber-dim ver at sO", "0", OK),
    ("equidim-check comp at wO probes (wO)", "certified-at-probes", OK),
    ("factorize comp at m from x0 probes (wO)", "certificate-emitted", OK),
    ("splits ver", "splits", OK),
    ("splits nu", "does-not-split", REFUTED),
    ("pure-at nu at cuspO", "not-pure", REFUTED),
    ("pure-at nu at cuspEta", "pure", OK),
    ("splinter-probe Cusp covers (nu)", "refuted", REFUTED),
    ("strong-purity comp base normal-Q-hypersurface probes (wO)",
     "certificate-emitted", OK),
    ("fedder F at fO", "F-pure", OK),
    ("tc-member (z^2) in Fxy mult (x^2) in F", "EvidenceInClosure", INCONCLUSIVE),
    ("tc-member (y) in Px mult (1) in P7", "NotInClosure", REFUTED),
    ("f-rational-probe P7 sops ((x, y))", "no-counterexample-at-level-3", OK),
    ("descend-check ver7 at m7 probes (s7O)", "consistent", OK),
]


def corpus(seed: int, root: str = ".") -> Workload:
    with open(os.path.join(root, CORPUS_PATH), "r", encoding="utf-8") as fh:
        text = fh.read()
    return Workload("corpus", seed, text, list(CORPUS_EXPECTED))


# -- ideal-gb -----------------------------------------------------------------
#
# A system is a list of equations; an equation is a list of (coefficient,
# variable indices) monomials. The change of coordinates sends x_i to
# x_i + sum_{j>i} c_ij x_j. Every monomial then maps to itself plus strictly
# smaller monomials (x_j < x_i in lex and grevlex alike), so leading terms,
# the initial ideal, the reduced basis size and the dimension are those of
# the unperturbed system for every seed.


def katsura(n):
    """Katsura-n in the variables x0..xn."""
    eqs = [[(1, (0,))] + [(2, (i,)) for i in range(1, n + 1)] + [(-1, ())]]
    for m in range(n):
        counts = {}
        for i in range(-n, n + 1):
            j = m - i
            if abs(j) <= n:
                key = tuple(sorted((abs(i), abs(j))))
                counts[key] = counts.get(key, 0) + 1
        eqs.append([(c, k) for k, c in sorted(counts.items())] + [(-1, (m,))])
    return n + 1, eqs


def cyclic(n):
    """Cyclic-n in the variables x0..x(n-1)."""
    eqs = []
    for k in range(1, n):
        eqs.append([(1, tuple((i + j) % n for j in range(k))) for i in range(n)])
    eqs.append([(1, tuple(range(n))), (-1, ())])
    return n, eqs


# (name, field, system, reduced grevlex basis size, dimension)
IDEAL_GB_SYSTEMS = [
    ("K5", "F32003", katsura(5), 22, 0),
    ("K4", "Q", katsura(4), 13, 0),
    ("C4", "F32003", cyclic(4), 7, 1),
]


def _coordinate_change(rng, nvars):
    """x_i -> x_i + c_i x_(i+1) with seeded c_i in 1..9: one fixed sparsity
    pattern, so every seed costs about the same."""
    subs = [f"(x{i} + {rng.randint(1, 9)}*x{i + 1})" for i in range(nvars - 1)]
    return subs + [f"x{nvars - 1}"]


def _equation_text(eq, subs):
    parts = []
    for coeff, idx in eq:
        factors = [subs[i] for i in idx]
        body = "*".join(factors)
        if not factors:
            parts.append((coeff, str(abs(coeff))))
        elif abs(coeff) == 1:
            parts.append((coeff, body))
        else:
            parts.append((coeff, f"{abs(coeff)}*{body}"))
    text = ("-" if parts[0][0] < 0 else "") + parts[0][1]
    for coeff, body in parts[1:]:
        text += (" - " if coeff < 0 else " + ") + body
    return text


def ideal_gb(seed: int) -> Workload:
    rng = random.Random(f"ideal-gb:{seed}")
    lines = [f"# ideal-gb workload, seed {seed}"]
    expected = []
    for name, field, (nvars, eqs), size, dim in IDEAL_GB_SYSTEMS:
        subs = _coordinate_change(rng, nvars)
        variables = ",".join(f"x{i}" for i in range(nvars))
        gens = ",\n    ".join(_equation_text(eq, subs) for eq in eqs)
        lines.append(f"ring R{name} = {field}[{variables}];")
        lines.append(f"ideal {name} = (\n    {gens}) in R{name};")
    for name, _, _, size, dim in IDEAL_GB_SYSTEMS:
        lines.append(f"gb {name};")
        lines.append(f"dim {name};")
        expected.append((f"gb {name}", f"basis-size-{size}", OK))
        expected.append((f"dim {name}", str(dim), OK))
    return Workload("ideal-gb", seed, "\n".join(lines) + "\n", expected)


# -- fibers -------------------------------------------------------------------
#
# Projections Q[t,s] -> Q[t,s,x,y] with t -> t + c*x^a*y^b and
# s -> s*x^d + y^e are dominant with a 2-dimensional generic fiber, so
# `factorize ... at eta` emits a certificate. Blow-up charts Q[u,v] -> Q[u,x]
# with v -> u^a*x have a 1-dimensional fiber over the origin but a
# 0-dimensional generic fiber (refuted); adding z^b to the image of v in
# Q[u,x,z] makes every fiber 1-dimensional (certified).

# (a, b, d, e) of each projection. The shapes are fixed, because the cost of
# a factorization depends on them far more than on the coefficient c; the
# seed picks c, the chart exponents and the probe points.
PROJECTION_SHAPES = [(1, 1, 2, 1), (1, 2, 2, 1), (2, 1, 1, 1), (2, 2, 1, 1),
                     (3, 1, 2, 1), (1, 1, 3, 2), (2, 3, 1, 2), (3, 2, 1, 2)]
FIBER_CHARTS = 8


def _power(var, k):
    return var if k == 1 else f"{var}^{k}"


def fibers(seed: int) -> Workload:
    rng = random.Random(f"fibers:{seed}")
    lines = [f"# fibers workload, seed {seed}", "ring T = Q[t,s];",
             "ring U = Q[u,v];", "point eta = generic(T);",
             "point o = closed(U : 0, 0);"]
    commands = []
    expected = []
    for k, (a, b, d, e) in enumerate(PROJECTION_SHAPES):
        c = rng.randint(1, 9)
        lines.append(f"ring P{k} = Q[t,s,x,y];")
        lines.append(f"morphism p{k} : T -> P{k} = [t -> t + {c}*{_power('x', a)}*"
                     f"{_power('y', b)}, s -> s*{_power('x', d)} + {_power('y', e)}];")
        lines.append(f"point g{k} = fiber-point(p{k}, eta, 0);")
        cmd = f"factorize p{k} at eta from g{k}"
        commands.append(cmd)
        expected.append((cmd, "certificate-emitted", OK))
    for k in range(FIBER_CHARTS):
        a = rng.randint(1, 3)
        b = rng.randint(1, 3)
        px, pz = rng.randint(1, 9), rng.randint(1, 9)
        lines.append(f"ring B{k} = Q[u,x];")
        lines.append(f"morphism b{k} : U -> B{k} = [u -> u, v -> {_power('u', a)}*x];")
        lines.append(f"point bo{k} = closed(B{k} : 0, 0);")
        lines.append(f"ring C{k} = Q[u,x,z];")
        lines.append(f"morphism c{k} : U -> C{k} = "
                     f"[u -> u, v -> {_power('u', a)}*x + {_power('z', b)}];")
        lines.append(f"point co{k} = closed(C{k} : 0, 0, 0);")
        lines.append(f"point cp{k} = closed(C{k} : 1, {px}, {pz});")
        for cmd, verdict, exit_class in (
                (f"equidim-check b{k} at bo{k}", "refuted", REFUTED),
                (f"fiber-dim b{k} at bo{k}", "1", OK),
                (f"equidim-check c{k} at co{k} probes (cp{k})",
                 "certified-at-probes", OK),
                (f"fiber-dim c{k} at co{k}", "1", OK)):
            commands.append(cmd)
            expected.append((cmd, verdict, exit_class))
    lines.extend(f"{cmd};" for cmd in commands)
    return Workload("fibers", seed, "\n".join(lines) + "\n", expected)


GENERATORS = {"corpus": corpus, "ideal-gb": ideal_gb, "fibers": fibers}
