"""One form for the rationals: no module of `src/equipure` other than
`fields.py` builds a `Rational` (or a standard-library `Fraction`) or
divides with `/`, and no module imports `fractions`. Rationals are made by
`FieldSpec.of` and combined by the field's arithmetic, which keeps them
ints when integral; a `Rational(...)` elsewhere could skip the reduction to
lowest terms or make an integral Rational, and a `/` on two ints gives a
float."""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "equipure")
ALLOWED = {"fields.py"}
CONSTRUCTORS = {"Fraction", "Rational"}


def _called_name(func):
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def violations(source, filename="<source>"):
    """(line, what) for each `Rational(...)` or `Fraction(...)` call, each
    true division and each import of `fractions` in `source`."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Call) and _called_name(node.func) in CONSTRUCTORS:
            found.append((node.lineno, f"{_called_name(node.func)}(...)"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "/"))
        elif isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names):
            found.append((node.lineno, "import fractions"))
        elif isinstance(node, ast.ImportFrom) and node.module == "fractions":
            found.append((node.lineno, "import fractions"))
    return sorted(found)


def package_violations(package=PACKAGE):
    """'module.py:line what' for each violation in a module of `package`;
    a module in ALLOWED may build Rationals and divide, but imports no
    `fractions` either."""
    out = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            found = violations(fh.read(), name)
        out += [f"{name}:{line} {what}" for line, what in found
                if name not in ALLOWED or what == "import fractions"]
    return out


def test_the_checker_sees_calls_and_true_division():
    source = ("from fractions import Fraction\nimport fractions\n"
              "a = Fraction(1, 2)\nb = fractions.Fraction(3)\nc = a / b\nc /= 2\n"
              "d = 7 // 2\ne = isinstance(a, Fraction)\n"
              "from .fields import Rational\nf = Rational(1, 2)\ng = fields.Rational(3, 4)\n"
              "h = isinstance(f, Rational)\n")
    assert violations(source) == [
        (1, "import fractions"), (2, "import fractions"), (3, "Fraction(...)"),
        (4, "Fraction(...)"), (5, "/"), (6, "/"), (10, "Rational(...)"), (11, "Rational(...)")]


def test_only_fields_makes_fractions_or_divides():
    assert package_violations() == []
