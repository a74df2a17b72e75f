"""One form for the rationals: no module of `src/equipure` other than
`fields.py` builds a `Fraction` or divides with `/`. Rationals are made by
`FieldSpec.of` and combined by the field's arithmetic, which keeps them
ints when integral; a `Fraction(...)` elsewhere would bring back integral
Fractions, and a `/` on two ints gives a float."""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "equipure")
ALLOWED = {"fields.py"}


def _called_name(func):
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def violations(source, filename="<source>"):
    """(line, what) for each `Fraction(...)` call and each true division
    in `source`."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Call) and _called_name(node.func) == "Fraction":
            found.append((node.lineno, "Fraction(...)"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "/"))
    return sorted(found)


def package_violations(package=PACKAGE):
    """'module.py:line what' for each violation in a module of `package`
    other than those in ALLOWED."""
    out = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py") or name in ALLOWED:
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            out += [f"{name}:{line} {what}" for line, what in violations(fh.read(), name)]
    return out


def test_the_checker_sees_calls_and_true_division():
    source = ("from fractions import Fraction\nimport fractions\n"
              "a = Fraction(1, 2)\nb = fractions.Fraction(3)\nc = a / b\nc /= 2\n"
              "d = 7 // 2\ne = isinstance(a, Fraction)\n")
    assert violations(source) == [(3, "Fraction(...)"), (4, "Fraction(...)"), (5, "/"), (6, "/")]


def test_only_fields_makes_fractions_or_divides():
    assert package_violations() == []
