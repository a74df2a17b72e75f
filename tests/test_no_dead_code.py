"""No code that nothing calls: every public function, class or method
defined in `src/equipure`, every private function or class at the top
level of one of its modules, and every name a module assigns at its top
level, is named somewhere in the package, its tests or its benchmark other
than at its own definition."""

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "equipure")
SEARCHED = [os.path.join(ROOT, d) for d in ("src", "tests", "perfbench")]


def _python_files(top):
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith((".", "__")))
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _assigned_names(node):
    """The names a module-level assignment statement binds."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
            and not n.id.startswith("__")]


def _checked_definitions():
    """name -> number of definitions of that name in the package that are
    checked: public functions, classes and methods at any depth, private
    (single-underscore) functions and classes at module level, and names
    assigned at module level."""
    defined = {}
    for path in _python_files(PACKAGE):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        private = [node for node in tree.body
                   if isinstance(node, DEFINITIONS) and node.name.startswith("_")
                   and not node.name.startswith("__")]
        public = [node for node in ast.walk(tree)
                  if isinstance(node, DEFINITIONS) and not node.name.startswith("_")]
        names = [node.name for node in private + public]
        names += [name for node in tree.body for name in _assigned_names(node)]
        for name in names:
            defined[name] = defined.get(name, 0) + 1
    return defined


def test_every_public_definition_is_named_elsewhere():
    defined = _checked_definitions()
    text = []
    for top in SEARCHED:
        for path in _python_files(top):
            with open(path, encoding="utf-8") as fh:
                text.append(fh.read())
    text = "\n".join(text)
    words = {}
    for word in re.findall(r"\b[A-Za-z_][A-Za-z0-9_]*\b", text):
        if word in defined:
            words[word] = words.get(word, 0) + 1
    unused = sorted(name for name, count in defined.items() if words.get(name, 0) <= count)
    assert unused == []
