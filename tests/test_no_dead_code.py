"""No code that nothing calls: every public function, class or method
defined in `src/equipure`, every private function or class at the top
level of one of its modules, and every name a module assigns at its top
level, is referred to by code in `src/` other than its own definition,
save the exemptions of `UNREFERENCED`; and no setting that nothing varies:
some call in the package passes every defaulted parameter of a def in it,
save the exemptions of `UNPASSED_DEFAULTS`."""

import ast
import os

from equipure import reports

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "equipure")


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


# name -> why it stays although no code in `src/` refers to it
UNREFERENCED = {
    name: "the benchmark tracer's COUNTED table looks it up by name and counts its calls"
    for name in ("exp_mul", "exp_div", "exp_lcm",
                 "vec_add", "vec_sub", "vec_term_mul", "vec_scale")
}


def _referenced():
    """The names code in `src/` refers to: a name read, an attribute, or a
    string constant, which is how `reports.PRODUCERS` names producers.
    Imports, docstrings and comments are not references, nor is a reference
    from inside a definition to its own name, as in a recursive call."""
    names = set()

    def visit(node, enclosing):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, DEFINITIONS):
                visit(child, enclosing | {child.name})
                continue
            if isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant):
                continue    # a docstring
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                name = child.id
            elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                name = child.attr
            elif isinstance(child, ast.Constant) and isinstance(child.value, str):
                name = child.value
            else:
                name = None
            if name is not None and name not in enclosing:
                names.add(name)
            visit(child, enclosing)

    for path in _python_files(PACKAGE):
        with open(path, encoding="utf-8") as fh:
            visit(ast.parse(fh.read(), path), frozenset())
    return names


def test_every_public_definition_is_named_elsewhere():
    referenced = _referenced()
    unused = sorted(name for name in _checked_definitions() if name not in referenced)
    assert unused == sorted(UNREFERENCED)


# (module, function, parameter) -> why no call in `src/` passes that
# defaulted parameter; every other defaulted parameter is passed somewhere
UNPASSED_DEFAULTS = {
    ("cli", "main", "argv"): "the entry point: the console script calls main() with no argv",
    ("modules", "module_normal_form", "track"):
        "a test seam: tests check the quotients it tracks, which cofactor witnesses will need",
    ("modules", "graph_kernel_order", "mono_order"):
        "module-engine test inputs under other orders",
}


def _defaulted(args, method):
    """(parameter, position in a call or None) of each defaulted parameter;
    a method's first parameter is not written in its calls."""
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(p.arg, i - method) for i, p in enumerate(positional[first:], first)]
    return out + [(p.arg, None) for p, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None]


def _defs_calls_and_values():
    """(defs, calls, values): (module, name calls use, function name,
    defaulted parameters) of every def in the package with defaults, a
    class's `__init__` being called by the class name; (callee name, call
    node) of every call; and (module, function) of every top-level function
    that the package names as a value, not as the callee of a call, in its
    own module or in one that imports it, or that `reports.PRODUCERS` or
    `reports._REPLAY` names by module and function."""
    defs, calls, loads, imports = [], [], {}, {}
    for path in _python_files(PACKAGE):
        module = os.path.splitext(os.path.basename(path))[0]
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)

        def visit(node, cls):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, child.name)
                    continue
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in child.decorator_list)
                    params = _defaulted(child.args, int(cls is not None and not static))
                    called = cls if cls is not None and child.name == "__init__" else child.name
                    if params:
                        defs.append((module, called, child.name, params))
                    visit(child, None)
                else:
                    visit(child, cls)

        visit(tree, None)
        callees = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                callees.add(id(func))
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute) else None)
                calls.append((name, node))
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    imports[module, alias.asname or alias.name] = (node.module, alias.name)
        loads[module] = {node.id for node in ast.walk(tree)
                         if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                         and id(node) not in callees}
    values = {imports.get((module, name), (module, name))
              for module, names in loads.items() for name in names}
    values |= set(reports.PRODUCERS.values())
    values |= {(reports.PRODUCERS[head][0], name)
               for head, *names in reports._REPLAY.values() for name in names}
    return defs, calls, values


def _passes(node, param, position):
    return (any(isinstance(a, ast.Starred) for a in node.args)
            or any(k.arg in (None, param) for k in node.keywords)
            or (position is not None and position < len(node.args)))


def _unpassed_defaults():
    """(module, function, parameter) of each defaulted parameter that no
    call in the package passes. Calls resolve by name, and a class name
    resolves to its `__init__`; a call with `*` or `**` passes everything.
    A function the package names as a value, or that the producer and
    replay tables name, is called through that value: a `*` or `**` call by
    a name no def has passes all its parameters."""
    defs, calls, values = _defs_calls_and_values()
    named = {called for _, called, _, _ in defs}
    dispatched = any(name not in named and _passes(node, None, None)
                     for name, node in calls)
    return {(module, function, param)
            for module, called, function, params in defs
            if not (dispatched and (module, function) in values)
            for param, position in params
            if not any(name == called and _passes(node, param, position)
                       for name, node in calls)}


def test_every_defaulted_parameter_is_passed_in_src():
    assert _unpassed_defaults() == set(UNPASSED_DEFAULTS)
