"""The session grammar, read with `str` methods, against the regular
expressions it replaced: on every statement of the session files, of the
benchmark's generated sessions and of a fixed list of mutations, both read
the same statements and the same slot and group texts. The only statements
the old grammar took and the session now rejects are the two listed in
DIVERGENCES, where the rejection is by the declaration, not the grammar."""

import glob
import importlib.util
import os
import re

import pytest

from equipure.session import (
    _DECLARATIONS,
    COMMANDS,
    SessionError,
    _arrow_parts,
    _point_form,
    _split_top,
    _statements,
    parse_session,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# -- the regular-expression grammar, as the session module held it --------------

OLD_SEP = r"(?:(?<=[()])\s*|\s*(?=[()])|\s+)"
OLD_NAME = r"\w+"
OLD_LIST = r"\(.*?\)"
OLD_SLOT_PATTERNS = {
    "morphism": OLD_NAME, "point": OLD_NAME, "ring": OLD_NAME, "ideal": OLD_NAME,
    "ideal-in-ring": OLD_NAME, "order": r"lex|grevlex", "word": r"[\w-]+",
    "morphisms": OLD_LIST, "points": OLD_LIST, "poly": OLD_LIST, "sequences": OLD_LIST,
}


def old_command_pattern(grammar):
    pattern = []
    for piece in re.split(r"(<[^>]*>|\[|\]| )", grammar):
        slot = re.fullmatch(r"<(\w+)(?::([\w-]+))?>", piece)
        if slot:
            name, kind = slot.group(1), slot.group(2) or slot.group(1)
            pattern.append(f"(?P<{name}>{OLD_SLOT_PATTERNS[kind]})")
        else:
            pattern.append({"[": "(?:", "]": ")?", " ": OLD_SEP}.get(piece, re.escape(piece)))
    return re.compile("".join(pattern), re.S)


OLD_COMMANDS = {head: old_command_pattern(c.grammar) for head, c in COMMANDS.items()}
OLD_DECLARATIONS = {
    "field": re.compile(r"field\s+(\w+)\s*=\s*(Q|F\d+)"),
    "ring": re.compile(r"ring\s+(\w+)\s*=\s*(\w+)\s*\[([^\]]*)\]\s*(?:/\s*\((.*)\))?\s*", re.S),
    "ideal": re.compile(r"ideal\s+(\w+)\s*=\s*\((.*)\)\s*in\s+(\w+)\s*", re.S),
    "point": re.compile(r"point\s+(\w+)\s*=\s*(.*)", re.S),
    "morphism": re.compile(
        r"morphism\s+(\w+)\s*:\s*(\w+)\s*->\s*(\w+)\s*=\s*\[(.*)\]\s*", re.S),
}
OLD_POINT_FORMS = {
    "closed": re.compile(r"closed\s*\(\s*(\w+)\s*:\s*(.*)\)", re.S),
    "generic": re.compile(r"generic\s*\(\s*(\w+)\s*(?:,\s*(\w+)\s*,\s*(\d+)\s*)?\)"),
    "fiber-point": re.compile(r"fiber-point\s*\(\s*(\w+)\s*,\s*(\w+)\s*,\s*(\d+)\s*\)"),
}
OLD_ARROW = re.compile(r"(\w+)\s*->\s*(.*)", re.S)
OLD_STATEMENT = re.compile(r"\s*([^;]*)(;?)")


def old_statements(text):
    """(line, statement) pairs, ending with (line, None) at a statement
    that has no ';'."""
    text = "\n".join(raw.split("#", 1)[0] for raw in text.splitlines())
    out, line, pos = [], 1, 0
    for m in OLD_STATEMENT.finditer(text):
        stmt = m.group(1).strip()
        if not stmt:
            continue
        line += text.count("\n", pos, m.start(1))
        pos = m.start(1)
        if not m.group(2):
            return out + [(line, None)]
        out.append((line, stmt))
    return out


def new_statements(text):
    out = []
    try:
        for line, stmt in _statements(text):
            out.append((line, stmt))
    except SessionError as exc:
        out.append((exc.line, None))
    return out


def old_point_form(rhs):
    for form, pattern in OLD_POINT_FORMS.items():
        m = pattern.fullmatch(rhs)
        if m:
            return form, m.groups()
    return None


def old_reading(stmt):
    """What the regular-expression grammar reads in a statement."""
    head = stmt.split(None, 1)[0]
    if head in OLD_DECLARATIONS:
        m = OLD_DECLARATIONS[head].fullmatch(stmt.strip())
        if m is None:
            return None
        parts = m.groups()
        if head == "point":
            return parts + (old_point_form(parts[1].strip()),)
        if head == "morphism":
            arrows = (OLD_ARROW.fullmatch(p.strip()) for p in _split_top(parts[3]))
            return parts + (tuple(a and a.groups() for a in arrows),)
        return parts
    if head not in OLD_COMMANDS:
        return "unknown command"
    m = OLD_COMMANDS[head].fullmatch(stmt)
    return m and {k: v for k, v in m.groupdict().items() if v is not None}


def new_reading(stmt):
    """What the session module reads in a statement."""
    head = stmt.split(None, 1)[0]
    if head in _DECLARATIONS:
        parts = _DECLARATIONS[head][0](stmt)
        if parts is None:
            return None
        if head == "point":
            return parts + (_point_form(parts[1]),)
        if head == "morphism":
            return parts + (tuple(_arrow_parts(p) for p in _split_top(parts[3])),)
        return parts
    if head not in COMMANDS:
        return "unknown command"
    return COMMANDS[head].match(stmt)


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def session_texts():
    for path in sorted(glob.glob(os.path.join(ROOT, "tests", "data", "*.eqp"))):
        with open(path, encoding="utf-8") as fh:
            yield fh.read()
    workloads = _workloads()
    for seed in range(4):
        yield workloads.corpus(seed, root=ROOT).text
        yield workloads.ideal_gb(seed).text
        yield workloads.fibers(seed).text


SPACED = re.compile(r"\s*([()\[\]=:,/])\s*")

# statements no session file holds: Unicode names and whitespace, empty
# lists, optional groups present and absent, and near misses of each form
EXTRA = [
    "ring Ä = Q[x]", "ring R = Q[ä, b]", "field k٣ = F٧", "field k = F", "field k = Q7",
    "field k = F7 extra", "field = Q", "field k Q", "point é = closed(R : 0)", "gb Ideal_ü",
    "gb I lex", "gb I grevlex", "fiber-dim f at P²", "dim I\u3000", "ring R = Q[]",
    "ring R = Q[x]/()", "ring R = Q[x] / (x^2) extra", "ring R = Q[x] (x)", "ring R = Q[x]]",
    "ring R = Q[[x]", "ring R = Q[x] / x^2", "ring R = k[x,y] / ((x), (y))", "ring R=Q[x]/(x)",
    "ideal I = () in R", "ideal I = (x) in", "ideal I = (x) inR", "ideal I = (x)) in R",
    "ideal I = ((x) in R", "ideal I = (x) in R S", "ideal I = x in R", "point p = closed(R : )",
    "point p = closed(R)", "point p = closed(R : 0))", "point p = closed (R:0,1)",
    "point p = generic()", "point p = generic(R,)", "point p = generic(R, I)",
    "point p = generic(R, I, x)", "point p = generic( R , I , 2 )", "point p = fiber-point(f, P)",
    "point p = fiber-point(f, P, 1, 2)", "point p = opened(R : 0)", "point p =",
    "morphism f : R -> S = []", "morphism f : R -> S = [x]", "morphism f : R -> S = [x -> ]",
    "morphism f : R -> S = [-> y]", "morphism f R -> S = [x -> y]", "morphism f : R S = [x -> y]",
    "morphism f:R->S=[x->y,y->x]", "morphism f : R -> S -> T = [x -> y]",
    "equidim-check f at P probes ()", "equidim-check f at P probes",
    "equidim-check f at P probes(P)", "equidim-check f at P probes (P) (Q)",
    "equidim-check f at P probes (P) extra", "factorize f at Y from X0",
    "factorize f at Y from X0 probes", "factorize f at Y fromX0", "splinter-probe R covers ()",
    "splinter-probe R covers(f,g)", "f-rational-probe R sops ()", "f-rational-probe R sops (())",
    "f-rational-probe R sops ((x, y)", "tc-member () in I mult () in R",
    "tc-member(z) in I mult (x) in R", "tc-member (z)in I mult(x)in R",
    "tc-member (z) in I mult (x) in", "tc-member (z)) in I mult (x) in R",
    "tc-member ((z) in I mult (x) in R", "tc-member (z) in I mult (x) in R) in I mult (x) in R",
    "strong-purity f base normal- probes (P)", "strong-purity f base normal-probes (P)",
    "strong-purity f base -x- probes (P)", "gb I lexx", "gb Ilex", "gb I lex lex", "gb", "splits",
    "pure-at f at", "fedder R atP", "descend-check f at Y probes (P",
    "descend-check f at Y probes P)", "frobnicate f",
    "tc-member (" + "(" * 5000 + "x" + ")" * 5000 + ") in I mult (x^2) in F",
    "splinter-probe R covers (" + "(" * 3000 + "f" + ")" * 3000 + ")",
    "tc-member (z" + ") in" * 3000 + " I mult (x) in R", "tc-member (z)\n\tin I mult (x) \tin R",
]


def mutations(stmt):
    """The statement, and copies with whitespace removed or added next to
    punctuation, trailing words, and a parenthesis dropped or added."""
    out = [stmt, SPACED.sub(r"\1", stmt), SPACED.sub(r" \1 ", stmt),
           stmt.replace(" ", "\n\t"), stmt.replace(" ", "\u00a0"),
           stmt + " extra", stmt + "extra", stmt + ")", "(" + stmt, stmt.replace("(", "", 1)]
    if ")" in stmt:
        i = stmt.rindex(")")
        out.append(stmt[:i] + stmt[i + 1:])
    if " probes " in stmt:
        out.append(stmt[:stmt.index(" probes ")])
    elif stmt.split()[0] in ("equidim-check", "factorize"):
        out += [stmt + " probes (P)", stmt + " probes ()"]
    if stmt.startswith("gb "):
        out += [stmt + " lex", stmt + " grevlex", stmt.split()[0] + " " + stmt.split()[1]]
    return [s.strip() for s in out if s.strip() and not s.strip().startswith(";")]


def test_statements_split_as_before():
    texts = list(session_texts()) + ["", ";;", "a;\n\n b ;c", "a;\n# x; y\nb", " \n x;\n\ny"]
    for text in texts:
        assert new_statements(text) == old_statements(text)


def test_every_statement_reads_as_the_regular_expressions_read_it():
    statements = {stmt for text in session_texts() for _, stmt in _statements(text)}
    checked = set()
    for stmt in sorted(statements) + EXTRA:
        for variant in mutations(stmt):
            if variant.split(None, 1)[0] and variant not in checked:
                checked.add(variant)
                assert new_reading(variant) == old_reading(variant), variant
    read = [s for s in checked if old_reading(s) not in (None, "unknown command")]
    assert len(checked) > 3000 and len(read) > 2000


# statements the regular-expression grammar read that a session now rejects,
# with the message: each is a declaration whose parts read as before
DIVERGENCES = [
    ("ring R = Q[x,2y]", "bad ring declaration: '2y' is not a variable name"),
    ("ring R = Q[x,,y]", "bad ring declaration: '' is not a variable name"),
    ("ring R = Q[x y]", "bad ring declaration: 'x y' is not a variable name"),
    ("morphism f : R -> S = [x -> y, x -> y^2]", "generator 'x' has more than one image"),
    ("ideal I = (x,,x,) in R", "ideal I: generator entry 2 is empty"),
    ("ideal J = (,) in R", "ideal J: generator entry 1 is empty"),
    ("ideal K = (x,) in R", "ideal K: generator entry 2 is empty"),
    ("ring T = Q[a] / (a,)", "ring T: relation entry 2 is empty"),
    ("point p = closed(R : 0,)", "point p: coordinate entry 2 is empty"),
]


@pytest.mark.parametrize("stmt, message", DIVERGENCES)
def test_the_listed_divergences_read_as_before_and_are_rejected(stmt, message):
    assert old_reading(stmt) not in (None, "unknown command")
    assert new_reading(stmt) == old_reading(stmt)
    with pytest.raises(SessionError) as err:
        parse_session(f"ring R = Q[x];\nring S = Q[y];\n{stmt};")
    assert str(err.value) == f"line 3: {message}"


@pytest.mark.parametrize("entries", ["x,2y", "x,,y", "x y", "x,", ",x", "x-y", "x^2", "1"])
def test_ring_entries_must_be_variable_names(entries):
    with pytest.raises(SessionError) as err:
        parse_session(f"ring R = Q[{entries}];")
    assert "bad ring declaration: " in str(err.value)
    assert "is not a variable name" in str(err.value)


def test_an_empty_generator_list_is_the_zero_ideal():
    session = parse_session("ring R = Q[x];\nideal Z = () in R;\nideal B = ( ) in R;\n"
                            "ring T = Q[y] / ();")
    assert session.ideals["Z"][0].generators == session.ideals["B"][0].generators == ()
    assert session.algebras["T"].relations.generators == ()


def test_variable_names_are_the_polynomial_parsers_names():
    session = parse_session("ring R = Q[x_1, _y, z~, äb2];\nring E = Q[ ];\n"
                            "ideal I = (x_1*_y - z~^2 + äb2) in R;")
    assert session.algebras["R"].ring.vars == ("x_1", "_y", "z~", "äb2")
    assert session.algebras["E"].ring.vars == ()


def test_a_generator_with_two_images_is_rejected():
    text = "ring R = Q[a,b];\nring S = Q[x];\nmorphism f : R -> S = [a -> x, b -> x, a -> x^2];"
    with pytest.raises(SessionError) as err:
        parse_session(text)
    assert str(err.value) == "line 3: generator 'a' has more than one image"
