"""Line-oriented session files: declarations plus commands.

Grammar (statements end with ';', '#' starts a comment):

    field k = Q;                      field k7 = F7;
    ring R = Q[x,y] / (x*y - 1);      ring S = k7[u,v];
    ideal I = (x, y) in R;
    point P = closed(R : 0, 1);
    point E = generic(R);             point E2 = generic(R, I, 0);
    point X0 = fiber-point(f, P, 0);
    morphism f : R -> S = [x -> u^2, y -> v];

    gb I;            gb I lex;        dim I;
    fiber-dim f at P;
    equidim-check f at P probes (P1, P2);
    factorize f at Y from X0 probes (P);
    splits f;        pure-at f at P;
    splinter-probe R covers (f, g);
    strong-purity f base normal-Q-hypersurface probes (P);
    fedder R at P;
    tc-member (z^2) in I mult (x^2) in R;
    f-rational-probe R sops ((x, y), (u, v));
    descend-check f at Y probes (P);

Names must be declared before use; redeclaration is rejected. An ideal
declared `in R` keeps its generators as written; `dim` measures it inside R
(relations folded in), `gb` reports the reduced basis of the generators in
the ambient polynomial ring.
"""

from __future__ import annotations

import re

from .errors import EquipureError
from .factorization import maximal_points_of_fiber
from .fields import GF, QQ, FieldSpec
from .ideals import IdealHandle
from .orders import GREVLEX, LEX
from .poly import PolynomialRing, parse_poly
from .reports import (
    DEFAULT_FROBENIUS_BOUND,
    EXIT_ERROR,
    Report,
    produce_descent,
    produce_dimension,
    produce_equidim,
    produce_f_rational,
    produce_factorization,
    produce_fedder,
    produce_fiber_dim,
    produce_groebner,
    produce_pure_at,
    produce_split,
    produce_splinter,
    produce_strong_purity,
    produce_tc,
)
from .schemes import (
    DEFAULT_SPLIT_BUDGET,
    decompose_components,
    generic_point_of,
    make_algebra,
    make_morphism,
    rational_point,
)


class SessionError(EquipureError):
    def __init__(self, message, line=None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


class Session:
    def __init__(self, options=None):
        self.fields = {}
        self.algebras = {}
        self.ideals = {}     # name -> (IdealHandle, algebra_name)
        self.points = {}
        self.morphisms = {}
        self.commands = []
        self.options = options or {}

    # -- name handling ----------------------------------------------------

    def _declare(self, table, name, value, line):
        for t in (self.fields, self.algebras, self.ideals, self.points, self.morphisms):
            if name in t:
                raise SessionError(f"name {name!r} already declared", line)
        table[name] = value

    def _lookup(self, table, name, what, line):
        if name not in table:
            raise SessionError(f"unknown {what} {name!r}", line)
        return table[name]


# blanks, a statement, and its ';' (absent only at the end of the input)
_STMT_RE = re.compile(r"\s*([^;]*)(;?)")


def _statements(text: str):
    """Yield (line_number, statement) with comments stripped, numbered by
    the line the statement starts on."""
    text = "\n".join(raw.split("#", 1)[0] for raw in text.splitlines())
    line, pos = 1, 0
    for m in _STMT_RE.finditer(text):
        stmt = m.group(1).strip()
        if not stmt:
            continue
        line += text.count("\n", pos, m.start(1))
        pos = m.start(1)
        if not m.group(2):
            raise SessionError(f"statement missing ';': {stmt!r}", line)
        yield line, stmt


def parse_session(text: str, options=None) -> Session:
    session = Session(options)
    for line, stmt in _statements(text):
        head = stmt.split(None, 1)[0]
        declare = _DECLARATIONS.get(head)
        if declare is None:
            session.commands.append((line, stmt))
            continue
        # the constructors and the polynomial parser reject bad input (F4,
        # Q[x,x], x^-1, a point off the variety, ...) with ValueError; a
        # generic point's component splitting can exhaust a budget
        try:
            declare(session, stmt, line)
        except SessionError:
            raise
        except (EquipureError, ValueError) as exc:
            raise SessionError(str(exc), line)
    return session


def _parse_field(session, stmt, line):
    m = re.fullmatch(r"field\s+(\w+)\s*=\s*(Q|F\d+)", stmt.strip())
    if not m:
        raise SessionError(f"bad field declaration: {stmt!r}", line)
    field = _field_from_token(session, m.group(2), line)
    session._declare(session.fields, m.group(1), field, line)


def _field_from_token(session, tok, line) -> FieldSpec:
    if tok == "Q":
        return QQ
    m = re.fullmatch(r"F(\d+)", tok)
    if m:
        return GF(int(m.group(1)))
    return session._lookup(session.fields, tok, "field", line)


def _parse_ring(session, stmt, line):
    m = re.fullmatch(
        r"ring\s+(\w+)\s*=\s*(\w+)\s*\[([^\]]*)\]\s*(?:/\s*\((.*)\))?\s*",
        stmt.strip(), re.S)
    if not m:
        raise SessionError(f"bad ring declaration: {stmt!r}", line)
    name, ftok, vars_str, rel_str = m.groups()
    field = _field_from_token(session, ftok, line)
    variables = [v.strip() for v in vars_str.split(",") if v.strip()]
    ring = PolynomialRing(field, variables)
    rels = []
    if rel_str and rel_str.strip():
        for piece in _split_top(rel_str):
            rels.append(parse_poly(ring, piece))
    try:
        alg = make_algebra(field, variables, rels, name=name)
    except EquipureError as exc:
        raise SessionError(f"ring {name}: {exc}", line)
    session._declare(session.algebras, name, alg, line)


def _split_top(text: str):
    """Split on commas at parenthesis depth zero."""
    out, depth, buf = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(buf).strip())
            buf = []
        else:
            buf.append(ch)
    tail = "".join(buf).strip()
    if tail:
        out.append(tail)
    return out


def _parse_ideal(session, stmt, line):
    m = re.fullmatch(r"ideal\s+(\w+)\s*=\s*\((.*)\)\s*in\s+(\w+)\s*", stmt.strip(), re.S)
    if not m:
        raise SessionError(f"bad ideal declaration: {stmt!r}", line)
    name, gens_str, ring_name = m.groups()
    alg = session._lookup(session.algebras, ring_name, "ring", line)
    gens = []
    for piece in _split_top(gens_str):
        if not piece:
            continue
        gens.append(parse_poly(alg.ring, piece))
    session._declare(session.ideals, name, (IdealHandle(alg.ring, gens), ring_name), line)


def _parse_point(session, stmt, line):
    m = re.fullmatch(r"point\s+(\w+)\s*=\s*(.*)", stmt.strip(), re.S)
    if not m:
        raise SessionError(f"bad point declaration: {stmt!r}", line)
    name, rhs = m.group(1), m.group(2).strip()
    mc = re.fullmatch(r"closed\s*\(\s*(\w+)\s*:\s*(.*)\)", rhs, re.S)
    if mc:
        alg = session._lookup(session.algebras, mc.group(1), "ring", line)
        coords = []
        for piece in _split_top(mc.group(2)):
            val = parse_poly(alg.ring, piece)
            if not val.is_constant():
                raise SessionError(f"coordinate {piece!r} is not a constant", line)
            coords.append(val.constant_value())
        session._declare(session.points, name, rational_point(alg, coords, name=name), line)
        return
    mg = re.fullmatch(r"generic\s*\(\s*(\w+)\s*(?:,\s*(\w+)\s*,\s*(\d+)\s*)?\)", rhs)
    if mg:
        alg = session._lookup(session.algebras, mg.group(1), "ring", line)
        if mg.group(2):
            handle, owner = session._lookup(session.ideals, mg.group(2), "ideal", line)
            if owner != mg.group(1):
                raise SessionError("ideal lives in a different ring", line)
            index = int(mg.group(3))
        else:
            handle, index = alg.relations, 0
        budget = int(session.options.get("budget", DEFAULT_SPLIT_BUDGET))
        comps, _ = decompose_components(handle, budget=budget)
        if index >= len(comps):
            raise SessionError(f"component index {index} out of range ({len(comps)} components)", line)
        session._declare(session.points, name,
                         generic_point_of(alg, comps[index], name=name), line)
        return
    mf = re.fullmatch(r"fiber-point\s*\(\s*(\w+)\s*,\s*(\w+)\s*,\s*(\d+)\s*\)", rhs)
    if mf:
        phi = session._lookup(session.morphisms, mf.group(1), "morphism", line)
        y = session._lookup(session.points, mf.group(2), "point", line)
        pts = maximal_points_of_fiber(phi, y)
        index = int(mf.group(3))
        if index >= len(pts):
            raise SessionError(f"fiber has {len(pts)} maximal points; index {index} out of range", line)
        pt = pts[index]
        pt.name = name
        session._declare(session.points, name, pt, line)
        return
    raise SessionError(f"bad point form: {rhs!r}", line)


def _parse_morphism(session, stmt, line):
    m = re.fullmatch(
        r"morphism\s+(\w+)\s*:\s*(\w+)\s*->\s*(\w+)\s*=\s*\[(.*)\]\s*",
        stmt.strip(), re.S)
    if not m:
        raise SessionError(f"bad morphism declaration: {stmt!r}", line)
    name, tgt_name, src_name, arrows = m.groups()
    tgt = session._lookup(session.algebras, tgt_name, "ring", line)
    src = session._lookup(session.algebras, src_name, "ring", line)
    images = {}
    for piece in _split_top(arrows):
        am = re.fullmatch(r"(\w+)\s*->\s*(.*)", piece.strip(), re.S)
        if not am:
            raise SessionError(f"bad generator arrow {piece!r}", line)
        gen, expr = am.groups()
        if gen not in tgt.ring.vars:
            raise SessionError(f"{gen!r} is not a generator of {tgt_name}", line)
        images[gen] = parse_poly(src.ring, expr)
    missing = [v for v in tgt.ring.vars if v not in images]
    if missing:
        raise SessionError(f"missing images for generators {missing}", line)
    try:
        phi = make_morphism(tgt, src, [images[v] for v in tgt.ring.vars], name=name)
    except EquipureError as exc:
        raise SessionError(f"morphism {name}: {exc}", line)
    session._declare(session.morphisms, name, phi, line)


_DECLARATIONS = {
    "field": _parse_field,
    "ring": _parse_ring,
    "ideal": _parse_ideal,
    "point": _parse_point,
    "morphism": _parse_morphism,
}


# -- command execution ---------------------------------------------------------
#
# A grammar is matched in full. `<name:kind>` is a slot (`<kind>` when the
# name is the kind) and its name is the producer's parameter; `[...]` is
# optional; a space stands for whitespace, which may be empty next to a
# parenthesis. Polynomials and ideals of a command live in its `ring` slot.

_SEP = r"(?:(?<=[()])\s*|\s*(?=[()])|\s+)"
_NAME = r"\w+"
_LIST = r"\(.*?\)"


def _named(table, what):
    return lambda session, text, line, alg: session._lookup(
        getattr(session, table), text, what, line)


def _named_list(table, what):
    one = _named(table, what)
    return lambda session, text, line, alg: [
        one(session, name, line, alg) for name in _split_top(text[1:-1])]


def _ideal(session, name, line, alg):
    handle, owner = session._lookup(session.ideals, name, "ideal", line)
    if alg is not None and session.algebras[owner] is not alg:
        raise SessionError("ideal and ring mismatch", line)
    return handle


def _ideal_in_ring(session, name, line, alg):
    # an ideal declared "in R" is measured inside R: fold in the relations
    handle, owner = session._lookup(session.ideals, name, "ideal", line)
    return handle.with_extra(session.algebras[owner].relations.generators)


def _poly(session, text, line, alg):
    return parse_poly(alg.ring, text[1:-1])


def _sequences(session, text, line, alg):
    sops = []
    for seq in _split_top(text[1:-1]):
        if not (seq.startswith("(") and seq.endswith(")")):
            raise SessionError(f"bad parameter sequence {seq!r}", line)
        sops.append([parse_poly(alg.ring, s) for s in _split_top(seq[1:-1])])
    return sops


# slot kind -> (pattern, resolver(session, text, line, ring of the command))
_SLOT_KINDS = {
    "morphism": (_NAME, _named("morphisms", "morphism")),
    "point": (_NAME, _named("points", "point")),
    "ring": (_NAME, _named("algebras", "ring")),
    "ideal": (_NAME, _ideal),
    "ideal-in-ring": (_NAME, _ideal_in_ring),
    "order": (r"lex|grevlex",
              lambda session, text, line, alg: LEX if text == "lex" else GREVLEX),
    "word": (r"[\w-]+", lambda session, text, line, alg: text),
    "morphisms": (_LIST, _named_list("morphisms", "morphism")),
    "points": (_LIST, _named_list("points", "point")),
    "poly": (_LIST, _poly),
    "sequences": (_LIST, _sequences),
}


class Command:
    """One command: its grammar and the producer of its certificate kind."""

    def __init__(self, grammar, producer):
        self.grammar = grammar
        self.producer = producer
        self.slots = {}     # slot name -> kind, in grammar order
        pattern = []
        for piece in re.split(r"(<[^>]*>|\[|\]| )", grammar):
            slot = re.fullmatch(r"<(\w+)(?::([\w-]+))?>", piece)
            if slot:
                name, kind = slot.group(1), slot.group(2) or slot.group(1)
                self.slots[name] = kind
                pattern.append(f"(?P<{name}>{_SLOT_KINDS[kind][0]})")
            else:
                pattern.append({"[": "(?:", "]": ")?", " ": _SEP}.get(piece, re.escape(piece)))
        self.pattern = "".join(pattern)     # compiled on first use, by re's cache

    def resolve(self, session, command, line):
        """The producer's arguments named by `command`."""
        m = re.fullmatch(self.pattern, command, re.S)
        if m is None:
            raise SessionError(f"bad command {command!r}; expected {self.grammar!r}", line)
        rings = [m.group(name) for name, kind in self.slots.items() if kind == "ring"]
        alg = session._lookup(session.algebras, rings[0], "ring", line) if rings else None
        return {name: _SLOT_KINDS[kind][1](session, m.group(name), line, alg)
                for name, kind in self.slots.items() if m.group(name) is not None}


COMMANDS = {c.grammar.split()[0]: c for c in (
    Command("gb <ideal>[ <order>]", produce_groebner),
    Command("dim <ideal:ideal-in-ring>", produce_dimension),
    Command("fiber-dim <morphism> at <x:point>", produce_fiber_dim),
    Command("equidim-check <morphism> at <x:point>[ probes <probes:points>]",
            produce_equidim),
    Command("factorize <morphism> at <y:point> from <x0:point>[ probes <probes:points>]",
            produce_factorization),
    Command("splits <morphism>", produce_split),
    Command("pure-at <morphism> at <point>", produce_pure_at),
    Command("splinter-probe <base:ring> covers <covers:morphisms>", produce_splinter),
    Command("strong-purity <morphism> base <base_class:word> probes <probes:points>",
            produce_strong_purity),
    Command("fedder <algebra:ring> at <point>", produce_fedder),
    Command("tc-member <z:poly> in <ideal> mult <multiplier:poly> in <algebra:ring>",
            produce_tc),
    Command("f-rational-probe <algebra:ring> sops <sops:sequences>", produce_f_rational),
    Command("descend-check <morphism> at <y:point> probes <probes:points>",
            produce_descent),
)}


def run_session(session: Session):
    """Execute every command; returns the list of Reports."""
    return [run_command(session, line, cmd) for line, cmd in session.commands]


def run_command(session: Session, line: int, command: str) -> Report:
    seed = int(session.options.get("seed", 0))
    bound = int(session.options.get("frobenius_bound", DEFAULT_FROBENIUS_BOUND))
    try:
        head = command.split()[0]
        entry = COMMANDS.get(head)
        if entry is None:
            raise SessionError(f"unknown command {head!r}", line)
        verdict, exit_class, cert, assumptions = entry.producer(
            **entry.resolve(session, command, line), seed=seed, bound=bound)
    except (EquipureError, SessionError, ValueError) as exc:
        return Report(command, f"error: {exc}", EXIT_ERROR, seed=seed)
    return Report(command, verdict, exit_class, certificate=cert,
                  assumptions=assumptions, seed=seed)
