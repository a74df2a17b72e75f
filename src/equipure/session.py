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

Names must be declared before use; redeclaration is rejected. A name is a
run of word characters. A ring's variables are names the polynomial parser
reads: a letter or '_', then letters, digits, '_' or '~'. A morphism gives
each generator of its target exactly one image. An ideal's generators, a
ring's relations and a point's coordinates have no empty entry; `()` is the
zero ideal. An ideal declared `in R` keeps its generators as written; `dim`
measures it inside R (relations folded in), `gb` reports the reduced basis
of the generators in the ambient polynomial ring.

Statements are read with `str` methods, not regular expressions. A word
character is one with `ch.isalnum() or ch == "_"` and whitespace is
`ch.isspace()`: the classes `re` gives `\\w` and `\\s`, so a statement reads
as the earlier regular-expression grammar read it.

Parsing needs the scheme layer and below only. `COMMANDS` holds each
command's grammar, and `run_command` looks the producer of the command's
head up in `reports.PRODUCERS` (which names it by module and function:
`reports` for the groebner, dimension, fiber, equidimensionality and
factorization commands, `purity` and `charp` for their families) when the
command runs, so `parse_session` compiles none of `reports`,
`factorization`, `purity`, `charp`, `modules` or `cli`.
"""

from __future__ import annotations

from .errors import EquipureError
from .fields import GF, QQ, FieldSpec
from .ideals import IdealHandle
from .orders import GREVLEX, LEX
from .poly import PolynomialRing, parse_poly
from .schemes import (
    DEFAULT_SPLIT_BUDGET,
    Morphism,
    decompose_components,
    generic_point_of,
    make_algebra,
    maximal_points_of_fiber,
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


def _statements(text: str):
    """Yield (line_number, statement) with comments stripped, numbered by
    the line the statement starts on."""
    text = "\n".join(raw.split("#", 1)[0] for raw in text.splitlines())
    pieces = text.split(";")
    line, pos, start = 1, 0, 0
    for k, piece in enumerate(pieces):
        stmt = piece.strip()
        if stmt:
            begin = start + len(piece) - len(piece.lstrip())
            line += text.count("\n", pos, begin)
            pos = begin
            if k == len(pieces) - 1:
                raise SessionError(f"statement missing ';': {stmt!r}", line)
            yield line, stmt
        start += len(piece) + 1


def parse_session(text: str, options=None) -> Session:
    session = Session(options)
    for line, stmt in _statements(text):
        head = stmt.split(None, 1)[0]
        if head not in _DECLARATIONS:
            session.commands.append((line, stmt))
            continue
        parts, declare = _DECLARATIONS[head]
        found = parts(stmt)
        if found is None:
            raise SessionError(f"bad {head} declaration: {stmt!r}", line)
        # the constructors and the polynomial parser reject bad input (F4,
        # Q[x,x], x^-1, a point off the variety, ...) with ValueError; a
        # generic point's component splitting can exhaust a budget
        try:
            declare(session, line, *found)
        except SessionError:
            raise
        except (EquipureError, ValueError) as exc:
            raise SessionError(str(exc), line)
    return session


# -- declarations ----------------------------------------------------------------
#
# Each `_*_parts` reads one declaration form and returns its parts as text,
# or None when the statement is not of that form.


def _is_name(text: str) -> bool:
    """`text` is one or more word characters."""
    return text.replace("_", "a").isalnum()


def _is_variable(text: str) -> bool:
    """`text` is a name as the polynomial parser reads one."""
    return ((text[:1].isalpha() or text[:1] == "_")
            and text.replace("_", "a").replace("~", "a").isalnum())


def _declared_name(head: str, keyword: str):
    """The name in `keyword name`, the text before a declaration's '=' or ':'."""
    words = head.split()
    if len(words) == 2 and words[0] == keyword and _is_name(words[1]):
        return words[1]
    return None


def _field_parts(stmt):
    head, eq, tok = stmt.partition("=")
    name, tok = _declared_name(head, "field"), tok.strip()
    if eq and name and (tok == "Q" or tok[:1] == "F" and tok[1:].isdecimal()):
        return name, tok
    return None


def _field_from_token(session, tok, line) -> FieldSpec:
    if tok == "Q":
        return QQ
    if tok[:1] == "F" and tok[1:].isdecimal():
        return GF(int(tok[1:]))
    return session._lookup(session.fields, tok, "field", line)


def _declare_field(session, line, name, tok):
    session._declare(session.fields, name, _field_from_token(session, tok, line), line)


def _ring_parts(stmt):
    """(name, field, variables, relations or None) of
    `ring name = field[variables]` with an optional `/ (relations)`."""
    head, eq, rest = stmt.partition("=")
    ftok, bra, rest = rest.partition("[")
    vars_str, ket, rest = rest.partition("]")
    name, ftok, rest = _declared_name(head, "ring"), ftok.strip(), rest.strip()
    if not (eq and bra and ket and name and _is_name(ftok)):
        return None
    if not rest:
        return name, ftok, vars_str, None
    rels = rest[1:].lstrip()
    if rest[0] == "/" and len(rels) >= 2 and rels[0] == "(" and rels[-1] == ")":
        return name, ftok, vars_str, rels[1:-1]
    return None


def _declare_ring(session, line, name, ftok, vars_str, rel_str):
    field = _field_from_token(session, ftok, line)
    # `Q[]` declares no variables; otherwise every entry names one
    variables = [v.strip() for v in vars_str.split(",")] if vars_str.strip() else []
    for v in variables:
        if not _is_variable(v):
            raise SessionError(f"bad ring declaration: {v!r} is not a variable name", line)
    ring = PolynomialRing(field, variables)
    rels = []
    if rel_str:
        for piece in _entries(rel_str, f"ring {name}: relation", line):
            rels.append(parse_poly(ring, piece))
    try:
        alg = make_algebra(field, variables, rels, name=name)
    except EquipureError as exc:
        raise SessionError(f"ring {name}: {exc}", line)
    session._declare(session.algebras, name, alg, line)


def _split_top(text: str):
    """Split on commas at parenthesis depth zero. Blank text has no
    pieces; otherwise every piece is kept, an empty one too."""
    if not text.strip():
        return []
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
    out.append("".join(buf).strip())
    return out


def _entries(text: str, what: str, line):
    """The pieces of `text` (see `_split_top`); an empty one is rejected,
    named by its position."""
    pieces = _split_top(text)
    for k, piece in enumerate(pieces, 1):
        if not piece:
            raise SessionError(f"{what} entry {k} is empty", line)
    return pieces


def _ideal_parts(stmt):
    """(name, generators, ring) of `ideal name = (generators) in ring`; the
    generators end at the last ')'."""
    head, eq, rest = stmt.partition("=")
    rest = rest.strip()
    close = rest.rfind(")")
    tail = rest[close + 1:].split()
    name = _declared_name(head, "ideal")
    if (eq and name and rest[:1] == "(" and close > 0
            and len(tail) == 2 and tail[0] == "in" and _is_name(tail[1])):
        return name, rest[1:close], tail[1]
    return None


def _declare_ideal(session, line, name, gens_str, ring_name):
    alg = session._lookup(session.algebras, ring_name, "ring", line)
    gens = [parse_poly(alg.ring, piece)
            for piece in _entries(gens_str, f"ideal {name}: generator", line)]
    session._declare(session.ideals, name, (IdealHandle(alg.ring, gens), ring_name), line)


def _point_parts(stmt):
    head, eq, rhs = stmt.partition("=")
    name = _declared_name(head, "point")
    return (name, rhs.strip()) if eq and name else None


def _call(rhs: str, keyword: str):
    """The text between `keyword(` and the ')' that ends `rhs`, or None."""
    if not rhs.startswith(keyword):
        return None
    rest = rhs[len(keyword):].lstrip()
    return rest[1:-1] if len(rest) >= 2 and rest[0] == "(" and rest[-1] == ")" else None


def _point_form(rhs):
    """(form, arguments) of a point's right-hand side, or None:
    closed(ring : coordinates), generic(ring[, ideal, index]) and
    fiber-point(morphism, point, index)."""
    inner = _call(rhs, "closed")
    if inner is not None:
        ring, colon, coords = inner.partition(":")
        ring = ring.strip()
        return ("closed", (ring, coords.lstrip())) if colon and _is_name(ring) else None
    for form, sizes in (("generic", (1, 3)), ("fiber-point", (3,))):
        inner = _call(rhs, form)
        if inner is None:
            continue
        args = [a.strip() for a in inner.split(",")]
        if len(args) not in sizes or not all(map(_is_name, args[:2])):
            return None
        if len(args) == 1:
            return form, (args[0], None, None)
        return (form, tuple(args)) if args[2].isdecimal() else None
    return None


def _declare_point(session, line, name, rhs):
    found = _point_form(rhs)
    if found is None:
        raise SessionError(f"bad point form: {rhs!r}", line)
    form, args = found
    if form == "closed":
        alg = session._lookup(session.algebras, args[0], "ring", line)
        coords = []
        for piece in _entries(args[1], f"point {name}: coordinate", line):
            val = parse_poly(alg.ring, piece)
            if not val.is_constant():
                raise SessionError(f"coordinate {piece!r} is not a constant", line)
            coords.append(val.constant_value())
        session._declare(session.points, name, rational_point(alg, coords, name=name), line)
    elif form == "generic":
        ring_name, ideal_name, index = args
        alg = session._lookup(session.algebras, ring_name, "ring", line)
        if ideal_name:
            handle, owner = session._lookup(session.ideals, ideal_name, "ideal", line)
            if owner != ring_name:
                raise SessionError("ideal lives in a different ring", line)
            index = int(index)
        else:
            handle, index = alg.relations, 0
        budget = int(session.options.get("budget", DEFAULT_SPLIT_BUDGET))
        comps = decompose_components(handle, budget=budget)
        if index >= len(comps):
            raise SessionError(f"component index {index} out of range ({len(comps)} components)", line)
        session._declare(session.points, name,
                         generic_point_of(alg, comps[index], name=name), line)
    else:
        phi = session._lookup(session.morphisms, args[0], "morphism", line)
        y = session._lookup(session.points, args[1], "point", line)
        pts = maximal_points_of_fiber(phi, y)
        index = int(args[2])
        if index >= len(pts):
            raise SessionError(f"fiber has {len(pts)} maximal points; index {index} out of range", line)
        pt = pts[index]
        pt.name = name
        session._declare(session.points, name, pt, line)


def _morphism_parts(stmt):
    """(name, target, source, arrows) of
    `morphism name : target -> source = [arrows]`."""
    head, eq, rest = stmt.partition("=")
    decl, colon, rings = head.partition(":")
    tgt, arrow, src = rings.partition("->")
    name, tgt, src, rest = _declared_name(decl, "morphism"), tgt.strip(), src.strip(), rest.strip()
    if (eq and colon and arrow and name and _is_name(tgt) and _is_name(src)
            and len(rest) >= 2 and rest[0] == "[" and rest[-1] == "]"):
        return name, tgt, src, rest[1:-1]
    return None


def _arrow_parts(piece):
    """(generator, image) of `generator -> image`, or None."""
    gen, arrow, expr = piece.partition("->")
    return (gen.strip(), expr.strip()) if arrow and _is_name(gen.strip()) else None


def _declare_morphism(session, line, name, tgt_name, src_name, arrows):
    tgt = session._lookup(session.algebras, tgt_name, "ring", line)
    src = session._lookup(session.algebras, src_name, "ring", line)
    images = {}
    for piece in _split_top(arrows):
        found = _arrow_parts(piece)
        if found is None:
            raise SessionError(f"bad generator arrow {piece!r}", line)
        gen, expr = found
        if gen not in tgt.ring.vars:
            raise SessionError(f"{gen!r} is not a generator of {tgt_name}", line)
        if gen in images:
            raise SessionError(f"generator {gen!r} has more than one image", line)
        images[gen] = parse_poly(src.ring, expr)
    missing = [v for v in tgt.ring.vars if v not in images]
    if missing:
        raise SessionError(f"missing images for generators {missing}", line)
    try:
        phi = Morphism(tgt, src, [images[v] for v in tgt.ring.vars], name=name)
    except EquipureError as exc:
        raise SessionError(f"morphism {name}: {exc}", line)
    session._declare(session.morphisms, name, phi, line)


# keyword -> (reader of its parts, declarer called with the parts)
_DECLARATIONS = {
    "field": (_field_parts, _declare_field),
    "ring": (_ring_parts, _declare_ring),
    "ideal": (_ideal_parts, _declare_ideal),
    "point": (_point_parts, _declare_point),
    "morphism": (_morphism_parts, _declare_morphism),
}


# -- command execution ---------------------------------------------------------
#
# A grammar is matched in full. `<name:kind>` is a slot (`<kind>` when the
# name is the kind) and its name is the producer's parameter; `[...]` is
# optional; a space stands for whitespace, which may be empty next to a
# parenthesis. Polynomials and ideals of a command live in its `ring` slot.
#
# A slot kind's scanner gives the ends a slot starting at `pos` may take, in
# the order they are tried; `follow` is what the grammar needs right after
# the slot, when that is one word after a space, or "" for the end. A name
# or word ends where its characters do: in every grammar a space or the end
# follows it, and neither can begin on a word character, so no shorter end
# could match. A list runs from '(' to a ')', the nearest first, as far as
# the rest of the grammar needs. A space takes all the whitespace there is,
# as no step after one begins on it.


def _scan_run(extra):
    """The scanner of a run of word characters and `extra`."""
    def scan(text, pos, follow):
        end = pos
        while end < len(text) and (text[end].isalnum() or text[end] == "_"
                                   or text[end] in extra):
            end += 1
        return (end,) if end > pos else ()
    return scan


def _scan_order(text, pos, follow):
    return [pos + len(w) for w in ("lex", "grevlex") if text.startswith(w, pos)]


def _scan_list(text, pos, follow):
    # with `follow` known only a ')' it can come after is an end, and a
    # search for `follow` finds those without trying every ')' between
    if not text.startswith("(", pos):
        return
    if follow == "":
        if text.endswith(")"):
            yield len(text)
    elif follow is None:
        end = text.find(")", pos + 1)
        while end >= 0:
            yield end + 1
            end = text.find(")", end + 1)
    else:
        at = text.find(follow, pos + 1)
        while at >= 0:
            end = at
            while text[end - 1].isspace():
                end -= 1
            if text[end - 1] == ")":
                yield end
            at = text.find(follow, at + 1)


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


_scan_name = _scan_run("")

# slot kind -> (scanner, resolver(session, text, line, ring of the command))
_SLOT_KINDS = {
    "morphism": (_scan_name, _named("morphisms", "morphism")),
    "point": (_scan_name, _named("points", "point")),
    "ring": (_scan_name, _named("algebras", "ring")),
    "ideal": (_scan_name, _ideal),
    "ideal-in-ring": (_scan_name, _ideal_in_ring),
    "order": (_scan_order,
              lambda session, text, line, alg: LEX if text == "lex" else GREVLEX),
    "word": (_scan_run("-"), lambda session, text, line, alg: text),
    "morphisms": (_scan_list, _named_list("morphisms", "morphism")),
    "points": (_scan_list, _named_list("points", "point")),
    "poly": (_scan_list, _poly),
    "sequences": (_scan_list, _sequences),
}


class Command:
    """One command's grammar."""

    def __init__(self, grammar):
        self.grammar = grammar
        self.slots = {}     # slot name -> kind, in grammar order
        # steps: ("word", text), (" ", None), ("slot", name), or ("[", index
        # of the first step after the group), from the grammar's pieces
        # "<slot>", "[", "]", " " and the words between them
        self.steps = []
        text = grammar.replace("<", "\0<").replace(">", ">\0")
        for mark in "[] ":
            text = text.replace(mark, f"\0{mark}\0")
        opened = []
        for piece in filter(None, text.split("\0")):
            if piece[0] == "<":
                name, _, kind = piece[1:-1].partition(":")
                self.slots[name] = kind or name
                self.steps.append(("slot", name))
            elif piece == "[":
                opened.append(len(self.steps))
                self.steps.append(("[", None))
            elif piece == "]":
                self.steps[opened.pop()] = ("[", len(self.steps))
            else:
                self.steps.append((" ", None) if piece == " " else ("word", piece))
        self.follow = {}    # slot name -> what its scanner is told follows it
        for k, (step, arg) in enumerate(self.steps):
            if step == "slot":
                after = self.steps[k + 1:k + 3]
                self.follow[arg] = ("" if not after else after[1][1]
                                    if [s for s, _ in after] == [" ", "word"] else None)

    def match(self, command):
        """slot name -> text of every slot `command` fills, or None when
        the grammar does not match all of `command`."""
        return self._match(command, 0, 0)

    def _match(self, text, i, pos):
        # recursion follows the grammar's steps, never the text's length
        steps = self.steps
        while i < len(steps):
            step, arg = steps[i]
            if step == "word":
                if not text.startswith(arg, pos):
                    return None
                pos += len(arg)
            elif step == " ":
                end = pos
                while end < len(text) and text[end].isspace():
                    end += 1
                if not (end > pos or text[pos - 1:pos] in ("(", ")")
                        or text[end:end + 1] in ("(", ")")):
                    return None
                pos = end
            elif step == "[":
                found = self._match(text, i + 1, pos)
                return found if found is not None else self._match(text, arg, pos)
            else:
                for end in _SLOT_KINDS[self.slots[arg]][0](text, pos, self.follow[arg]):
                    found = self._match(text, i + 1, end)
                    if found is not None:
                        found[arg] = text[pos:end]
                        return found
                return None
            i += 1
        return {} if pos == len(text) else None

    def resolve(self, session, command, line):
        """The producer's arguments named by `command`."""
        found = self.match(command)
        if found is None:
            raise SessionError(f"bad command {command!r}; expected {self.grammar!r}", line)
        rings = [found[name] for name, kind in self.slots.items() if kind == "ring"]
        alg = session._lookup(session.algebras, rings[0], "ring", line) if rings else None
        return {name: _SLOT_KINDS[kind][1](session, found[name], line, alg)
                for name, kind in self.slots.items() if name in found}


COMMANDS = {c.grammar.split()[0]: c for c in (
    Command("gb <ideal>[ <order>]"),
    Command("dim <ideal:ideal-in-ring>"),
    Command("fiber-dim <morphism> at <x:point>"),
    Command("equidim-check <morphism> at <x:point>[ probes <probes:points>]"),
    Command("factorize <morphism> at <y:point> from <x0:point>[ probes <probes:points>]"),
    Command("splits <morphism>"),
    Command("pure-at <morphism> at <point>"),
    Command("splinter-probe <base:ring> covers <covers:morphisms>"),
    Command("strong-purity <morphism> base <base_class:word> probes <probes:points>"),
    Command("fedder <algebra:ring> at <point>"),
    Command("tc-member <z:poly> in <ideal> mult <multiplier:poly> in <algebra:ring>"),
    Command("f-rational-probe <algebra:ring> sops <sops:sequences>"),
    Command("descend-check <morphism> at <y:point> probes <probes:points>"),
)}


def run_command(session: Session, line: int, command: str):
    """The `reports.Report` of one command, from the producer
    `reports.PRODUCERS` names for its head."""
    from . import reports

    seed = int(session.options.get("seed", 0))
    bound = int(session.options.get("frobenius_bound", reports.DEFAULT_FROBENIUS_BOUND))
    try:
        head = command.split()[0]
        entry = COMMANDS.get(head)
        if entry is None:
            raise SessionError(f"unknown command {head!r}", line)
        verdict, exit_class, cert, assumptions = reports.producer(head)(
            **entry.resolve(session, command, line), seed=seed, bound=bound)
    except (EquipureError, SessionError, ValueError) as exc:
        return reports.Report(command, f"error: {exc}", reports.EXIT_ERROR, seed=seed)
    return reports.Report(command, verdict, exit_class, certificate=cert,
                          assumptions=assumptions, seed=seed)
