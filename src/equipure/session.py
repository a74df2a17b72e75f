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

from .errors import EquipureError, HypothesisFailed, PreconditionFailed
from .fields import GF, QQ, FieldSpec
from .ideals import IdealHandle, krull_dim
from .orders import GREVLEX, LEX
from .poly import PolyParseError, PolynomialRing, parse_poly
from .reports import (
    EXIT_ERROR,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_REFUTED,
    Report,
    descent_certificate_obj,
    dimension_certificate,
    equidim_certificate_obj,
    f_rational_certificate_obj,
    factorization_certificate_obj,
    fedder_certificate_obj,
    groebner_certificate,
    pure_at_certificate_obj,
    splinter_certificate_obj,
    split_certificate_obj,
    strong_purity_certificate_obj,
    tc_certificate_obj,
)
from .schemes import (
    decompose_components,
    fiber_dim_at,
    generic_point_of,
    make_algebra,
    make_morphism,
    rational_point,
)


class SessionError(EquipureError):
    def __init__(self, message, line=None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


PSEUDO_PRIME_NOTE = {
    "status": "assumed",
    "text": "component covers are pseudo-prime: leaves carry no primality certificate",
}
TEST_ELEMENT_NOTE = {
    "status": "assumed",
    "text": "multiplier candidates are treated as test elements; negative closure verdicts are conditional on that",
}


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


_STMT_RE = re.compile(r"[^;]*;")


def _statements(text: str):
    """Yield (line_number, statement) with comments stripped."""
    clean_lines = []
    for raw in text.splitlines():
        hash_ix = raw.find("#")
        clean_lines.append(raw if hash_ix < 0 else raw[:hash_ix])
    numbered = []
    for i, ln in enumerate(clean_lines, start=1):
        for ch in ln + "\n":
            numbered.append((i, ch))
    buf = []
    start_line = None
    for line_no, ch in numbered:
        if ch == ";":
            stmt = "".join(buf).strip()
            if stmt:
                yield (start_line or line_no), stmt
            buf = []
            start_line = None
        else:
            if ch.strip() and start_line is None:
                start_line = line_no
            buf.append(ch)
    tail = "".join(buf).strip()
    if tail:
        raise SessionError(f"statement missing ';': {tail!r}",
                           start_line)


def parse_session(text: str, options=None) -> Session:
    session = Session(options)
    for line, stmt in _statements(text):
        head = stmt.split(None, 1)[0]
        declare = _DECLARATIONS.get(head)
        if declare is None:
            session.commands.append((line, stmt))
            continue
        # the constructors reject bad input (F4, Q[x,x], ...) with ValueError
        try:
            declare(session, stmt, line)
        except ValueError as exc:
            raise SessionError(str(exc), line)
    return session


def _parse_field(session, stmt, line):
    m = re.fullmatch(r"field\s+(\w+)\s*=\s*(Q|F(\d+))", stmt.strip())
    if not m:
        raise SessionError(f"bad field declaration: {stmt!r}", line)
    name = m.group(1)
    spec = QQ if m.group(2) == "Q" else GF(int(m.group(3)))
    session._declare(session.fields, name, spec, line)


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
            try:
                rels.append(parse_poly(ring, piece))
            except PolyParseError as exc:
                raise SessionError(str(exc), line)
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
        try:
            gens.append(parse_poly(alg.ring, piece))
        except PolyParseError as exc:
            raise SessionError(str(exc), line)
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
            try:
                val = parse_poly(alg.ring, piece)
            except PolyParseError as exc:
                raise SessionError(str(exc), line)
            if not val.is_constant():
                raise SessionError(f"coordinate {piece!r} is not a constant", line)
            coords.append(val.constant_value())
        try:
            pt = rational_point(alg, coords, name=name)
        except ValueError as exc:
            raise SessionError(str(exc), line)
        session._declare(session.points, name, pt, line)
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
        comps, _ = decompose_components(handle,
                                        budget=int(session.options.get("budget", 64)))
        if index >= len(comps):
            raise SessionError(f"component index {index} out of range ({len(comps)} components)", line)
        session._declare(session.points, name,
                         generic_point_of(alg, comps[index], name=name), line)
        return
    mf = re.fullmatch(r"fiber-point\s*\(\s*(\w+)\s*,\s*(\w+)\s*,\s*(\d+)\s*\)", rhs)
    if mf:
        from .factorization import maximal_points_of_fiber

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
        try:
            images[gen] = parse_poly(src.ring, expr)
        except PolyParseError as exc:
            raise SessionError(str(exc), line)
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


def run_session(session: Session):
    """Execute every command; returns the list of Reports."""
    return [run_command(session, line, cmd) for line, cmd in session.commands]


def run_command(session: Session, line: int, command: str) -> Report:
    seed = int(session.options.get("seed", 0))
    try:
        return _dispatch(session, line, command, seed)
    except (EquipureError, SessionError, ValueError) as exc:
        return Report(command, f"error: {exc}", EXIT_ERROR, seed=seed)


def _dispatch(session, line, command, seed) -> Report:
    bound = int(session.options.get("frobenius_bound", 3))
    parts = command.split()
    head = parts[0]

    if head == "gb":
        handle, _ = session._lookup(session.ideals, parts[1], "ideal", line)
        order = GREVLEX
        if len(parts) > 2:
            order = {"lex": LEX, "grevlex": GREVLEX}.get(parts[2])
            if order is None:
                raise SessionError(f"unknown order {parts[2]!r}", line)
        cert = groebner_certificate(handle, order)
        return Report(command, f"basis-size-{len(cert['basis'])}", EXIT_OK,
                      certificate=cert, seed=seed)

    if head == "dim":
        handle, owner = session._lookup(session.ideals, parts[1], "ideal", line)
        alg = session._lookup(session.algebras, owner, "ring", line)
        # an ideal declared "in R" is measured inside R: fold in the relations
        total = handle.with_extra(alg.relations.generators)
        d = krull_dim(total)
        return Report(command, str(d), EXIT_OK,
                      certificate=dimension_certificate(total), seed=seed)

    if head == "fiber-dim":
        phi, x = _phi_at_point(session, parts, line)
        d = fiber_dim_at(phi, x)
        return Report(command, str(d), EXIT_OK,
                      assumptions=[PSEUDO_PRIME_NOTE], seed=seed)

    if head == "equidim-check":
        from .factorization import verify_equidimensional_at

        phi, x = _phi_at_point(session, parts, line)
        probes = _probe_list(session, command, line)
        report = verify_equidimensional_at(phi, x, probes)
        exit_class = {"certified-at-probes": EXIT_OK,
                      "refuted": EXIT_REFUTED}.get(report.verdict, EXIT_INCONCLUSIVE)
        return Report(command, report.verdict, exit_class,
                      certificate=equidim_certificate_obj(phi, x, probes, report),
                      assumptions=[PSEUDO_PRIME_NOTE], seed=seed)

    if head == "factorize":
        from .factorization import build_factorization

        m = re.fullmatch(r"factorize\s+(\w+)\s+at\s+(\w+)\s+from\s+(\w+)"
                         r"(?:\s+probes\s*\((.*)\))?", command, re.S)
        if not m:
            raise SessionError(f"bad factorize command: {command!r}", line)
        phi = session._lookup(session.morphisms, m.group(1), "morphism", line)
        y = session._lookup(session.points, m.group(2), "point", line)
        x0 = session._lookup(session.points, m.group(3), "point", line)
        probes = [session._lookup(session.points, p.strip(), "point", line)
                  for p in _split_top(m.group(4))] if m.group(4) else []
        try:
            cert = build_factorization(phi, y, x0, probes=probes, seed=seed)
        except PreconditionFailed as exc:
            return Report(command, f"precondition-failed: {exc}", EXIT_ERROR, seed=seed)
        return Report(command, "certificate-emitted", EXIT_OK,
                      certificate=factorization_certificate_obj(cert),
                      assumptions=[PSEUDO_PRIME_NOTE], seed=seed)

    if head == "splits":
        from .purity import splits as do_splits

        phi = session._lookup(session.morphisms, parts[1], "morphism", line)
        ok, cert = do_splits(phi)
        return Report(command, "splits" if ok else "does-not-split",
                      EXIT_OK if ok else EXIT_REFUTED,
                      certificate=split_certificate_obj(cert), seed=seed)

    if head == "pure-at":
        from .purity import witness_outside

        phi, p = _phi_at_point(session, parts, line)
        witness = witness_outside(phi, p)
        verdict = witness is not None
        return Report(command, "pure" if verdict else "not-pure",
                      EXIT_OK if verdict else EXIT_REFUTED,
                      certificate=pure_at_certificate_obj(phi, p, verdict, witness),
                      seed=seed)

    if head == "splinter-probe":
        from .purity import splinter_probe

        m = re.fullmatch(r"splinter-probe\s+(\w+)\s+covers\s*\((.*)\)", command, re.S)
        if not m:
            raise SessionError(f"bad splinter-probe command: {command!r}", line)
        base = session._lookup(session.algebras, m.group(1), "ring", line)
        covers = [session._lookup(session.morphisms, c.strip(), "morphism", line)
                  for c in _split_top(m.group(2))]
        report = splinter_probe(base, covers)
        ok = report.verdict == "all-probed-covers-split"
        return Report(command, report.verdict, EXIT_OK if ok else EXIT_REFUTED,
                      certificate=splinter_certificate_obj(report, covers),
                      assumptions=[PSEUDO_PRIME_NOTE,
                                   {"status": "verified",
                                    "text": "cover surjectivity evidenced by dominance plus module-finiteness"}],
                      seed=seed)

    if head == "fedder":
        from .charp import FrobeniusContext, fedder_f_pure
        from .errors import NotHypersurface

        phi_alg, p = _phi_at_point(session, parts, line, table="algebras")
        gb = phi_alg.relations.groebner()
        if len(gb) != 1:
            raise NotHypersurface("fedder needs a hypersurface ring")
        ctx = FrobeniusContext(phi_alg)
        verdict = fedder_f_pure(gb[0], p, ctx)
        return Report(command, "F-pure" if verdict else "not-F-pure",
                      EXIT_OK if verdict else EXIT_REFUTED,
                      certificate=fedder_certificate_obj(gb[0], p, ctx, verdict),
                      seed=seed)

    if head == "tc-member":
        from .charp import FrobeniusContext, tc_member_certificate

        m = re.fullmatch(r"tc-member\s*\((.*?)\)\s*in\s+(\w+)\s+mult\s*\((.*?)\)\s*in\s+(\w+)",
                         command, re.S)
        if not m:
            raise SessionError(f"bad tc-member command: {command!r}", line)
        alg = session._lookup(session.algebras, m.group(4), "ring", line)
        handle, owner = session._lookup(session.ideals, m.group(2), "ideal", line)
        if owner != m.group(4):
            raise SessionError("ideal and ring mismatch", line)
        z = parse_poly(alg.ring, m.group(1))
        mult = parse_poly(alg.ring, m.group(3))
        ctx = FrobeniusContext(alg)
        verdict = tc_member_certificate(z, handle, mult, bound, ctx)
        exit_class = {"Member": EXIT_OK, "NotInClosure": EXIT_REFUTED}.get(
            verdict.status, EXIT_INCONCLUSIVE)
        return Report(command, verdict.status, exit_class,
                      certificate=tc_certificate_obj(verdict, ctx),
                      assumptions=[TEST_ELEMENT_NOTE], seed=seed)

    if head == "f-rational-probe":
        from .charp import FrobeniusContext, f_rational_probe

        m = re.fullmatch(r"f-rational-probe\s+(\w+)\s+sops\s*\((.*)\)", command, re.S)
        if not m:
            raise SessionError(f"bad f-rational-probe command: {command!r}", line)
        alg = session._lookup(session.algebras, m.group(1), "ring", line)
        sops = []
        for seq_str in _split_top(m.group(2)):
            inner = seq_str.strip()
            if not (inner.startswith("(") and inner.endswith(")")):
                raise SessionError(f"bad parameter sequence {seq_str!r}", line)
            sops.append([parse_poly(alg.ring, s) for s in _split_top(inner[1:-1])])
        ctx = FrobeniusContext(alg)
        report = f_rational_probe(alg, sops, bound, ctx)
        exit_class = EXIT_OK if report.clean() else (
            EXIT_REFUTED if report.verdict == "NotFRational" else EXIT_INCONCLUSIVE)
        return Report(command, report.verdict, exit_class,
                      certificate=f_rational_certificate_obj(report, sops, bound),
                      assumptions=[TEST_ELEMENT_NOTE,
                                   {"status": "assumed",
                                    "text": "dimension-drop parameter test valid for the equidimensional catenary corpus"}],
                      seed=seed)

    if head == "descend-check":
        from .charp import f_rational_descent_check

        m = re.fullmatch(r"descend-check\s+(\w+)\s+at\s+(\w+)\s+probes\s*\((.*)\)",
                         command, re.S)
        if not m:
            raise SessionError(f"bad descend-check command: {command!r}", line)
        phi = session._lookup(session.morphisms, m.group(1), "morphism", line)
        y = session._lookup(session.points, m.group(2), "point", line)
        probes = [session._lookup(session.points, p.strip(), "point", line)
                  for p in _split_top(m.group(3))]
        try:
            report = f_rational_descent_check(phi, y, probes, bound)
        except HypothesisFailed as exc:
            return Report(command, f"refused: {exc}", EXIT_ERROR, seed=seed)
        ok = report.verdict == "consistent"
        return Report(command, report.verdict, EXIT_OK if ok else EXIT_REFUTED,
                      certificate=descent_certificate_obj(report, y, probes, bound),
                      assumptions=report.assumptions, seed=seed)

    if head == "strong-purity":
        from .purity import strong_purity_certificate

        m = re.fullmatch(r"strong-purity\s+(\w+)\s+base\s+([\w-]+)\s+probes\s*\((.*)\)",
                         command, re.S)
        if not m:
            raise SessionError(f"bad strong-purity command: {command!r}", line)
        phi = session._lookup(session.morphisms, m.group(1), "morphism", line)
        probes = [session._lookup(session.points, p.strip(), "point", line)
                  for p in _split_top(m.group(3))]
        try:
            cert = strong_purity_certificate(phi, m.group(2), probes, seed=seed)
        except HypothesisFailed as exc:
            return Report(command, f"hypothesis-failed: {exc.hypothesis}", EXIT_ERROR,
                          seed=seed)
        return Report(command, "certificate-emitted", EXIT_OK,
                      certificate=strong_purity_certificate_obj(cert),
                      assumptions=cert.assumptions, seed=seed)

    raise SessionError(f"unknown command {head!r}", line)


def _phi_at_point(session, parts, line, table="morphisms"):
    if len(parts) < 4 or parts[2] != "at":
        raise SessionError(f"expected '<name> at <point>': {' '.join(parts)!r}", line)
    obj = session._lookup(getattr(session, table), parts[1],
                          "morphism" if table == "morphisms" else "ring", line)
    point = session._lookup(session.points, parts[3], "point", line)
    return obj, point


def _probe_list(session, command, line):
    m = re.search(r"probes\s*\((.*)\)", command, re.S)
    if not m:
        return []
    return [session._lookup(session.points, p.strip(), "point", line)
            for p in _split_top(m.group(1))]
