"""Splitting ideals of module-finite maps, purity at primes, splinter probes.

For a module-finite phi: A -> B, B is presented as an A-module on the
standard monomials of the graph ideal under a block order. The module of
A-linear maps B -> A is the kernel of the transposed relation matrix, and
the splitting ideal is its image under evaluation at 1: phi splits exactly
when that ideal is the unit ideal, and the certificate carries an explicit
one-sided inverse sigma with sigma(1) = 1 that annihilates every relation
column, both identities machine-checked.

The report code of the `splits`, `pure-at`, `splinter-probe` and
`strong-purity` commands lives here too (the last section): their
producers, certificate builders, payload decoders and identity checks.
`splinter_probe` returns the verdicts its certificate records, and
`strong_purity_certificate` builds the `strong-purity` payload itself; no
record class stands between them and the payload.
`reports.PRODUCERS` names the producers by module and function, and
`reports._REPLAY` the decoders and checks by name, so a process that runs
or replays none of these commands never compiles this module, nor `modules`.
"""

from __future__ import annotations

from .errors import (
    HypothesisFailed,
    NotHypersurface,
    NotModuleFinite,
    PreconditionFailed,
    PresentationBudgetExceeded,
)
from .factorization import build_factorization, verify_equidimensional_at
from .groebner import normal_form
from .ideals import IdealHandle, krull_dim, pure_powers, standard_exponents
from .modules import (
    graph_kernel_order,
    module_buchberger,
    module_normal_form,
    syzygy_restricted,
    vec_zero,
)
from .orders import GREVLEX, block_order
from .poly import Polynomial
from .reports import (
    EXIT_ERROR,
    EXIT_OK,
    EXIT_REFUTED,
    algebra_from_obj,
    algebra_to_obj,
    factorization_certificate_obj,
    ideal_to_obj,
    morphism_from_obj,
    morphism_to_obj,
    point_from_obj,
    point_to_obj,
    poly_from_obj,
    poly_to_obj,
)
from .schemes import (
    PSEUDO_PRIME_NOTE,
    Algebra,
    Morphism,
    Point,
    decompose_components,
    dominates,
    is_module_finite,
    maximal_points_of_fiber,
    rational_point,
)


class ModulePresentation:
    """B as an A-module: monomial generators and a relation matrix over A."""

    def __init__(self, morphism: Morphism, generators, relations):
        self.morphism = morphism
        self.generators = list(generators)   # monomials in the source ring
        self.relations = list(relations)     # vectors over the target ring

    @property
    def rank(self):
        return len(self.generators)

    def one_index(self) -> int:
        for i, m in enumerate(self.generators):
            if m.is_constant():
                return i
        raise ValueError("presentation lost the generator 1")

    def __repr__(self):
        return (f"ModulePresentation(gens={[str(g) for g in self.generators]}, "
                f"{len(self.relations)} relations)")


# the most generators a module presentation may have: the syzygies behind
# its relations and the splitting ideal grow steeply with the count (100
# generators take about a second, 200 about five); tier-1's largest
# presentation has 6 and the corpus's 3
MAX_PRESENTATION_GENERATORS = 100


def module_presentation(morphism: Morphism) -> ModulePresentation:
    """Standard monomials of the graph ideal under the source-block order,
    with relations computed as the coefficient-restricted syzygies. Raises
    PresentationBudgetExceeded above MAX_PRESENTATION_GENERATORS generators."""
    gring, gideal, src_idx, tgt_idx, _ = morphism.graph()
    order = block_order(src_idx)
    basis = gideal.groebner(order)
    ns = len(src_idx)
    if len(pure_powers(basis, src_idx, order)) != ns:
        raise NotModuleFinite(
            f"{morphism.name or morphism}: some source variable has no monic equation")
    # generators: the monomials of the source variables that no leading
    # exponent free of the target variables divides
    leads = [g.leading(order)[0] for g in basis]
    exps = standard_exponents([e[:ns] for e in leads if not any(e[ns:])], ns,
                              most=MAX_PRESENTATION_GENERATORS)
    if exps is None:
        raise PresentationBudgetExceeded(
            f"{morphism.name or morphism}: a module presentation needs more than "
            f"MAX_PRESENTATION_GENERATORS = {MAX_PRESENTATION_GENERATORS} generators")
    src = morphism.source.ring
    gens = [Polynomial(src, ((m, src.field.one),)) for m in exps]

    # relations: { c in A^M : sum c_m * m  in  graph ideal }
    images = [(m.embed(gring),) for m in gens]
    rels = [(g,) for g in gideal.generators]
    kern = syzygy_restricted(images, rels, gring, coeff_front=set(src_idx))
    tring = morphism.target.ring
    relations = [
        tuple(_project_tgt(gring, tring, src_idx, tgt_idx, f) for f in vec)
        for vec in kern
    ]
    return ModulePresentation(morphism, gens, relations)


def _project_tgt(gring, tring, src_idx, tgt_idx, f: Polynomial) -> Polynomial:
    terms = []
    for e, c in f.terms:
        if any(e[i] for i in src_idx):
            raise ValueError("vector not free of source variables")
        terms.append((tuple(e[i] for i in tgt_idx), c))
    return Polynomial(tring, tuple(sorted(terms, reverse=True)))


class SplitCertificate:
    def __init__(self, morphism, splitting, sigma, presentation):
        self.morphism = morphism
        self.splitting = splitting          # IdealHandle in the target ring
        self.sigma = sigma                  # None or list of target-ring polys
        self.presentation = presentation

    def sigma_identities(self):
        """(sigma(1) == 1, sigma annihilates every relation column), both
        modulo the target's relation ideal; (None, None) without a sigma."""
        if self.sigma is None:
            return None, None
        pres = self.presentation
        tgt = self.morphism.target
        one_ix = pres.one_index()
        ev1 = tgt.reduce(self.sigma[one_ix])
        ok1 = ev1 == tgt.ring.one()
        ok2 = True
        for col in pres.relations:
            acc = tgt.ring.zero()
            for s, c in zip(self.sigma, col):
                acc = acc + s * c
            if not tgt.reduce(acc).is_zero():
                ok2 = False
                break
        return ok1, ok2

    def __repr__(self):
        return f"SplitCertificate(splits={self.sigma is not None})"


def splitting_ideal(morphism: Morphism):
    """Image of evaluation-at-1 on Hom_A(B, A), as an ideal of A represented
    in the ambient ring (the target's relations are included)."""
    pres = module_presentation(morphism)
    tring = morphism.target.ring
    m = pres.rank
    cols = pres.relations
    s = len(cols)
    jgens = list(morphism.target.relations.generators)
    if s == 0:
        hom_gens = []
        for i in range(m):
            v = [tring.zero()] * m
            v[i] = tring.one()
            hom_gens.append(tuple(v))
    else:
        # v maps to (v . col_t)_t ; kernel modulo J_A-multiples
        images = []
        for i in range(m):
            images.append(tuple(col[i] for col in cols))
        rels = []
        for j in jgens:
            for t in range(s):
                v = list(vec_zero(tring, s))
                v[t] = j
                rels.append(tuple(v))
        hom_gens = syzygy_restricted(images, rels, tring, coeff_front=None)
    one_ix = pres.one_index()
    gens = [v[one_ix] for v in hom_gens] + jgens
    handle = IdealHandle(tring, gens)
    return handle, hom_gens, pres


def splits(morphism: Morphism):
    """(bool, SplitCertificate); on success the certificate carries an
    explicit sigma with sigma(1) = 1."""
    if not is_module_finite(morphism):
        raise NotModuleFinite(f"{morphism.name or morphism} is not module-finite")
    handle, hom_gens, pres = splitting_ideal(morphism)
    tgt = morphism.target
    tring = tgt.ring
    if not handle.is_unit():
        return False, SplitCertificate(morphism, handle, None, pres)
    one_ix = pres.one_index()
    # keep zero entries so cofactors stay aligned with the hom generators
    raw = [v[one_ix] for v in hom_gens] + list(morphism.target.relations.generators)
    cofactors = _express_one(raw, tring)
    sigma = [tring.zero()] * pres.rank
    for h, v in zip(cofactors[: len(hom_gens)], hom_gens):
        if h.is_zero():
            continue
        sigma = [acc + h * comp for acc, comp in zip(sigma, v)]
    sigma = [tgt.reduce(f) for f in sigma]
    cert = SplitCertificate(morphism, handle, sigma, pres)
    ok1, ok2 = cert.sigma_identities()
    if not (ok1 and ok2):
        raise RuntimeError("constructed sigma fails its own identities")
    return True, cert


def _express_one(raw_gens, tring):
    """Cofactors h with 1 == sum h_i * raw_gens[i].

    Runs module Buchberger on the graph module {(g_i, e_i)} with the ideal
    coordinate dominant, then reduces (1, 0): the remainder's tail holds the
    negated cofactors, an exact identity by construction."""
    one = tring.one()
    r, quots = normal_form(one, raw_gens, GREVLEX, track=True)
    if r.is_zero():
        return quots
    n = len(raw_gens)
    gens = []
    for i, g in enumerate(raw_gens):
        vec = [tring.zero()] * (1 + n)
        vec[0] = g
        vec[1 + i] = tring.one()
        gens.append(tuple(vec))
    order = graph_kernel_order(1)
    gb = module_buchberger(gens, order, tring)
    probe = tuple([one] + [tring.zero()] * n)
    red = module_normal_form(probe, gb, order)
    if not red[0].is_zero():
        raise RuntimeError("unit ideal but 1 fails to reduce")
    cofactors = [-f for f in red[1:]]
    check = tring.zero()
    for h, g in zip(cofactors, raw_gens):
        check = check + h * g
    if check != one:
        raise RuntimeError("cofactor reconstruction failed")
    return cofactors


def witness_outside(morphism: Morphism, p: Point):
    """The first splitting-ideal generator outside p's defining ideal, or
    None when the splitting ideal lies inside p."""
    if not is_module_finite(morphism):
        raise NotModuleFinite("purity at a point needs a module-finite map")
    handle, _, _ = splitting_ideal(morphism)
    for g in handle.generators:
        if not p.ideal.contains(g):
            return g
    return None


# -- splinter probing -----------------------------------------------------------


def splinter_probe(base: Algebra, covers):
    """Probe the splinter property of `base` against the given module-finite
    covers with surjective Spec. Explicitly a probe over the given covers,
    never a full splinter proof.

    Returns (verdict, per-cover verdicts, witness): the verdict is
    all-probed-covers-split or refuted, each cover's entry is the
    {"cover", "splits", "splitting_ideal"} dict the certificate records,
    and the witness is the first cover that does not split, or None."""
    if not covers:
        raise ValueError("covers () is empty: need at least one cover")
    verdicts = []
    witness = None
    for phi in covers:
        if phi.target is not base and phi.target.ring != base.ring:
            raise ValueError("cover does not land on the base")
        if not is_module_finite(phi):
            raise NotModuleFinite(f"cover {phi.name or phi} is not module-finite")
        surj = _surjectivity_evidence(phi)
        if not surj:
            raise ValueError(
                f"cover {phi.name or phi} lacks surjectivity evidence "
                "(some target component is not dominated)")
        ok, cert = splits(phi)
        verdicts.append({"cover": phi.name or str(phi), "splits": ok,
                         "splitting_ideal": [str(g) for g in cert.splitting.generators]})
        if not ok and witness is None:
            witness = phi
    return ("all-probed-covers-split" if witness is None else "refuted"), verdicts, witness


def _surjectivity_evidence(phi: Morphism) -> bool:
    """Module-finite + every target component dominated by some source
    component: the image is closed and dense, hence everything."""
    scomps = decompose_components(phi.source.relations)
    for tc in decompose_components(phi.target.relations):
        hit = False
        for sc in scomps:
            ok, wit = dominates(sc, phi)
            if ok and wit.same_ideal(tc):
                hit = True
                break
        if not hit:
            return False
    return True


# -- hypersurface normality -------------------------------------------------------


def hypersurface_is_normal(algebra: Algebra) -> bool:
    """Serre's criterion specialized to hypersurfaces in characteristic zero:
    normal iff the singular locus (the relation with all its partials) has
    dimension at most dim - 2. A repeated factor inflates the singular locus
    to codimension one, so non-reduced input fails this test on its own."""
    if algebra.field.char != 0:
        raise NotHypersurface("normality test is restricted to characteristic 0")
    gb = algebra.relations.groebner()
    if len(gb) != 1:
        raise NotHypersurface("relation ideal is not principal")
    h = gb[0]
    ring = algebra.ring
    sing = [h] + [h.derivative(i) for i in range(ring.nvars)]
    sing_dim = krull_dim(IdealHandle(ring, sing))
    return sing_dim <= algebra.dim() - 2


# -- strong purity pipeline ---------------------------------------------------------


BASE_CLASSES = ("regular-polynomial-ring", "normal-Q-hypersurface",
                "user-asserted-splinter")


def strong_purity_certificate(morphism: Morphism, base_class: str, probes,
                              seed: int = 0, lifted=None):
    """Certify purity of the local maps at the probe points by the
    factor-through-affine-space route: checked equidimensionality, checked
    base hypothesis, the factorization certificate, a direct splitting
    witness for the finite leg when available, and the flat projection leg
    recorded as a cited fact. `lifted`, one recorded normalization per
    probe, is passed to `build_factorization` at that probe.

    Returns (payload, assumptions): the `strong-purity` certificate, whose
    "probes" hold one record per probe, and the assumption ledger."""
    if not probes:
        raise ValueError("probes () is empty: need at least one probe point")
    if base_class not in BASE_CLASSES:
        raise ValueError(f"unknown base class {base_class}")
    target = morphism.target
    assumptions = []
    if base_class == "regular-polynomial-ring":
        if not target.relations.is_zero():
            raise HypothesisFailed("regular-polynomial-ring",
                                   "relation ideal is not zero")
        base_evidence = {"relations": []}
        assumptions.append({"status": "cited",
                            "text": "regular rings split every module-finite extension with surjective Spec"})
    elif base_class == "normal-Q-hypersurface":
        try:
            normal = hypersurface_is_normal(target)
        except NotHypersurface as exc:
            raise HypothesisFailed("normal-Q-hypersurface", str(exc))
        if not normal:
            raise HypothesisFailed("normality",
                                   "singular locus has codimension < 2")
        base_evidence = {"singular_locus_codim_ok": True}
        assumptions.append({"status": "cited",
                            "text": "a normal Q-algebra splits every module-finite extension with surjective Spec"})
    else:
        base_evidence = {"user_asserted": True}
        assumptions.append({"status": "assumed",
                            "text": "base ring asserted to be a splinter by the user"})
    assumptions.append({"status": "cited",
                        "text": "the affine-space projection is faithfully flat, hence pure"})
    assumptions.append(PSEUDO_PRIME_NOTE)

    probe_records = []
    for k, probe in enumerate(probes):
        report = verify_equidimensional_at(morphism, probe, probes=[])
        if report["verdict"] != "certified-at-probes":
            raise HypothesisFailed("equidimensionality",
                                   f"verdict {report['verdict']} at probe {probe}")
        y = rational_point(target, morphism.image_point_coords(probe.coords))
        cands = maximal_points_of_fiber(morphism, y)
        e = report["e"]
        x0 = None
        for pt in cands:
            if pt.comp_dim != e:
                continue
            comp = pt.component if pt.component is not None else pt.ideal
            if all(g.eval_at(probe.coords) == morphism.source.field.zero
                   for g in comp.generators):
                x0 = pt
                break
        if x0 is None:
            raise HypothesisFailed("top-dimensional-component",
                                   "no full-dimensional fiber component through the probe")
        cert = build_factorization(morphism, y, x0, probes=[probe], seed=seed,
                                   lifted=None if lifted is None else lifted[k])
        record = {
            "probe": [str(c) for c in probe.coords],
            "equidim_verdict": report["verdict"],
            "factorization": factorization_certificate_obj(cert),
            "finite_leg": None,
        }
        g = cert.induced
        if is_module_finite(g):
            zc = g.image_point_coords(probe.coords)
            zp = rational_point(g.target, zc)
            witness = witness_outside(g, zp)
            is_pure = witness is not None
            record["finite_leg"] = {
                "module_finite": True,
                "pure_at_image": is_pure,
                "witness": str(witness) if is_pure else None,
            }
            if not is_pure:
                raise HypothesisFailed("finite-leg-purity",
                                       "direct splitting witness refuted purity at the image point")
        probe_records.append(record)
    return {"kind": "strong-purity", "morphism": morphism_to_obj(morphism),
            "base_class": base_class, "base_evidence": base_evidence,
            "probes": probe_records}, assumptions


# -- reports ------------------------------------------------------------------------
#
# The report code of the `split`, `pure-at`, `splinter-probe`
# and `strong-purity` kinds; `strong_purity_certificate` builds the last
# kind's payload itself.


def split_certificate_obj(cert):
    pres = cert.presentation
    return {
        "kind": "split",
        "morphism": morphism_to_obj(cert.morphism),
        "splits": cert.sigma is not None,
        "splitting_ideal": ideal_to_obj(cert.splitting),
        "sigma": [poly_to_obj(s) for s in cert.sigma] if cert.sigma is not None else None,
        "generators": [poly_to_obj(g) for g in pres.generators],
        "relation_columns": [[poly_to_obj(c) for c in col] for col in pres.relations],
    }


def produce_split(morphism, **_):
    ok, cert = splits(morphism)
    return ("splits" if ok else "does-not-split", EXIT_OK if ok else EXIT_REFUTED,
            split_certificate_obj(cert), [])


def produce_pure_at(morphism, point, **_):
    witness = witness_outside(morphism, point)
    pure = witness is not None
    cert = {"kind": "pure-at", "morphism": morphism_to_obj(morphism),
            "point": point_to_obj(point), "pure": pure,
            "witness": poly_to_obj(witness) if pure else None}
    return "pure" if pure else "not-pure", EXIT_OK if pure else EXIT_REFUTED, cert, []


def produce_splinter(base, covers, **_):
    verdict, verdicts, witness = splinter_probe(base, covers)
    cert = {"kind": "splinter-probe", "base": algebra_to_obj(base),
            "covers": [morphism_to_obj(phi) for phi in covers], "verdicts": verdicts,
            "verdict": verdict, "witness": witness.name if witness is not None else None}
    return (verdict, EXIT_REFUTED if witness is not None else EXIT_OK, cert,
            [PSEUDO_PRIME_NOTE,
             {"status": "verified",
              "text": "cover surjectivity evidenced by dominance plus module-finiteness"}])


def produce_strong_purity(morphism, base_class, probes, seed, lifted=None, **_):
    try:
        cert, assumptions = strong_purity_certificate(morphism, base_class, probes, seed=seed,
                                                      lifted=lifted)
    except HypothesisFailed as exc:
        return f"hypothesis-failed: {exc.hypothesis}", EXIT_ERROR, None, []
    except PreconditionFailed as exc:
        return f"precondition-failed: {exc}", EXIT_ERROR, None, []
    return "certificate-emitted", EXIT_OK, cert, assumptions


def _split_inputs(p):
    return {"morphism": morphism_from_obj(p["morphism"])}


def _pure_at_inputs(p):
    return {"morphism": morphism_from_obj(p["morphism"]), "point": point_from_obj(p["point"])}


def _splinter_inputs(p):
    return {"base": algebra_from_obj(p["base"]),
            "covers": [morphism_from_obj(o) for o in p["covers"]]}


def _strong_purity_inputs(p):
    # each probe record holds the factorization built at that probe alone,
    # from the normalization it records
    morphism = morphism_from_obj(p["morphism"])
    facts = [rec["factorization"] for rec in p["probes"]]
    return {"morphism": morphism, "base_class": p["base_class"],
            "probes": [point_from_obj(q) for f in facts for q in f["probes"]],
            "seed": int(facts[0]["seed"]) if facts else 0,
            "lifted": [[poly_from_obj(morphism.source.ring, s) for s in f["lifted"]]
                       for f in facts]}


def _sigma_identities(p, inputs):
    if p["sigma"] is None:
        return []
    phi = inputs["morphism"]
    tring = phi.target.ring
    pres = ModulePresentation(
        phi, [poly_from_obj(phi.source.ring, g) for g in p["generators"]],
        [[poly_from_obj(tring, c) for c in col] for col in p["relation_columns"]])
    cert = SplitCertificate(phi, None, [poly_from_obj(tring, s) for s in p["sigma"]], pres)
    at_one, annihilates = cert.sigma_identities()
    return ([] if at_one else ["sigma-evaluation-at-1"]) + (
        [] if annihilates else ["sigma-annihilates-relations"])


def _witness_identities(p, inputs):
    if p["witness"] is None:
        return []
    phi, point = inputs["morphism"], inputs["point"]
    w = poly_from_obj(phi.target.ring, p["witness"])
    handle, _, _ = splitting_ideal(phi)
    return ([] if handle.contains(w) else ["witness-not-in-splitting-ideal"]) + (
        ["witness-inside-point"] if point.ideal.contains(w) else [])
