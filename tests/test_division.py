"""Heap-ordered division, checked against the acceptance suite's textbook
division loop (a full scan for the biggest term at every step), and the
parametric engine's fraction-free division against its scanning form."""

import random

import pytest

from equipure.fields import GF, QQ
from equipure.groebner import buchberger, normal_form
from equipure.modules import (
    graph_kernel_elim_order,
    module_buchberger,
    module_normal_form,
    pot_order,
    vec_leading,
)
from equipure.ideals import IdealHandle
from equipure.orders import GREVLEX, LEX, block_order, exp_div, exp_divides, exp_mul
from equipure.parametric import (
    CoeffDomain,
    DenominatorLog,
    ParamPoly,
    generic_oracle,
    param_normal_form,
)
from equipure.poly import PolynomialRing, parse_poly, poly_from_dict

from test_acceptance import oracle_divide

FIELDS = [GF(7), QQ]
ORDERS = [GREVLEX, LEX, block_order([0])]


def random_poly(ring, rng, nterms=4, maxdeg=2):
    fld = ring.field
    terms = {}
    while not terms:
        for _ in range(nterms):
            exp = tuple(rng.randint(0, maxdeg) for _ in range(ring.nvars))
            c = fld.of(rng.randint(-4, 4))
            if c:
                terms[exp] = c
    return poly_from_dict(ring, terms)


def reconstruct(remainder, quotients, basis):
    acc = remainder
    for q, g in zip(quotients, basis):
        acc = acc + q * g
    return acc


def engine_order(basis, order):
    """The divisor order normal_form tries: smallest leading term first."""
    return sorted(basis, key=lambda g: (order.key(g.leading(order)[0]), g.terms))


@pytest.mark.parametrize("order", ORDERS, ids=repr)
@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.kind)
def test_heap_division_matches_oracle_on_arbitrary_bases(field, order):
    rng = random.Random(f"{field.char}-{order!r}-arbitrary")
    ring = PolynomialRing(field, ["x", "y", "z"])
    for _ in range(25):
        basis = [random_poly(ring, rng, nterms=3) for _ in range(rng.randint(1, 3))]
        f = random_poly(ring, rng, nterms=6, maxdeg=4)
        r, quots = normal_form(f, basis, order, track=True)
        assert reconstruct(r, quots, basis) == f
        assert dict(r.terms) == oracle_divide(f, engine_order(basis, order), order)


@pytest.mark.parametrize("order", ORDERS, ids=repr)
@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.kind)
def test_heap_division_remainder_is_unique_on_reduced_bases(field, order):
    rng = random.Random(f"{field.char}-{order!r}-reduced")
    ring = PolynomialRing(field, ["x", "y", "z"])
    for _ in range(6):
        gb = buchberger([random_poly(ring, rng, nterms=3) for _ in range(2)], order)
        f = random_poly(ring, rng, nterms=6, maxdeg=4)
        r, quots = normal_form(f, gb, order, track=True)
        assert reconstruct(r, quots, gb) == f
        # any divisor order gives the same remainder on a Groebner basis
        assert dict(r.terms) == oracle_divide(f, gb[::-1], order)


def test_cancelled_term_that_reenters_is_popped_once():
    # Under lex, reducing x*z by x - y cancels -y*z; reducing y^2 by
    # y^2 - y*z then brings y*z back, so the heap holds a stale entry for it.
    R = PolynomialRing(QQ, ["x", "y", "z"])
    basis = [parse_poly(R, "x - y"), parse_poly(R, "y^2 - y*z")]
    f = parse_poly(R, "x^2 + x*z - y*z")
    r, quots = normal_form(f, basis, LEX, track=True)
    assert r == parse_poly(R, "y*z")
    assert quots == [parse_poly(R, "x + y + z"), R.one()]
    assert dict(r.terms) == oracle_divide(f, basis, LEX)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.kind)
def test_module_heap_division_reconstructs_under_elim_order(field):
    rng = random.Random(f"{field.char}-module")
    ring = PolynomialRing(field, ["x", "y", "z"])
    order = graph_kernel_elim_order(1, {0}, ring.nvars)
    for _ in range(4):
        gens = [tuple(random_poly(ring, rng, nterms=2, maxdeg=1) for _ in range(3))
                for _ in range(3)]
        gb = module_buchberger(gens, order, ring)
        for basis in (gens, gb):
            leads = [vec_leading(g, order)[0] for g in basis]
            v = tuple(random_poly(ring, rng, nterms=4, maxdeg=3) for _ in range(3))
            r, quots = module_normal_form(v, basis, order, track=True)
            recon = list(r)
            for q, g in zip(quots, basis):
                recon = [acc + q * comp for acc, comp in zip(recon, g)]
            assert tuple(recon) == v
            for pos, comp in enumerate(r):
                for exp, _ in comp.terms:
                    assert not any(lpos == pos and exp_divides(lexp, exp)
                                   for lpos, lexp in leads)


@pytest.mark.parametrize("case", ["zero input", "empty basis", "all-zero basis"])
@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.kind)
def test_both_division_drivers_agree_on_the_edges(field, case):
    """A zero input, an empty basis or an all-zero basis gives the input
    back, and with track=True one zero quotient per basis element, in the
    ideal and the module engine alike."""
    ring = PolynomialRing(field, ["x", "y"])
    zero = ring.zero()
    f, g = parse_poly(ring, "x^2*y - 3*y + 1"), parse_poly(ring, "x*y - 1")
    f, basis = {"zero input": (zero, [g, zero]), "empty basis": (f, []),
                "all-zero basis": (f, [zero, zero])}[case]
    assert normal_form(f, basis, GREVLEX) == f
    assert normal_form(f, basis, GREVLEX, track=True) == (f, [zero] * len(basis))
    v, vectors = (f, zero), [(b, b) for b in basis]
    assert module_normal_form(v, vectors, pot_order()) == v
    assert module_normal_form(v, vectors, pot_order(), track=True) == (v, [zero] * len(basis))


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.kind)
def test_a_constant_generator_gives_the_basis_one_in_both_engines(field):
    ring = PolynomialRing(field, ["x", "y"])
    gens = [parse_poly(ring, text) for text in ("x^2 - y", "3", "x*y + 1")]
    assert buchberger(gens, GREVLEX) == [ring.one()]
    assert module_buchberger([(g,) for g in gens], pot_order(), ring) == [(ring.one(),)]


def scan_param_normal_form(f, basis, order, is_invertible):
    """Fraction-free reduction as it ran before heap selection: the biggest
    term is found by a scan of the working dict at every step, and the
    leads are recomputed from the basis."""
    domain = f.domain
    work = dict(f.terms)
    remainder = {}
    leads = [g.leading(order) for g in basis]
    sort_idx = sorted(
        range(len(basis)), key=lambda i: (order.key(leads[i][0]), repr(leads[i][1]))
    )
    while work:
        exp = max(work, key=order.key)
        coeff = domain.reduce(work.pop(exp))
        if coeff.is_zero():
            continue
        hit = None
        for i in sort_idx:
            lexp, lcoeff = leads[i]
            if exp_divides(lexp, exp) and is_invertible(lcoeff):
                hit = (basis[i], lexp, lcoeff)
                break
        if hit is None:
            remainder[exp] = remainder.get(exp, domain.ring.zero()) + coeff
            continue
        g, lexp, lcoeff = hit
        mexp = exp_div(exp, lexp)
        for e in list(work):
            work[e] = work[e] * lcoeff
        for e in list(remainder):
            remainder[e] = remainder[e] * lcoeff
        for e, c in g.terms.items():
            if e == lexp:
                continue
            ne = exp_mul(e, mexp)
            work[ne] = work.get(ne, domain.ring.zero()) - c * coeff
    return ParamPoly.build(f.main, domain, remainder.items())


def random_param_poly(main, domain, rng, nterms, maxdeg):
    raw = []
    for _ in range(nterms):
        exp = tuple(rng.randint(0, maxdeg) for _ in range(main.nvars))
        coeff = random_poly(domain.ring, rng, nterms=2, maxdeg=1)
        raw.append((exp, coeff))
    return ParamPoly.build(main, domain, raw)


@pytest.mark.parametrize("order", ORDERS, ids=repr)
@pytest.mark.parametrize("constraint", ["", "t^2 - s"], ids=["Q[t,s]", "Q[t,s]/q"])
def test_param_heap_division_matches_scan(constraint, order):
    rng = random.Random(f"param-{constraint}-{order!r}")
    params = PolynomialRing(QQ, ["t", "s"])
    main = PolynomialRing(QQ, ["x", "y", "z"])
    gens = [parse_poly(params, constraint)] if constraint else []
    domain = CoeffDomain(params, IdealHandle(params, gens))
    for _ in range(12):
        size = rng.randint(1, 3)
        basis = []
        while len(basis) < size:
            g = random_param_poly(main, domain, rng, nterms=3, maxdeg=2)
            if not g.is_zero():
                basis.append(g)
        f = random_param_poly(main, domain, rng, nterms=5, maxdeg=3)
        heap_log, scan_log = DenominatorLog(domain), DenominatorLog(domain)
        r = param_normal_form(f, basis, [g.leading(order) for g in basis], order,
                              generic_oracle(domain, heap_log))
        expected = scan_param_normal_form(f, basis, order, generic_oracle(domain, scan_log))
        assert r.terms == expected.terms
        assert heap_log.entries == scan_log.entries


def recording_oracle(oracle, questions):
    """`oracle`, with every coefficient it is asked about appended to
    `questions`."""
    def ask(c):
        questions.append(c)
        return oracle(c)
    return ask


def refusing_oracle(domain):
    """Certifies a coefficient only when its normal form is free of s: an
    answer that depends on the argument alone, and is sometimes no."""
    s = domain.ring.vars.index("s")

    def is_invertible(c):
        red = domain.reduce(c)
        return not red.is_zero() and all(e[s] == 0 for e, _ in red.terms)

    return is_invertible


def with_lead_coeff(g, order, coeff):
    """g with its leading coefficient under `order` replaced by `coeff`."""
    terms = dict(g.terms)
    terms[g.leading(order)[0]] = coeff
    return ParamPoly.build(g.main, g.domain, terms.items())


# constants a leading coefficient is set to, as (numerator, denominator);
# each is nonzero in Q and in GF(7)
LEAD_CONSTANTS = [(1, 1), (1, 1), (2, 1), (-3, 1), (3, 4)]


@pytest.mark.parametrize("order", ORDERS, ids=repr)
@pytest.mark.parametrize("constraint", ["", "t^2 - s"], ids=["free", "t^2-s"])
@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.kind)
@pytest.mark.parametrize("leads", ["constant", "mixed"])
def test_param_deferred_scale_matches_scan(leads, field, constraint, order):
    # Bases whose leading coefficients are field constants (1 among them),
    # alone or mixed with non-constant ones: the deferred scale must give
    # the remainder, the logged denominators and the distinct oracle
    # questions, in first-occurrence order, of rescaling at every step.
    rng = random.Random(f"scale-{leads}-{field.char}-{constraint}-{order!r}")
    params = PolynomialRing(field, ["t", "s"])
    main = PolynomialRing(field, ["x", "y", "z"])
    gens = [parse_poly(params, constraint)] if constraint else []
    domain = CoeffDomain(params, IdealHandle(params, gens))
    lead_kinds = set()
    for _ in range(10):
        size = rng.randint(2, 3)
        basis = []
        while len(basis) < size:
            g = random_param_poly(main, domain, rng, nterms=3, maxdeg=2)
            if g.is_zero():
                continue
            if leads == "constant" or rng.random() < 0.5:
                lead = params.const(field.of(*rng.choice(LEAD_CONSTANTS)))
            else:
                lead = params.var(rng.randint(0, 1)) + params.const(field.of(rng.randint(1, 3)))
            basis.append(with_lead_coeff(g, order, lead))
        lead_terms = [g.leading(order) for g in basis]
        lead_kinds.update(c.is_constant() for _, c in lead_terms)
        f = random_param_poly(main, domain, rng, nterms=6, maxdeg=3)
        for kind in ("generic", "refusing"):
            heap_log, scan_log = DenominatorLog(domain), DenominatorLog(domain)
            heap_qs, scan_qs = [], []
            if kind == "generic":
                heap_oracle = generic_oracle(domain, heap_log)
                scan_oracle = generic_oracle(domain, scan_log)
            else:
                heap_oracle = scan_oracle = refusing_oracle(domain)
            r = param_normal_form(f, basis, lead_terms, order,
                                  recording_oracle(heap_oracle, heap_qs))
            expected = scan_param_normal_form(f, basis, order,
                                              recording_oracle(scan_oracle, scan_qs))
            assert r.terms == expected.terms
            assert heap_log.entries == scan_log.entries
            assert list(dict.fromkeys(heap_qs)) == list(dict.fromkeys(scan_qs))
    assert lead_kinds == ({True} if leads == "constant" else {True, False})
