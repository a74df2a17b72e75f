"""Groebner computations with coefficients in a quotient domain k[params]/q.

This is the engine behind two features:

  * generic fibers: the fiber of a morphism over the generic point of a
    component V(q) lives over the fraction field of k[params]/q. Rather than
    implementing fraction-field arithmetic, reductions run fraction-free over
    the domain and every leading coefficient that would have been inverted is
    logged as a denominator, each one certified nonzero modulo q. A leading
    coefficient that is a field constant is not multiplied through: it joins
    one deferred constant scale that the remainder takes once, at the end,
    and each divisor's leading coefficient is put to the oracle once per
    reduction;
  * quasi-finite strata: the same loop run with branching instead of
    certification. When a leading coefficient is neither zero modulo the
    branch constraints nor assumed nonzero, the computation forks on the two
    cases, Suzuki--Sato style.

A `ParamPoly`'s coefficients are Polynomials in canonical normal form
modulo the constraint ideal, so all outputs are byte-stable. Buchberger's
pairs run through the pair loop the three engines share
(`groebner._pair_loop`), with the coprime and chain criteria and a pair
budget; division and S-polynomials are this module's own, fraction-free.
The chain criterion holds here because every leading coefficient is
certified nonzero (or assumed nonzero on the stratum) before its element
enters the loop, so leading monomials are those over the fraction field.
The loops run on packed monomials (see `orders.Packing`) with packed
coefficients: a coefficient is a dict K -> field element under the
parameter ring's grevlex packing of the same width (see
`CoeffDomain._packed`), and its normal form is the ideal engine's
`groebner._reduce` by the constraint basis. No Polynomial arithmetic runs
inside the loops; coefficients become Polynomials at three boundaries only:
the oracle's questions, the remainder and the output basis. A `ParamPoly`'s
terms stay keyed by exponent tuples, because callers mutate its `terms`
dict.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .errors import ParamBudgetError
from .groebner import _divisor as _field_divisor, _minimal, _pair_loop
from .groebner import _reduce as _field_reduce, normal_form
from .ideals import IdealHandle, independent_dim
from .orders import GREVLEX, PackingOverflow, _packed_run, _packing
from .poly import Polynomial, PolynomialRing, poly_from_dict


# the most pairs a parametric Buchberger run pops, skipped ones included,
# and the most terms one fraction-free reduction pops
PARAM_PAIR_BUDGET = 4000
PARAM_REDUCTION_STEPS = 20000


class CoeffDomain:
    """k[params]/q with normal-form representatives."""

    def __init__(self, param_ring: PolynomialRing, constraint: IdealHandle):
        self.ring = param_ring
        self.constraint = constraint
        self._gb = constraint.groebner()
        self._widths = {}

    def reduce(self, f: Polynomial) -> Polynomial:
        if not self._gb:
            return f
        return normal_form(f, self._gb, GREVLEX)

    def _packed(self, bits):
        """(the grevlex packing of the parameter ring `bits` wide, the
        constraint basis as `groebner._divisor` entries under it), built
        once per width. A packed coefficient is a dict K -> field element
        under that packing; `groebner._reduce` by the entries gives its
        normal form, and with no constraint it is its own. Raises
        PackingOverflow when a basis exponent does not fit."""
        entry = self._widths.get(bits)
        if entry is None:
            n = self.ring.nvars
            packing = _packing(GREVLEX.fields(n), n, bits)
            divisors = sorted(_field_divisor(g, i, packing) for i, g in enumerate(self._gb))
            entry = self._widths[bits] = (packing, divisors)
        return entry

    def __repr__(self):
        return f"{self.ring} mod {self.constraint}"


class ParamPoly:
    """Polynomial in the main variables with CoeffDomain coefficients."""

    __slots__ = ("main", "domain", "terms")

    def __init__(self, main: PolynomialRing, domain: CoeffDomain, terms):
        self.main = main
        self.domain = domain
        self.terms = dict(terms)

    @classmethod
    def build(cls, main, domain, raw_terms):
        acc = {}
        for exp, coeff in raw_terms:
            exp = tuple(exp)
            acc[exp] = acc[exp] + coeff if exp in acc else coeff
        out = {}
        for exp, coeff in acc.items():
            red = domain.reduce(coeff)
            if not red.is_zero():
                out[exp] = red
        return cls(main, domain, out)

    def is_zero(self):
        return not self.terms

    def renormalize(self, domain):
        return ParamPoly.build(self.main, domain, self.terms.items())

    def leading(self, order):
        exp = _packed_run(order.packing(self.main.nvars),
                          lambda packing: max(self.terms, key=packing.encode))
        return exp, self.terms[exp]

    def sub(self, other):
        acc = dict(self.terms)
        for e, c in other.terms.items():
            acc[e] = acc[e] - c if e in acc else -c
        return ParamPoly.build(self.main, self.domain, acc.items())

    def sorted_terms(self):
        return _packed_run(GREVLEX.packing(self.main.nvars), lambda packing: sorted(
            self.terms.items(), key=lambda t: packing.encode(t[0]), reverse=True))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                f"{self.main.vars[i]}^{k}" if k > 1 else self.main.vars[i]
                for i, k in enumerate(e)
                if k
            )
            cs = str(c)
            if mono:
                bits.append(f"({cs})*{mono}" if not c.is_constant() or cs != "1" else mono)
            else:
                bits.append(f"({cs})")
        return " + ".join(bits)


def split_poly(f: Polynomial, main: PolynomialRing, domain: CoeffDomain,
               main_idx, param_idx) -> ParamPoly:
    """View f in k[all vars] as a ParamPoly: main-variable exponents carry
    param-variable sub-monomials into the coefficients."""
    raw = []
    for e, c in f.terms:
        mexp = tuple(e[i] for i in main_idx)
        pexp = tuple(e[i] for i in param_idx)
        raw.append((mexp, Polynomial(domain.ring, ((pexp, c),))))
    return ParamPoly.build(main, domain, raw)


class DenominatorLog:
    """Deduplicated list of inverted coefficients with nonzero certificates."""

    def __init__(self, domain: CoeffDomain):
        self.domain = domain
        self.entries = []
        self._seen = set()

    def record(self, red: Polynomial):
        """Log a coefficient in normal form modulo the domain's constraint."""
        if red.is_zero():
            raise ValueError("attempted to invert a coefficient that is 0 mod q")
        if red.is_constant():
            return  # field units need no certificate
        key = red.terms
        if key in self._seen:
            return
        self._seen.add(key)
        self.entries.append(red)


def generic_oracle(domain: CoeffDomain, log: DenominatorLog):
    def is_invertible(c: Polynomial) -> bool:
        red = domain.reduce(c)
        if red.is_zero():
            return False
        log.record(red)
        return True

    return is_invertible


def _keyed(g, packing, cpacking):
    """The terms of a ParamPoly as a dict K -> packed coefficient, as
    (K, element) pairs under `cpacking`. The pairs are not kept on the
    coefficient Polynomials, which outlive the run in its output."""
    cencode = cpacking.encode
    return {packing.encode(e): tuple([(cencode(ce), v) for ce, v in c.terms])
            for e, c in g.terms.items()}


def _param_poly(main, domain, rem, packing, cpacking):
    """The ParamPoly of a packed remainder (see `_reduce`)."""
    decode, cdecode = packing.decode, cpacking.decode
    ring = domain.ring
    return ParamPoly(main, domain, {
        decode(k): poly_from_dict(ring, {cdecode(kc): v for kc, v in c.items()})
        for k, c in rem.items()})


def _divisor(kterms, klead, lcoeff, i, packing):
    """Entry of basis element i in a sorted divisor list. The element is
    given as a dict K -> packed coefficient (see `_keyed`), with leading K
    `klead` and leading coefficient `lcoeff`. Divisors are tried smallest
    leading monomial first, ties broken by the printed leading coefficient,
    then by index. The entry carries K(lead) - one, `lcoeff` (the oracle's question), the
    other packed terms, the packed leading coefficient, and, when the
    leading coefficient is a field constant, that constant (else None) and
    its negated inverse (None for a leading coefficient that is not a
    constant or is 1), as `groebner._divisor` carries the inverse."""
    tail = tuple((k, c) for k, c in kterms.items() if k != klead)
    lc = ninv = None
    if lcoeff.is_constant():
        lc = lcoeff.terms[0][1]
        fld = lcoeff.ring.field
        if lc != fld.one:
            ninv = fld.neg(fld.inv(lc))
    return (klead, repr(lcoeff), i, klead - packing.one, lcoeff, tail, kterms[klead], lc, ninv)


def _reduce(work, domain, divisors, packing, is_invertible):
    """Fraction-free full reduction of the packed dict `work` (K -> packed
    coefficient as a dict, emptied on the way) by `divisors` (see
    `_divisor`); the remainder as a dict K -> packed coefficient in normal
    form, zeros left out.

    Coefficients stay packed under the domain's packing of the same width
    as `packing` (see `CoeffDomain._packed`), so a coefficient product that
    leaves its fields raises PackingOverflow and `_packed_run` runs the
    division again, both packings twice as wide. A working coefficient is
    brought to its normal form when it is popped; the remainder's
    coefficients are kept in normal form, so the caller converts the
    remainder to Polynomials once and does not reduce it again.

    The true working value and remainder are `scale` times the stored ones,
    for one running field constant `scale`. A step by a field-constant
    leading coefficient lc sets `scale <- scale*lc` and subtracts
    (coeff/lc)*x^m*g from the stored work, touching only the terms of g;
    a step by lc == 1 touches neither. Only a non-constant lc multiplies
    every stored coefficient. The multiplier is negated once per step, so
    the terms of g are added. The remainder is multiplied by `scale` once,
    at the end. Reduction modulo the constraint is linear and a nonzero
    constant changes no zero test, so the pops, the oracle questions and
    the remainder are those of rescaling at every step.

    Each divisor's `is_invertible` answer is kept for the rest of the call,
    so the oracle is asked about a divisor once, at its first use. That
    rests on the contract stated under `param_buchberger`: an answer is a
    function of its argument, and a repeated question has no effect.

    Terms are popped largest-first from a heap of -K (Monagan & Pearce); a
    K is pushed when it enters the working dict, and only a pop takes it
    out again. The divisibility test and the product are those of
    `groebner._reduce`."""
    fld = domain.ring.field
    fone = fld.one
    mul, add, neg = fld.mul, fld.add, fld.neg
    cpacking, constraint = domain._packed(packing.bits)
    cone, cguard = cpacking.one, cpacking.guard
    one, guard, mask = packing.one, packing.guard, packing.divmask
    heap = [-k for k in work]
    heapify(heap)
    remainder = {}
    scale = fone
    answers = {}
    steps = 0
    while heap:
        steps += 1
        if steps > PARAM_REDUCTION_STEPS:
            raise ParamBudgetError("parametric reduction budget exceeded")
        k = -heappop(heap)
        coeff = work.pop(k)
        if constraint:
            coeff = _field_reduce(coeff, constraint, cpacking, fld)
        if not coeff:
            continue
        for entry in divisors:
            d = k - entry[3]
            if not d & mask:
                i = entry[2]
                ok = answers.get(i)
                if ok is None:
                    ok = answers[i] = is_invertible(entry[4])
                if ok:
                    break
        else:
            remainder[k] = coeff
            continue
        ninv = entry[8]
        if ninv is not None:
            # true work <- lc*true work - coeff*x^m*g, kept as a scale
            scale = mul(scale, entry[7])
            mc = [(kc, mul(vc, ninv)) for kc, vc in coeff.items()]
        else:
            if entry[7] is None:
                # work <- lcoeff*work - coeff*x^m*g ; scale remainder alongside
                plc = entry[6]
                for e, c in work.items():
                    work[e] = _product(c.items(), plc, cpacking, fld)
                for e, c in remainder.items():
                    c = _product(c.items(), plc, cpacking, fld)
                    remainder[e] = _field_reduce(c, constraint, cpacking, fld) if constraint else c
            mc = [(kc, neg(vc)) for kc, vc in coeff.items()]
        # work <- work + mc*x^m*tail(g), mc the negated multiplier
        shift = d - one
        for ke, c in entry[5]:
            ne = ke + shift
            cur = work.get(ne)
            if cur is None:
                if ne & guard:
                    raise PackingOverflow("a product leaves its fields")
                heappush(heap, -ne)
                cur = work[ne] = {}
            for kt, vt in c:
                for kc, vc in mc:
                    kk = kt + kc - cone
                    if kk & cguard:
                        raise PackingOverflow("a product leaves its fields")
                    old = cur.get(kk)
                    if old is None:
                        cur[kk] = mul(vt, vc)
                    else:
                        new = add(old, mul(vt, vc))
                        if new:
                            cur[kk] = new
                        else:
                            del cur[kk]
    if scale != fone:
        return {k: {kc: mul(vc, scale) for kc, vc in c.items()}
                for k, c in remainder.items() if c}
    return {k: c for k, c in remainder.items() if c}


def _product(a, b, cpacking, fld):
    """The product of two packed coefficients given as (K, element) pairs,
    as a dict."""
    one, guard = cpacking.one, cpacking.guard
    mul, add = fld.mul, fld.add
    out = {}
    for ka, va in a:
        for kb, vb in b:
            k = ka + kb - one
            if k & guard:
                raise PackingOverflow("a product leaves its fields")
            v = mul(va, vb)
            if k in out:
                v = add(out[k], v)
                if not v:
                    del out[k]
                    continue
            out[k] = v
    return out


def param_buchberger(gens, order, domain: CoeffDomain, is_invertible):
    """Fraction-free Buchberger over the coefficient domain. Over the fraction
    field of the domain (or over each point of a stratum where the assumed
    coefficients stay nonzero), the output monomials are those of a Groebner
    basis of the extended ideal.

    The pairs run through the shared loop `groebner._pair_loop` with the
    coprime and chain criteria and `PARAM_PAIR_BUDGET` popped pairs at most; each pair's
    S-polynomial is reduced by the fraction-free `_reduce`, and a nonzero
    remainder joins the basis as it is. The output is the minimal basis of
    what the loop ends with (see `groebner._minimal`), not a reduced one,
    sorted by leading monomial, no two alike: its leading monomials do not
    depend on which pairs the criteria skip, but its elements and the
    oracle's questions do.

    The oracle has effects (a `DenominatorLog` entry, or a `BranchSignal`),
    and the engine relies on its contract: an answer is a function of its
    argument, and a repeated question adds no effect (`DenominatorLog`
    keeps each entry once). Both oracles in the package meet it. `_reduce`
    asks about each divisor once per call on that ground, and a run that
    overflows its packing is rerun wider, asking a prefix of its questions
    again."""
    return _param_buchberger(gens, order, domain, is_invertible, PARAM_PAIR_BUDGET)


def _param_buchberger(gens, order, domain, is_invertible, budget):
    basis = []
    leads = []
    for g in gens:
        g = g.renormalize(domain)
        if not g.is_zero():
            # a leading term is only a leading term where its coefficient is
            # nonzero: certify (or branch on) every basis element's lc
            lead = g.leading(order)
            is_invertible(lead[1])
            basis.append(g)
            leads.append(lead)
    if not basis:
        return []
    main = basis[0].main

    def run(packing):
        # A run that overflows the packing asks a prefix of the questions the
        # wider run asks again, so by the oracle contract under
        # `param_buchberger` it adds no effect.
        cpacking = domain._packed(packing.bits)[0]
        decode = packing.decode
        polys = list(basis)

        def step(fentry, gentry, klcm, divisors, index):
            rem = _reduce(_s_work(fentry, gentry, klcm, packing, domain), domain, divisors,
                          packing, is_invertible)
            if not rem:
                return None
            r = _param_poly(main, domain, rem, packing, cpacking)
            klead = max(rem)
            lcoeff = r.terms[decode(klead)]
            is_invertible(lcoeff)
            polys.append(r)
            return _divisor({k: tuple(c.items()) for k, c in rem.items()}, klead, lcoeff, index,
                            packing)

        entries = _pair_loop([_divisor(_keyed(g, packing, cpacking), packing.encode(lexp),
                                       lcoeff, i, packing)
                              for i, (g, (lexp, lcoeff)) in enumerate(zip(basis, leads))],
                             packing, step, coprime=True, chain=True, budget=budget)
        keep = _minimal(entries, packing)
        # by packed leading monomial, which compares as the order does;
        # `_minimal` leaves no two equal
        keep.sort(key=lambda e: e[0])
        return [polys[e[2]] for e in keep]

    return _packed_run(order.packing(main.nvars), run)


def _s_work(fentry, gentry, klcm, packing, domain):
    """The packed S-polynomial lc(g)*(lcm/lm(f))*f - lc(f)*(lcm/lm(g))*g of
    two divisor entries, as a working dict of packed coefficients in normal
    form, zeros dropped. Each product is reduced once, and only when the
    other leading coefficient is not a field constant: the tail
    coefficients are normal forms already, and so is a difference of two
    normal forms. The leading terms cancel and are left out."""
    fld = domain.ring.field
    cpacking, constraint = domain._packed(packing.bits)
    guard = packing.guard

    def moved(entry, other):
        shift = klcm - entry[3] - packing.one
        lc = other[7]
        out = {}
        for k, c in entry[5]:
            ne = k + shift
            if ne & guard:
                raise PackingOverflow("a product leaves its fields")
            if lc is None:
                c = _product(c, other[6], cpacking, fld)
                if constraint:
                    c = _field_reduce(c, constraint, cpacking, fld)
                if c:
                    out[ne] = c
            elif other[8] is None:
                out[ne] = dict(c)
            else:
                out[ne] = {kc: fld.mul(vc, lc) for kc, vc in c}
        return out

    work = moved(fentry, gentry)
    zero = fld.zero
    for k, c in moved(gentry, fentry).items():
        cur = work.get(k)
        if cur is None:
            work[k] = {kc: fld.neg(vc) for kc, vc in c.items()}
            continue
        for kc, vc in c.items():
            new = fld.sub(cur.get(kc, zero), vc)
            if new:
                cur[kc] = new
            else:
                del cur[kc]
        if not cur:
            del work[k]
    return work


# -- derived queries -----------------------------------------------------------


def param_is_unit(basis) -> bool:
    """True when the basis shows the extended ideal is (1): some element is a
    nonzero coefficient times the constant main-monomial."""
    for g in basis:
        if g.is_zero():
            continue
        exp, _ = g.leading(GREVLEX)
        if not any(exp):
            return True
    return False


def param_dim(basis, nmain: int) -> int:
    """Dimension over the fraction field from main-variable leading terms."""
    if param_is_unit(basis):
        return -1
    return independent_dim([g.leading(GREVLEX)[0] for g in basis], nmain)
