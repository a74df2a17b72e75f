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

Coefficients are stored as canonical normal forms modulo the constraint
ideal, so all outputs are byte-stable. Buchberger's pairs run through the
pair loop the three engines share (`groebner._pair_loop`), with the coprime
criterion and a pair budget; division and S-polynomials are this module's
own, fraction-free. The loops run on packed monomials (see
`orders.Packing`); a `ParamPoly`'s terms stay keyed by exponent tuples,
because callers mutate its `terms` dict.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .errors import ParamBudgetError
from .groebner import _memoized, _minimal, _pair_loop, normal_form
from .ideals import IdealHandle
from .orders import GREVLEX, PackingOverflow, _packed_run
from .poly import Polynomial, PolynomialRing


class CoeffDomain:
    """k[params]/q with normal-form representatives."""

    def __init__(self, param_ring: PolynomialRing, constraint: IdealHandle):
        self.ring = param_ring
        self.constraint = constraint
        self._gb = constraint.groebner()

    def reduce(self, f: Polynomial) -> Polynomial:
        if not self._gb:
            return f
        return normal_form(f, self._gb, GREVLEX)

    def is_zero(self, f: Polynomial) -> bool:
        return self.reduce(f).is_zero()

    def one(self) -> Polynomial:
        return self.ring.one()

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

    def renormalize(self, domain=None):
        domain = domain or self.domain
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

    def sorted_terms(self, order=GREVLEX):
        return _packed_run(order.packing(self.main.nvars), lambda packing: sorted(
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

    def log(self, c: Polynomial):
        red = self.domain.reduce(c)
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
        log.log(red)
        return True

    return is_invertible


def _divisor(g, lead, i, packing):
    """Entry of basis element i, with leading (exponent, coefficient)
    `lead`, in a sorted divisor list: divisors are tried smallest leading
    monomial first, ties broken by the printed leading coefficient, then by
    index. The entry carries K(lead) - one, the leading coefficient and the
    other packed terms, as `groebner._divisor` does."""
    lexp, lcoeff = lead
    klead = packing.encode(lexp)
    tail = tuple((packing.encode(e), c) for e, c in g.terms.items() if e != lexp)
    return (klead, repr(lcoeff), i, klead - packing.one, lcoeff, tail)


def param_normal_form(f: ParamPoly, basis, leads, order, is_invertible):
    """Fraction-free full reduction of f by `basis`, whose leading
    (exponent, coefficient) pairs are `leads`. The remainder equals (product
    of logged leading coefficients) times the true normal form over the
    fraction field, so zero-ness and leading monomials are faithful. The
    division runs on packed monomials; see `_reduce`."""

    def run(packing):
        divisors = sorted(_divisor(g, lead, i, packing)
                          for i, (g, lead) in enumerate(zip(basis, leads)))
        work = {packing.encode(e): c for e, c in f.terms.items()}
        return _reduce(work, f.main, f.domain, divisors, packing, is_invertible)

    return _packed_run(order.packing(f.main.nvars), run)


def _reduce(work, main, domain, divisors, packing, is_invertible):
    """Fraction-free full reduction of the packed dict `work` (K ->
    coefficient) by `divisors` (see `_divisor`); the remainder as a
    ParamPoly over `main`.

    The true working value and remainder are `scale` times the stored ones,
    for one running field constant `scale`. A step by a field-constant
    leading coefficient lc sets `scale <- scale*lc` and subtracts
    (coeff/lc)*x^m*g from the stored work, touching only the terms of g;
    only a non-constant lc multiplies every stored coefficient. The
    remainder is multiplied by `scale` once, at the end. `domain.reduce` is
    linear and a nonzero constant changes no zero test, so the pops, the
    oracle questions and the remainder are those of rescaling at every step.

    Each divisor's `is_invertible` answer is kept for the rest of the call,
    so the oracle is asked about a divisor once, at its first use. That
    rests on the contract stated under `param_buchberger`: an answer is a
    function of its argument, and a repeated question has no effect.

    Terms are popped largest-first from a heap of -K (Monagan & Pearce); a
    K is pushed when it enters the working dict, and only a pop takes it
    out again. The divisibility test and the product are those of
    `groebner._reduce`."""
    field = domain.ring.field
    zero = domain.ring.zero()
    one, guard, mask = packing.one, packing.guard, packing.divmask
    heap = [-k for k in work]
    heapify(heap)
    remainder = {}
    scale = field.one
    answers = {}
    steps = 0
    while heap:
        steps += 1
        if steps > 20000:
            raise ParamBudgetError("parametric reduction budget exceeded")
        k = -heappop(heap)
        coeff = domain.reduce(work.pop(k))
        if coeff.is_zero():
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
            remainder[k] = remainder.get(k, zero) + coeff
            continue
        lcoeff = entry[4]
        if lcoeff.is_constant():
            # true work <- lc*true work - coeff*x^m*g, kept as a scale
            lc = lcoeff.constant_value()
            scale = field.mul(scale, lc)
            coeff = coeff.scale(field.inv(lc))
        else:
            # work <- lcoeff*work - coeff*x^m*g ; scale remainder alongside
            for e in list(work):
                work[e] = work[e] * lcoeff
            for e in list(remainder):
                remainder[e] = remainder[e] * lcoeff
        shift = d - one
        for ke, c in entry[5]:
            ne = ke + shift
            cur = work.get(ne)
            if cur is None:
                if ne & guard:
                    raise PackingOverflow("a product leaves its fields")
                heappush(heap, -ne)
                cur = zero
            work[ne] = cur - c * coeff
    decode = packing.decode
    return ParamPoly.build(main, domain,
                           ((decode(k), r.scale(scale)) for k, r in remainder.items()))


def param_buchberger(gens, order, domain: CoeffDomain, is_invertible, budget=4000):
    """Fraction-free Buchberger over the coefficient domain. Over the fraction
    field of the domain (or over each point of a stratum where the assumed
    coefficients stay nonzero), the output monomials are those of a Groebner
    basis of the extended ideal.

    The pairs run through the shared loop `groebner._pair_loop` with the
    coprime criterion and `budget` popped pairs at most; each pair's
    S-polynomial is reduced by the fraction-free `_reduce`, and a nonzero
    remainder joins the basis as it is. The output is the minimal basis of
    what the loop ends with (see `groebner._minimal`), not a reduced one.

    Computed once per process for each (gens, order, domain, budget): the
    key holds each generator's ring and terms in order, the coefficient
    ring, the constraint generators and `budget`. The oracle has effects (a
    `DenominatorLog` entry, or a `BranchSignal`), so the stored basis keeps
    the distinct coefficients the oracle was asked about, with its answers,
    in first-occurrence order. An identical later call asks its own oracle
    the same questions in the same order. If every answer matches, it gets
    copies of the stored basis on its own `domain`; if one differs, the
    basis is computed afresh; if the oracle raises, the raise propagates.
    This rests on an oracle's answer being a function of its argument, and
    on a repeated question adding no effect (`DenominatorLog` keeps each
    entry once); both oracles in the package meet it. The replay then has
    exactly the effects of the oracle calls a fresh run would make."""
    gens = list(gens)
    key = ("param_buchberger", _content(gens), order, domain.ring,
           domain.constraint.generators, budget)

    def compute():
        answers = {}

        def recording(c):
            answer = is_invertible(c)
            answers.setdefault(c, answer)
            return answer

        basis = _param_buchberger(gens, order, domain, recording, budget)
        return _content(basis), tuple(answers.items())

    def reuse(stored):
        return all(is_invertible(c) == answer for c, answer in stored[1])

    basis, _ = _memoized(key, compute, reuse)
    return [ParamPoly(main, domain, terms) for main, terms in basis]


def _content(polys):
    """(main ring, terms in order) of each ParamPoly: everything but the
    domain."""
    return tuple((g.main, tuple(g.terms.items())) for g in polys)


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
        polys = list(basis)

        def step(fentry, gentry, klcm, divisors, index):
            r = _reduce(_s_work(fentry, gentry, klcm, packing, domain), main, domain, divisors,
                        packing, is_invertible)
            if r.is_zero():
                return None
            lexp = max(r.terms, key=packing.encode)
            lead = (lexp, r.terms[lexp])
            is_invertible(lead[1])
            polys.append(r)
            return _divisor(r, lead, index, packing)

        entries = _pair_loop([_divisor(g, lead, i, packing)
                              for i, (g, lead) in enumerate(zip(basis, leads))],
                             packing, step, coprime=True, budget=budget)
        keep = _minimal(entries, packing)
        # the output order is stated by the order's key, at the boundary
        keep.sort(key=lambda e: (order.key(packing.decode(e[0])), repr(polys[e[2]])))
        return [polys[e[2]] for e in keep]

    return _packed_run(order.packing(main.nvars), run)


def _s_work(fentry, gentry, klcm, packing, domain):
    """The packed S-polynomial lc(g)*(lcm/lm(f))*f - lc(f)*(lcm/lm(g))*g of
    two divisor entries, as a working dict, with each coefficient reduced
    and zeros dropped after each product and after the difference, as
    `ParamPoly.build` does. The leading terms cancel and are left out."""
    reduce = domain.reduce
    guard = packing.guard

    def moved(entry, c_other):
        shift = klcm - entry[3] - packing.one
        out = {}
        for k, c in entry[5]:
            ne = k + shift
            if ne & guard:
                raise PackingOverflow("a product leaves its fields")
            red = reduce(c * c_other)
            if not red.is_zero():
                out[ne] = red
        return out

    work = moved(fentry, gentry[4])
    for k, c in moved(gentry, fentry[4]).items():
        work[k] = work[k] - c if k in work else -c
    out = {}
    for k, c in work.items():
        red = reduce(c)
        if not red.is_zero():
            out[k] = red
    return out


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
    import itertools

    if param_is_unit(basis):
        return -1
    supports = []
    for g in basis:
        exp = g.leading(GREVLEX)[0]
        supports.append(frozenset(i for i, e in enumerate(exp) if e))
    for size in range(nmain, -1, -1):
        for combo in itertools.combinations(range(nmain), size):
            s = frozenset(combo)
            if all(not sup <= s for sup in supports):
                return size
    return 0


def param_pure_power_witness(basis, var_indices, order):
    """For each requested main variable, the basis element whose leading
    monomial is a pure power of it, if one exists."""
    out = {}
    for g in basis:
        exp = g.leading(order)[0]
        nz = [i for i, e in enumerate(exp) if e]
        if len(nz) == 1 and nz[0] in var_indices and nz[0] not in out:
            out[nz[0]] = (exp, g)
    return out


def param_front_free(basis, front) -> list:
    """Basis elements containing none of the front main variables."""
    out = []
    for g in basis:
        if all(all(e[i] == 0 for i in front) for e in g.terms):
            out.append(g)
    return out
