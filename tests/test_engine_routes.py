"""The route each Groebner engine takes through its pair loop, pinned on
fixed inputs: how many S-polynomials it reduces (a pair criterion lost or
added changes the count), the parametric oracle's questions in order, and
the smallest pair budget a parametric run finishes in.

The ideal figures were recorded before the three engines shared one pair
loop, the parametric ones once its engine skipped pairs by the chain
criterion as well as the coprime one, and the module ones once the module
engine skipped pairs by the chain criterion, which removes pairs, not
basis elements (`test_pair_criteria.py` compares its bases with a
criterion-free run); they hold as long as every engine pops the same pairs
in the same order and skips the same ones."""

import hashlib
import random

import pytest

from equipure import groebner, modules, parametric
from equipure.errors import ParamBudgetError
from equipure.fields import GF, QQ
from equipure.groebner import _buchberger
from equipure.ideals import IdealHandle
from equipure.modules import (
    _module_buchberger,
    graph_kernel_elim_order,
    graph_kernel_order,
)
from equipure.orders import GREVLEX, LEX, block_order
from equipure.parametric import (
    CoeffDomain,
    DenominatorLog,
    _param_buchberger,
    generic_oracle,
    split_poly,
)
from equipure.poly import PolynomialRing, parse_poly

from test_division import random_poly


@pytest.fixture
def s_polys(monkeypatch):
    """A list that gets one entry per S-polynomial any engine forms, through
    every binding of `groebner._s_work` and `parametric._s_work`."""
    calls = []
    for module in (groebner, modules, parametric):
        original = vars(module).get("_s_work")
        if original is None:
            continue

        def counting(*args, _original=original):
            calls.append(None)
            return _original(*args)

        monkeypatch.setattr(module, "_s_work", counting)
    return calls


def _polys(field, names, texts):
    ring = PolynomialRing(field, names)
    return ring, [parse_poly(ring, t) for t in texts]


def ideal_case(name):
    if name == "cyclic-4":
        _, gens = _polys(GF(32003), ["a", "b", "c", "d"],
                         ["a + b + c + d", "a*b + b*c + c*d + d*a",
                          "a*b*c + b*c*d + c*d*a + d*a*b", "a*b*c*d - 1"])
        return gens, GREVLEX
    if name == "katsura-3-lex":
        _, gens = _polys(QQ, ["u", "v", "w", "z"],
                         ["u + 2*v + 2*w + 2*z - 1", "u^2 + 2*v^2 + 2*w^2 + 2*z^2 - u",
                          "2*u*v + 2*v*w + 2*w*z - v", "2*u*w + v^2 + 2*v*z - w"])
        return gens, LEX
    if name == "twisted-cubic-block":
        _, gens = _polys(QQ, ["t", "x", "y", "z"], ["x - t", "y - t^2", "z - t^3"])
        return gens, block_order([0])
    if name == "random-gf7":
        rng = random.Random("route-ideal")
        ring = PolynomialRing(GF(7), ["x", "y", "z"])
        return [random_poly(ring, rng, nterms=4, maxdeg=3) for _ in range(4)], GREVLEX
    raise KeyError(name)


def module_case(name):
    ring = PolynomialRing(QQ, ["x", "y", "z"])
    one, zero = ring.one(), ring.zero()
    P = lambda text: parse_poly(ring, text)
    if name == "koszul":
        vecs = [(P("x"), one, zero, zero), (P("y"), zero, one, zero),
                (P("z"), zero, zero, one)]
        return vecs, graph_kernel_order(1), ring
    if name == "monomials-elim":
        vecs = [(P("x^2"), one, zero, zero), (P("x*y"), zero, one, zero),
                (P("y^2 - z^2"), zero, zero, one), (P("x*z - y"), zero, zero, zero)]
        return vecs, graph_kernel_elim_order(1, {0}, 3), ring
    if name == "random-pot-gf7":
        rng = random.Random("route-module")
        ring = PolynomialRing(GF(7), ["x", "y", "z"])
        vecs = [tuple(random_poly(ring, rng, nterms=2, maxdeg=1) for _ in range(2))
                for _ in range(3)]
        return vecs, graph_kernel_order(0, LEX), ring
    raise KeyError(name)


def param_case(name):
    field, constraint, order, texts = PARAM_CASES[name]
    params = PolynomialRing(field, ["t", "s"])
    main = PolynomialRing(field, ["x", "y", "z"])
    domain = CoeffDomain(params, IdealHandle(
        params, [parse_poly(params, constraint)] if constraint else []))
    ring = PolynomialRing(field, ["x", "y", "z", "t", "s"])
    gens = [split_poly(parse_poly(ring, t), main, domain, (0, 1, 2), (3, 4)) for t in texts]
    return gens, order, domain


PARAM_CASES = {
    "free-grevlex": (QQ, "", GREVLEX,
                     ["t*x - s*y", "x*y - t*z", "s*y^2 - z^2 + x"]),
    "quotient-grevlex": (QQ, "t^2 - s", GREVLEX,
                         ["t*x^2 - y", "s*x*y - z", "x - t*y^2 + z"]),
    "quotient-block-gf7": (GF(7), "t^2 - s", block_order([0]),
                           ["x*y - t*z", "t*x^2 - s*y", "y^3 - x + s*z^2"]),
}


def run_param(name, budget=4000):
    """(basis, the oracle's questions in order) of a fresh run."""
    gens, order, domain = param_case(name)
    oracle = generic_oracle(domain, DenominatorLog(domain))
    questions = []

    def asking(c):
        questions.append(str(c))
        return oracle(c)

    basis = _param_buchberger(gens, order, domain, asking, budget)
    return basis, questions


IDEAL_ROUTES = {"cyclic-4": 11, "katsura-3-lex": 52, "twisted-cubic-block": 4,
                "random-gf7": 77}
MODULE_ROUTES = {"koszul": 4, "monomials-elim": 23, "random-pot-gf7": 9}
# name -> (S-polynomials, md5 of the oracle's questions, one per line)
PARAM_ROUTES = {"free-grevlex": (1, "68dc7a0c8f0820f4405fa9031e701df9"),
                "quotient-grevlex": (8, "98fa12d953c2000cbc9f9b9b4bbc459c"),
                "quotient-block-gf7": (14, "5afd3f4f1ffce11b4ac6474eb4a58b6e")}
# pairs popped, coprime and chain skips included, by the unbudgeted run
PARAM_BUDGETS = {"free-grevlex": 6, "quotient-grevlex": 15, "quotient-block-gf7": 45}


@pytest.mark.parametrize("name", sorted(IDEAL_ROUTES))
def test_ideal_engine_reduces_the_pinned_s_polynomials(name, s_polys):
    gens, order = ideal_case(name)
    assert _buchberger(gens, order)
    assert len(s_polys) == IDEAL_ROUTES[name]


@pytest.mark.parametrize("name", sorted(MODULE_ROUTES))
def test_module_engine_reduces_the_pinned_s_polynomials(name, s_polys):
    vecs, order, ring = module_case(name)
    assert _module_buchberger(vecs, order, ring)
    assert len(s_polys) == MODULE_ROUTES[name]


@pytest.mark.parametrize("name", sorted(PARAM_ROUTES))
def test_parametric_engine_takes_the_pinned_route(name, s_polys):
    basis, questions = run_param(name)
    assert basis
    digest = hashlib.md5("\n".join(questions).encode()).hexdigest()
    assert (len(s_polys), digest) == PARAM_ROUTES[name]


@pytest.mark.parametrize("name", sorted(PARAM_BUDGETS))
def test_parametric_budget_counts_every_popped_pair(name):
    assert run_param(name, PARAM_BUDGETS[name])[0]
    with pytest.raises(ParamBudgetError, match="^parametric Buchberger budget exceeded$"):
        run_param(name, PARAM_BUDGETS[name] - 1)
