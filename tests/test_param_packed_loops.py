"""No Polynomial arithmetic inside the parametric engine's loops: division,
S-polynomials and the Buchberger step run on packed coefficients, so
`_param_buchberger` gives the same bases with Polynomial arithmetic made to
raise. Polynomials appear only at the boundaries (the oracle's questions,
remainders, output), which do no arithmetic on them."""

import pytest

from equipure.parametric import DenominatorLog, _param_buchberger, generic_oracle
from equipure.poly import Polynomial

from test_engine_routes import PARAM_CASES, param_case

ARITHMETIC = ["__add__", "__sub__", "__mul__", "__rmul__", "__neg__", "__pow__", "scale",
              "term_mul"]


def run(gens, order, domain):
    """The basis as (main ring, terms) pairs, and the denominators logged."""
    log = DenominatorLog(domain)
    basis = _param_buchberger(gens, order, domain, generic_oracle(domain, log), 4000)
    return [(g.main, g.terms) for g in basis], log.entries


@pytest.mark.parametrize("name", sorted(PARAM_CASES))
def test_param_buchberger_does_no_polynomial_arithmetic(name, monkeypatch):
    expected = run(*param_case(name))
    gens, order, domain = param_case(name)

    def refuse(*args, **kwargs):
        raise AssertionError("Polynomial arithmetic inside the parametric loops")

    for attr in ARITHMETIC:
        monkeypatch.setattr(Polynomial, attr, refuse)
    got = run(gens, order, domain)
    monkeypatch.undo()
    assert expected[0] and got == expected
