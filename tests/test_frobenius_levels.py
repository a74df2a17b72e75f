"""The tight-closure level test `charp._level_inside`, which decides
c * z^(p^e) in I^[p^e] + relations by iterated Frobenius on normal forms,
against building c * z^(p^e) and asking `IdealHandle.contains`, on
generated hypersurface rings over F_2, F_3, F_5 and F_7; and the corpus's
`tc-member` at Frobenius bound 4 end to end."""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import Phase, given, settings, strategies as st

from equipure import charp
from equipure.charp import (
    FrobeniusContext,
    _level_inside,
    frobenius_power,
    frobenius_poly_power,
)
from equipure.cli import main
from equipure.fields import GF
from equipure.groebner import normal_form
from equipure.ideals import IdealHandle
from equipure.poly import PolynomialRing, poly_from_dict
from equipure.schemes import make_algebra

NAMES = ["x", "y", "z"]


def _polys(field, n, min_size=0, max_size=3, maxdeg=2):
    term = st.tuples(st.tuples(*[st.integers(0, maxdeg)] * n),
                     st.integers(1, field.char - 1))
    return st.lists(term, min_size=min_size, max_size=max_size).map(
        lambda terms: {e: field.of(c) for e, c in terms})


@st.composite
def levels(draw):
    """(algebra, I, z, c, e): a hypersurface ring in 2 or 3 variables, an
    ideal of one or two small generators, nonzero z and c of degree at
    most 2, and a level e of 1 or 2."""
    field = GF(draw(st.sampled_from([2, 3, 5, 7])))
    n = draw(st.integers(2, 3))
    ring = PolynomialRing(field, NAMES[:n])

    def poly(**kw):
        return poly_from_dict(ring, draw(_polys(field, n, **kw)))

    # a constant relation would present the zero ring
    relation = poly_from_dict(ring, draw(_polys(field, n, min_size=1, maxdeg=3).filter(
        lambda terms: any(map(any, terms)))))
    algebra = make_algebra(field, NAMES[:n], [relation])
    ideal = IdealHandle(ring, [poly(min_size=1) for _ in range(draw(st.integers(1, 2)))])
    z = poly(min_size=1)
    c = poly(min_size=1)
    return algebra, ideal, z, c, draw(st.integers(1, 2))


# no shrink phase: a counterexample fails at once, and shrinking through
# the built powers would take long
@settings(max_examples=80, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.generate))
@given(levels())
def test_the_level_test_agrees_with_membership_of_the_built_power(inputs):
    algebra, ideal, z, c, e = inputs
    ctx = FrobeniusContext(algebra)
    p = ctx.p
    bracket = frobenius_power(ideal, e, ctx)
    built = IdealHandle(algebra.ring, list(bracket.generators)
                        + list(algebra.relations.generators))
    expected = built.contains(c * frobenius_poly_power(z, e, p))
    assert _level_inside(algebra, bracket, z, c, e, p) == expected


def test_the_corpus_tc_member_at_bound_4_verifies(tmp_path, capsys, monkeypatch):
    """`tc-member (z^2) in Fxy mult (x^2) in F`, whose level 4 asks about
    x^2 * z^4802 modulo (x^2401, y^2401, x^3 + y^3 + z^3), passes all four
    levels, and `verify` replays and rechecks them. No level divides a
    power of z above z^14: a normal form modulo z^3 + x^3 + y^3 (the
    rotated order leads with z^3) holds z to degree 2 at most, and its
    7th power to degree 14."""
    dividends = []

    def spy(f, basis, order):
        dividends.append(f)
        return normal_form(f, basis, order)

    monkeypatch.setattr(charp, "normal_form", spy)
    session = tmp_path / "tc.eqp"
    session.write_text("ring F = F7[x,y,z] / (x^3 + y^3 + z^3);\n"
                       "ideal Fxy = (x, y) in F;\n"
                       "tc-member (z^2) in Fxy mult (x^2) in F;\n")
    report = tmp_path / "tc.json"
    assert main(["run", str(session), "--frobenius-bound", "4", "--json", str(report)]) == 3
    [entry] = json.loads(report.read_text())
    assert entry["verdict"] == "EvidenceInClosure"
    cert = entry["certificate"]
    assert cert["bound"] == "4"
    assert cert["levels"] == [[str(e), True] for e in range(1, 5)]
    capsys.readouterr()
    assert main(["verify", str(report)]) == 0
    assert "[ok] tc-member (z^2) in Fxy mult (x^2) in F" in capsys.readouterr().out
    assert dividends
    assert max(e[2] for f in dividends for e, _ in f.terms) <= 14
