"""The coefficient-domain engine: generic fibers and strata."""

import pytest

from equipure.fields import QQ
from equipure.ideals import IdealHandle
from equipure.parametric import (
    CoeffDomain,
    DenominatorLog,
    ParamPoly,
    generic_oracle,
    param_buchberger,
    param_dim,
    param_is_unit,
)
from equipure.orders import GREVLEX
from equipure.poly import PolynomialRing, parse_poly
from equipure.schemes import (
    Morphism,
    fiber,
    finite_locus_strata,
    generic_point_of,
    is_quasi_finite_at,
    make_algebra,
    rational_point,
)


def test_generic_fiber_of_double_cover():
    A = make_algebra(QQ, ["t"], [], "A")
    B = make_algebra(QQ, ["x"], [], "B")
    f = Morphism(A, B, [parse_poly(B.ring, "x^2")], "f")
    eta = generic_point_of(A, IdealHandle(A.ring, []))
    fm = fiber(f, eta)
    assert fm.kind == "generic"
    assert fm.dim() == 0
    assert fm.denominators == ()          # kappa(t)[x]/(x^2 - t): no inversions
    assert not fm.empty


def test_generic_fiber_logs_certified_denominators():
    A = make_algebra(QQ, ["u", "v"], [], "A")
    B = make_algebra(QQ, ["u", "x"], [], "B")
    blow = Morphism(A, B, [parse_poly(B.ring, "u"), parse_poly(B.ring, "u*x")], "g")
    eta = generic_point_of(A, IdealHandle(A.ring, []))
    fm = fiber(blow, eta)
    assert fm.dim() == 0
    logged = [str(d) for d in fm.denominators]
    assert logged == ["-u"]
    # every logged denominator is nonzero modulo the point's ideal
    for d in fm.denominators:
        assert not fm.domain.reduce(d).is_zero()


def test_denominator_log_rejects_zero():
    ring = PolynomialRing(QQ, ["a"])
    domain = CoeffDomain(ring, IdealHandle(ring, [ring.var(0)]))
    log = DenominatorLog(domain)
    with pytest.raises(ValueError):
        log.record(domain.reduce(ring.var(0)))


def test_param_buchberger_matches_field_case_when_no_parameters():
    ring = PolynomialRing(QQ, ["x", "y"])
    params = PolynomialRing(QQ, [])
    domain = CoeffDomain(params, IdealHandle(params, []))
    log = DenominatorLog(domain)
    gens = [
        ParamPoly.build(ring, domain,
                        [(e, params.const(c)) for e, c in parse_poly(ring, t).terms])
        for t in ("x^2 + y^2 - 1", "x - y")
    ]
    basis = param_buchberger(gens, GREVLEX, domain, generic_oracle(domain, log))
    leads = sorted(g.leading(GREVLEX)[0] for g in basis)
    assert leads == [(0, 2), (1, 0)]
    assert param_dim(basis, 2) == 0
    assert not param_is_unit(basis)


def test_strata_blowup_chart():
    A = make_algebra(QQ, ["u", "v"], [], "A")
    B = make_algebra(QQ, ["u", "x"], [], "B")
    blow = Morphism(A, B, [parse_poly(B.ring, "u"), parse_poly(B.ring, "u*x")], "g")
    strata = finite_locus_strata(blow)
    assert len(strata) == 3
    described = [(tuple(s.describe()["vanishing"]), s.quasi_finite, s.fiber_empty)
                 for s in strata]
    # u = v = 0: not quasi-finite; u = 0, v != 0: empty fiber; u != 0: finite
    assert (("-u", "v"), False, False) in described
    assert (("-u",), True, True) in described
    assert ((), True, False) in described
    # strata verdicts agree with pointwise checks at rational probes
    probes = [rational_point(B, [0, 0]), rational_point(B, [1, 5]),
              rational_point(B, [2, 0])]
    for pt in probes:
        z = blow.image_point_coords(pt.coords)
        stratum = next(s for s in strata if s.contains_coords(z))
        assert stratum.quasi_finite == is_quasi_finite_at(blow, pt)


def test_strata_cover_is_disjoint_on_probe_grid():
    A = make_algebra(QQ, ["u", "v"], [], "A")
    B = make_algebra(QQ, ["u", "x"], [], "B")
    blow = Morphism(A, B, [parse_poly(B.ring, "u"), parse_poly(B.ring, "u*x")], "g")
    strata = finite_locus_strata(blow)
    for a in range(-2, 3):
        for b in range(-2, 3):
            coords = (QQ.of(a), QQ.of(b))
            hits = [s for s in strata if s.contains_coords(coords)]
            assert len(hits) == 1


def test_strata_single_for_finite_map():
    A = make_algebra(QQ, ["t"], [], "A")
    B = make_algebra(QQ, ["x"], [], "B")
    f = Morphism(A, B, [parse_poly(B.ring, "x^2")], "f")
    strata = finite_locus_strata(f)
    assert len(strata) == 1
    assert strata[0].quasi_finite and not strata[0].fiber_empty


def test_strata_identity():
    A = make_algebra(QQ, ["x"], [], "A")
    idm = Morphism(A, A, [A.ring.var(0)], "id")
    strata = finite_locus_strata(idm)
    assert len(strata) == 1 and strata[0].quasi_finite
