"""Module presentations, splitting ideals, purity at points, splinter
probes, hypersurface normality and the strong-purity pipeline. A module
presentation on more generators than its budget is refused by name."""

import json
import os
import subprocess
import sys
import time

import pytest

from equipure.errors import (
    HypothesisFailed,
    NotHypersurface,
    NotModuleFinite,
    PresentationBudgetExceeded,
)
from equipure.fields import QQ
from equipure.ideals import IdealHandle
from equipure.poly import PolynomialRing, parse_poly
from equipure.purity import (
    MAX_PRESENTATION_GENERATORS,
    hypersurface_is_normal,
    module_presentation,
    splinter_probe,
    splits,
    splitting_ideal,
    strong_purity_certificate,
    witness_outside,
)
from equipure.schemes import (
    Morphism,
    generic_point_of,
    make_algebra,
    rational_point,
)
from equipure.session import parse_session, run_command

from conftest import P, compose, origin

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_presentation_free_rank_two(double_cover):
    pres = module_presentation(double_cover)
    assert [str(g) for g in pres.generators] == ["1", "x"]
    assert pres.relations == []     # free module


def test_presentation_veronese(veronese_q):
    pres = module_presentation(veronese_q)
    assert sorted(str(g) for g in pres.generators) == ["1", "x", "y"]
    tgt = veronese_q.target
    # every recorded relation column genuinely annihilates the generators
    gring, gideal, src_idx, tgt_idx, _ = veronese_q.graph()
    for col in pres.relations:
        assert len(col) == 3


def test_presentation_identity(line_q):
    idm = Morphism(line_q, line_q, [line_q.ring.var(0)], "id")
    pres = module_presentation(idm)
    assert [str(g) for g in pres.generators] == ["1"]


def test_presentation_needs_module_finiteness(flat_projection):
    with pytest.raises(NotModuleFinite):
        module_presentation(flat_projection)


def _cusp_cover(a, b):
    """The session of `splits nu` for nu : Cusp -> Line, a -> t^a, b -> t^b."""
    return ("ring Cusp = Q[a,b] / (b^2 - a^3);\n"
            "ring Line = Q[t];\n"
            f"morphism nu : Cusp -> Line = [a -> t^{a}, b -> t^{b}];\n"
            "splits nu;\n")


def test_a_presentation_past_its_budget_is_refused_by_name(cusp_q, line_q):
    """t^(2k) - a is the monic equation of t, so the presentation of
    a -> t^(2k), b -> t^(3k) has 2k generators."""
    k = MAX_PRESENTATION_GENERATORS // 2 + 1
    nu = Morphism(cusp_q, line_q, [P(line_q.ring, f"t^{2 * k}"), P(line_q.ring, f"t^{3 * k}")])
    with pytest.raises(PresentationBudgetExceeded, match="MAX_PRESENTATION_GENERATORS"):
        module_presentation(nu)


def _timed_cli(argv):
    """(exit code, stdout, seconds) of `equipure.cli.main(argv)` in a fresh
    interpreter pinned to one usable CPU."""
    code = ("import os\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from equipure.cli import main\n"
            f"raise SystemExit(main({argv!r}))")
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, timeout=10)
    return out.returncode, out.stdout, time.perf_counter() - start


def test_run_and_verify_of_a_huge_presentation_end_at_the_budget(tmp_path):
    """`splits nu` with a -> t^40000, b -> t^60000, a presentation on 40000
    generators, ends in under 2 s with the budget error, exit 2; so does the
    replay of the a -> t^2, b -> t^3 certificate edited to that map."""
    session = tmp_path / "huge.eqp"
    session.write_text(_cusp_cover(40000, 60000), encoding="utf-8")
    code, out, seconds = _timed_cli(["run", str(session)])
    assert code == 2 and "MAX_PRESENTATION_GENERATORS" in out and seconds < 2, (out, seconds)

    small = parse_session(_cusp_cover(2, 3))
    entry = run_command(small, *small.commands[0]).to_obj()
    images = entry["certificate"]["morphism"]["images"]
    assert images == [[[["2"], "1"]], [[["3"], "1"]]]
    images[:] = [[[["40000"], "1"]], [[["60000"], "1"]]]
    report = tmp_path / "edited.json"
    report.write_text(json.dumps([entry]), encoding="utf-8")
    code, out, seconds = _timed_cli(["verify", str(report)])
    assert code == 1 and seconds < 2, (out, seconds)
    assert out.startswith("[FAIL] splits nu: verification error: PresentationBudgetExceeded")
    assert "MAX_PRESENTATION_GENERATORS" in out


def test_splitting_ideal_examples(veronese_q, cusp_normalization, line_q):
    idm = Morphism(line_q, line_q, [line_q.ring.var(0)], "id")
    I_id, _, _ = splitting_ideal(idm)
    assert I_id.is_unit()
    I_ver, _, _ = splitting_ideal(veronese_q)
    assert I_ver.is_unit()
    I_cusp, _, _ = splitting_ideal(cusp_normalization)
    assert not I_cusp.is_unit()
    # proper and contained in (a, b)
    m = IdealHandle(cusp_normalization.target.ring,
                    [cusp_normalization.target.ring.var(0),
                     cusp_normalization.target.ring.var(1)])
    for g in I_cusp.generators:
        assert m.contains(g)


def test_splits_with_self_verifying_sigma(veronese_q, veronese7):
    for phi in (veronese_q, veronese7):
        ok, cert = splits(phi)
        assert ok
        ok1, ok2 = cert.sigma_identities()
        assert ok1 and ok2
        assert str(cert.sigma[cert.presentation.one_index()]) == "1"


def test_splits_refuted_for_cusp(cusp_normalization):
    ok, cert = splits(cusp_normalization)
    assert not ok and cert.sigma is None


def test_pure_at_examples(veronese_q, cusp_normalization):
    cusp = cusp_normalization.target
    assert witness_outside(cusp_normalization, rational_point(cusp, [0, 0])) is None
    assert witness_outside(cusp_normalization, generic_point_of(cusp, cusp.relations)) is not None
    assert witness_outside(veronese_q, rational_point(veronese_q.target, [0, 0, 0])) is not None
    w = witness_outside(cusp_normalization,
                        generic_point_of(cusp, cusp.relations))
    assert w is not None


def test_purity_witness_extends_to_local_splitting(cusp_normalization):
    # when the splitting ideal escapes p, some annihilating functional has
    # evaluation-at-1 outside p: dividing by it gives a splitting after
    # localization, so check the functional identity explicitly
    cusp = cusp_normalization.target
    eta = generic_point_of(cusp, cusp.relations)
    handle, hom_gens, pres = splitting_ideal(cusp_normalization)
    one_ix = pres.one_index()
    found = None
    for v in hom_gens:
        if not eta.ideal.contains(v[one_ix]):
            found = v
            break
    assert found is not None
    for col in pres.relations:
        acc = cusp.ring.zero()
        for s, c in zip(found, col):
            acc = acc + s * c
        assert cusp.reduce(acc).is_zero()


def test_split_implies_pure_at_every_probe(veronese_q):
    tgt = veronese_q.target
    ok, _ = splits(veronese_q)
    assert ok
    for coords in ([0, 0, 0], [1, 1, 1], [4, 1, 2]):
        assert witness_outside(veronese_q, rational_point(tgt, coords)) is not None


def test_split_composes(line_q):
    # s -> t^2 and t -> x^2 both split over Q; so does the composite
    base = make_algebra(QQ, ["s"], [], "base")
    aff = make_algebra(QQ, ["x"], [], "aff")
    first = Morphism(base, line_q, [P(line_q.ring, "t^2")], "sq1")
    second = Morphism(line_q, aff, [P(aff.ring, "x^2")], "sq2")
    assert splits(first)[0] and splits(second)[0]
    composite = compose(first, second)
    ok, cert = splits(composite)
    assert ok
    ok1, ok2 = cert.sigma_identities()
    assert ok1 and ok2


def test_splinter_probe_examples(cusp_normalization):
    kx = make_algebra(QQ, ["x"], [], "kx")
    ring = PolynomialRing(QQ, ["x", "z"])
    cover_src = make_algebra(QQ, ["x", "z"], [parse_poly(ring, "z^2 - x")], "cover")
    cover = Morphism(kx, cover_src, [P(cover_src.ring, "x")], "sqrt")
    rep = splinter_probe(kx, [cover])
    assert rep.verdict == "all-probed-covers-split"

    rep2 = splinter_probe(cusp_normalization.target, [cusp_normalization])
    assert rep2.verdict == "refuted"
    assert rep2.witness is cusp_normalization

    # rationals covered by the Gaussian rationals
    q0 = make_algebra(QQ, [], [], "Q")
    qi_ring = PolynomialRing(QQ, ["i"])
    qi = make_algebra(QQ, ["i"], [parse_poly(qi_ring, "i^2 + 1")], "Qi")
    rep3 = splinter_probe(q0, [Morphism(q0, qi, [], "inc")])
    assert rep3.verdict == "all-probed-covers-split"


def test_hypersurface_normality(cone_q, cusp_q):
    assert hypersurface_is_normal(cone_q)
    assert not hypersurface_is_normal(cusp_q)
    ring = PolynomialRing(QQ, ["x", "y", "z"])
    sphere = make_algebra(QQ, ["x", "y", "z"],
                          [parse_poly(ring, "x^2 + y^2 + z^2 - 1")], "sphere")
    assert hypersurface_is_normal(sphere)
    with pytest.raises(NotHypersurface):
        hypersurface_is_normal(make_algebra(QQ, ["x", "y"], [], "free"))


def test_strong_purity_over_regular_base():
    tgt = make_algebra(QQ, ["u", "v"], [], "uv")
    src = make_algebra(QQ, ["x", "y", "w"], [], "xyw")
    f = Morphism(tgt, src, [P(src.ring, "x^2"), P(src.ring, "y^2")], "f")
    cert = strong_purity_certificate(f, "regular-polynomial-ring", [origin(src)])
    leg = cert.probe_records[0]["finite_leg"]
    assert leg["module_finite"] and leg["pure_at_image"]


def test_strong_purity_over_cone_base(cone_composite):
    probes = [origin(cone_composite.source),
              rational_point(cone_composite.source, [1, 2, 3])]
    cert = strong_purity_certificate(cone_composite, "normal-Q-hypersurface", probes)
    assert len(cert.probe_records) == 2
    for rec in cert.probe_records:
        assert rec["factorization"].all_ok()
        assert rec["finite_leg"]["pure_at_image"]
    # the flat leg is recorded as a cited fact in the ledger
    assert any("faithfully flat" in a["text"] for a in cert.assumptions)


def test_strong_purity_cusp_base_fails(cusp_q):
    src = make_algebra(QQ, ["t", "s"], [], "ts")
    g = Morphism(cusp_q, src, [P(src.ring, "t^2"), P(src.ring, "t^3")], "g")
    with pytest.raises(HypothesisFailed) as err:
        strong_purity_certificate(g, "normal-Q-hypersurface", [origin(src)])
    assert err.value.hypothesis == "normality"


def test_strong_purity_refuses_non_equidimensional(blowup_chart):
    with pytest.raises(HypothesisFailed) as err:
        strong_purity_certificate(blowup_chart, "regular-polynomial-ring",
                                  [origin(blowup_chart.source)])
    assert err.value.hypothesis == "equidimensionality"
