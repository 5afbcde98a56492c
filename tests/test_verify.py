"""Sampling engine, residual reports, and the structure verifiers."""

import functools
import json
import struct
from dataclasses import replace
from itertools import islice

import numpy as np
import pytest

import pqnverify
from pqnverify import calculus, catalog, cli, expr, fields
from pqnverify import verify as verify_module
from pqnverify.catalog import RecipeInput, closed_toda, das_okubo, magri_veselov, prop_local_pair, r3_recipe
from pqnverify.expr import (
    ONE,
    ZERO,
    Chart,
    Constant,
    Coord,
    Expr,
    IntPow,
    _children,
    add,
    constant,
    div,
    evaluate,
    intpow,
    log,
    mul,
    neg,
    parse,
    point_block,
    point_stream,
    sample_plan,
    splitmix64,
    sqrt,
    sub,
    to_string,
)
from pqnverify.fields import (
    Bivector,
    KForm,
    Structure,
    VectorField,
    sharp,
    star,
)
from pqnverify.verify import (
    SUITES,
    CheckReport,
    check_identity,
    deform_3d,
    evaluate_batch,
    random_oneform,
    random_polynomial,
    random_vectorfield,
    reconstruct_decomposition,
    run_checks,
    run_pairs,
    run_suites,
    verify_3d_conditions,
    verify_haantjes_structure,
    verify_lm_chain,
    verify_minpoly,
    verify_pn,
    verify_poisson,
    verify_pqn,
    verify_recursion_involutivity,
    verify_theo_inv,
    xi_form,
)

from builders import (
    bits,
    points,
    random_bivector,
    random_endomorphism,
    reference_evaluate_batch,
    topo_order,
)

CH = Chart(("x", "y", "z"))
X, Y, Z = Coord(0), Coord(1), Coord(2)
VOL = KForm(CH, 3, {(0, 1, 2): ONE})
CANONICAL = Bivector(CH, {(0, 1): ONE})
HALF = constant(2.0)

RECIPE = RecipeInput(lam=div(Z, HALF), a=div(X, HALF), g=Z)


@pytest.fixture(scope="module")
def plan():
    return sample_plan(CH)


def test_splitmix64_reference_stream():
    assert list(islice(splitmix64(0), 3)) == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]


def test_splitmix64_stays_in_64_bits():
    for value in islice(splitmix64(2**64 - 1), 16):
        assert 0 <= value < 2**64


def test_sample_plan_defaults(plan):
    pts = points(plan)
    assert len(pts) == 64
    assert all(len(p) == 3 for p in pts)
    assert all(-1.0 <= c <= 1.0 for p in pts for c in p)
    assert pts == points(sample_plan(CH))


def test_sample_plan_seed_changes_the_stream():
    assert points(sample_plan(CH, seed=7)) != points(sample_plan(CH, seed=8))


def test_sample_plan_per_coordinate_box():
    plan = sample_plan(CH, box=((0.0, 1.0), (2.0, 3.0), (-5.0, -4.0)))
    for p in points(plan):
        assert 0.0 <= p[0] <= 1.0
        assert 2.0 <= p[1] <= 3.0
        assert -5.0 <= p[2] <= -4.0


def test_sample_plan_validation():
    with pytest.raises(ValueError):
        sample_plan(CH, box=(1.0, -1.0))
    with pytest.raises(ValueError):
        sample_plan(CH, count=0)
    with pytest.raises(ValueError, match="finite"):
        sample_plan(CH, box=(0, float("inf")))
    with pytest.raises(ValueError, match="finite"):
        sample_plan(CH, box=((0.0, 1.0), (float("-inf"), 0.0), (0.0, 1.0)))


def _scalar_points(plan, start, count):
    """Points start .. start+count-1 replayed one splitmix64 output at a
    time: the reference the block sampler must reproduce bit for bit."""
    gen = islice(splitmix64(plan.seed), start * len(plan.box), None)
    return np.array(
        [
            [lo + (hi - lo) * (next(gen) / 2.0**64) for lo, hi in plan.box]
            for _ in range(count)
        ]
    )


@pytest.mark.parametrize("seed", [0, 42, 2**63 + 5, 2**64 - 1, -7])
@pytest.mark.parametrize("dim", [1, 3, 8])
@pytest.mark.parametrize("box", [(-1.0, 1.0), (0.5, 3.25), (-1e-3, 7.0)])
def test_point_block_matches_the_scalar_stream(seed, dim, box):
    chart = Chart(tuple(f"u{i}" for i in range(dim)))
    plan = sample_plan(chart, box=box, count=40, seed=seed)
    for start in (0, plan.count, plan.count + 17):
        block = point_block(plan, start, plan.count)
        assert block.shape == (plan.count, dim) and block.dtype == np.float64
        reference = _scalar_points(plan, start, plan.count)
        assert np.array_equal(block.view(np.uint64), reference.view(np.uint64))
    base = points(plan)
    assert base == [tuple(row) for row in _scalar_points(plan, 0, plan.count).tolist()]
    assert all(type(c) is float for p in base for c in p)


def test_point_stream_continues_across_blocks():
    plan = sample_plan(CH, count=5, seed=3)
    drawn = np.array(list(islice(point_stream(plan), 12)))
    assert np.array_equal(drawn.view(np.uint64), point_block(plan, 0, 12).view(np.uint64))


def test_run_pairs_resamples_past_domain_failures(plan):
    rep = run_pairs("half_domain", [(sqrt(X), sqrt(X))], plan, 1e-8)
    assert rep.status == "pass"
    assert rep.samples_used == 64
    assert rep.detail == "resampled 55 points"


def test_run_pairs_skips_when_the_budget_runs_out():
    plan = sample_plan(CH, resample_limit=0)
    bad = log(neg(add(ONE, intpow(X, 2))))
    rep = run_pairs("nowhere_defined", [(bad, ZERO)], plan, 1e-8)
    assert rep.status == "skipped"
    assert rep.samples_used == 0
    assert rep.detail == "resample budget exhausted with 64 unusable points"


def test_run_pairs_worst_point_is_the_first_argmax(plan):
    rep = run_pairs("constant_gap", [(ZERO, ONE)], plan, 1e-8)
    assert rep.status == "fail"
    assert rep.max_scaled_residual == 1.0
    assert rep.worst_point == points(plan)[0]


def test_run_pairs_scales_by_the_larger_side(plan):
    gap = 3e-8
    rep = run_pairs(
        "relative", [(constant(3.0), constant(3.0 + gap))], plan, 1e-8
    )
    assert rep.status == "pass"
    assert rep.max_scaled_residual == pytest.approx(gap / (3.0 + gap), rel=1e-12)


def test_run_pairs_with_no_components_passes(plan):
    rep = run_pairs("empty", [], plan, 1e-8)
    assert (rep.status, rep.max_scaled_residual, rep.samples_used) == ("pass", 0.0, 0)
    assert rep.detail == "no components"


def test_status_tracks_the_tolerance(plan):
    for tol in (1e-12, 1e-2, 2.0):
        rep = run_pairs("gap", [(ZERO, constant(0.5))], plan, tol)
        assert (rep.status == "pass") == (rep.max_scaled_residual <= tol)


def _report_bits(rep: CheckReport) -> tuple:
    """A report's fields, with each float as its bit pattern."""

    def b(v):
        return struct.pack("<d", v) if isinstance(v, float) else v

    point = None if rep.worst_point is None else tuple(b(c) for c in rep.worst_point)
    return (rep.name, rep.status, b(rep.max_scaled_residual), point, rep.samples_used,
            b(rep.tol), rep.detail)


def _mixed_batch():
    huge = constant(1.5e308)
    return [
        ("resampling", [(sqrt(X), sqrt(X)), (X, mul(X, ONE))], ""),
        # finite sides whose difference overflows; the scaled residual is 2
        ("overflowing", [(huge, neg(huge)), (Y, Y)], "note"),
        ("empty", [], "nothing to compare"),
        # shares sqrt(x) with the first check, and resamples too
        ("shared", [(mul(X, Y), mul(Y, X)), (sqrt(X), div(X, sqrt(X)))], ""),
        ("nowhere", [(log(neg(add(ONE, intpow(X, 2)))), ZERO)], ""),
        ("gap", [(Z, add(Z, constant(0.5)))], ""),
    ]


def test_a_mixed_batch_reports_each_check_as_it_reports_alone(plan):
    checks = _mixed_batch()
    got = run_checks(checks, plan, 1e-8)
    alone = [run_pairs(name, pairs, plan, 1e-8, detail) for name, pairs, detail in checks]
    assert [_report_bits(r) for r in got] == [_report_bits(r) for r in alone]
    by_name = {r.name: r for r in got}
    assert by_name["resampling"].detail == "resampled 55 points"
    assert by_name["shared"].detail == "resampled 55 points"
    assert by_name["overflowing"].max_scaled_residual == 2.0
    assert by_name["empty"].detail == "nothing to compare; no components"
    assert by_name["nowhere"].status == "skipped"
    assert by_name["gap"].status == "fail"


def test_a_small_budget_splits_a_batch_without_changing_its_reports(plan, monkeypatch):
    checks = _mixed_batch()
    want = [_report_bits(r) for r in run_checks(checks, plan, 1e-8)]
    calls = []
    original = verify_module.evaluate_batch

    def counting(exprs, pts):
        calls.append(len(exprs) * len(pts))
        return original(exprs, pts)

    compiles = []
    compile_ = expr._compile
    monkeypatch.setattr(expr, "_compile", lambda *args: compiles.append(1) or compile_(*args))
    monkeypatch.setattr(verify_module, "evaluate_batch", counting)
    monkeypatch.setattr(expr, "REGISTER_BUDGET", 64)
    assert [_report_bits(r) for r in run_checks(checks, plan, 1e-8)] == want
    # 16 roots at 4 points a chunk, then the resampled points of 3 checks
    assert len(calls) > 16 and max(calls) <= 64
    # one program for every chunk of the batch, and one for each check
    # that resamples: resampling, shared and nowhere
    assert len(compiles) == 1 + 3


def test_a_rebound_run_pairs_sees_every_check(plan, monkeypatch):
    # perfbench/exact.py captures one check's pairs by rebinding
    # verify.run_pairs, and perfbench's tracer wraps it with functools.wraps.
    st = r3_recipe(RECIPE)
    suites = ("pqn", "3d", "battery")
    calls = []
    evaluate = verify_module.evaluate_batch
    monkeypatch.setattr(
        verify_module, "evaluate_batch", lambda exprs, pts: calls.append(1) or evaluate(exprs, pts)
    )
    want = [_report_bits(r) for r in run_suites(st, plan, 1e-8, suites=suites)]
    batched = len(calls)
    original = verify_module.run_pairs
    seen = []

    def capture(name, pairs, *args, **kwargs):
        seen.append(name)
        return original(name, pairs, *args, **kwargs)

    monkeypatch.setattr(verify_module, "run_pairs", capture)
    assert [_report_bits(r) for r in run_suites(st, plan, 1e-8, suites=suites)] == want
    decided = {"pqn.phi_closed", "pqn.phi_n_closed"}  # closed by type on a 3d chart
    assert seen == [r[0] for r in want if r[0] not in decided]
    del calls[:]
    monkeypatch.setattr(verify_module, "run_pairs", functools.wraps(original)(capture))
    assert [_report_bits(r) for r in run_suites(st, plan, 1e-8, suites=suites)] == want
    assert len(calls) == batched < len(seen)


# Two of perfbench's fixed rounding-fault recipes (known.FAULT_INSTANCES[0]
# and [4], the second with lambda = g): a check that is exactly zero fails
# in floating point, chain.C1_haantjes[3] on the first and
# battery.torsion_power_form on the second.
FAULT_RECIPE = RecipeInput(
    lam=parse("3*x^2 + 2*x*z + 3*z", CH),
    a=parse("-x - y^2 - 3*y", CH),
    g=parse("-3*z^2 - z - 2", CH),
)
FAULT_RECIPE_LAMBDA_G = RecipeInput(
    lam=parse("-2*z^2 + 3*z - 3", CH),
    a=parse("x + 2*y + 1", CH),
    g=parse("-2*z^2 + 3*z - 3", CH),
)

# the checks with a side that is a staged torsion or Haantjes component
STAGED_CHECKS = {
    "pn.torsion", "pqn.torsion_prescribed", "3d.torsion_closed_form",
    "battery.torsion_general_form", "battery.torsion_compatibility_form",
    "battery.torsion_power_form", "battery.rank_one_torsion",
    "chain.C1_haantjes[3]", "battery.rank_one_haantjes", "battery.haantjes_affine_scaling",
}


def test_a_rebound_run_pairs_receives_staged_checks_as_expressions(plan, monkeypatch):
    # perfbench/exact.py rebinds verify.run_pairs and walks the captured
    # pairs' nodes with expr._children, so the torsion and Haantjes checks,
    # whose sides are staged for a numeric contraction, reach it expanded.
    suites = ("pn", "pqn", "3d", "chain", "battery")
    original = verify_module.run_pairs
    for recipe, fault in ((FAULT_RECIPE, "chain.C1_haantjes[3]"),
                          (FAULT_RECIPE_LAMBDA_G, "battery.torsion_power_form")):
        st = r3_recipe(recipe)
        monkeypatch.setattr(verify_module, "run_pairs", original)
        want = [_report_bits(r) for r in run_suites(st, plan, 1e-8, suites=suites)]
        captured = {}

        def capture(name, pairs, *args, **kwargs):
            captured[name] = list(pairs)
            return original(name, pairs, *args, **kwargs)

        monkeypatch.setattr(verify_module, "run_pairs", capture)
        got = [_report_bits(r) for r in run_suites(st, plan, 1e-8, suites=suites)]
        assert got == want
        assert STAGED_CHECKS <= set(captured)
        assert all(
            isinstance(e, Expr) for pairs in captured.values() for pair in pairs for e in pair
        )
        assert next(r for r in want if r[0] == fault)[1] == "fail"


def test_resampling_rounds_share_one_compiled_program(tmp_path, monkeypatch):
    # The golden r3-recipe-log resample case: 75 checks replace points in
    # 8 rounds each.  A settled batch compiles one program for all its
    # chunks, and a check that resamples one for all its rounds.
    compiles = []
    compile_ = expr._compile
    monkeypatch.setattr(expr, "_compile", lambda *args: compiles.append(1) or compile_(*args))
    settled, calls = [], []
    settle, evaluate = verify_module.run_checks, verify_module.evaluate_batch
    monkeypatch.setattr(
        verify_module, "run_checks", lambda *args: settled.append(1) or settle(*args)
    )
    monkeypatch.setattr(
        verify_module, "evaluate_batch", lambda exprs, pts: calls.append(1) or evaluate(exprs, pts)
    )
    structure, out = tmp_path / "log.json", tmp_path / "report.json"
    assert cli.main(["catalog", "r3-recipe", "--lam", "log(x)", "--a", "y", "--g", "0",
                     "--out", str(structure)]) == 0
    del compiles[:], calls[:]
    flags = ["--samples", "1024", "--seed", "7", "--resample-limit", "4096"]
    assert cli.main(["verify", str(structure), *flags, "--out", str(out)]) == 1
    resampled = sum("resampled 995 points" in c["detail"] for c in json.loads(out.read_text())["checks"])
    assert resampled == 75 and len(calls) > 600
    assert len(compiles) == len(settled) + resampled


def test_check_identity_accepts_structured_values(plan):
    lhs = VectorField(CH, (X, Y, ZERO))
    rhs = VectorField(CH, (X, Y, ZERO))
    rep = check_identity("vector_eq", lhs, rhs, plan, 1e-8)
    assert rep.status == "pass"
    rep0 = check_identity("vector_zero", VectorField(CH, (ZERO, ZERO, ZERO)), None, plan, 1e-8)
    assert rep0.status == "pass" and rep0.max_scaled_residual == 0.0


def test_random_generators_are_deterministic():
    a = random_polynomial(CH, splitmix64(5))
    b = random_polynomial(CH, splitmix64(5))
    assert to_string(a, CH) == to_string(b, CH)
    va = random_vectorfield(CH, splitmix64(6))
    vb = random_vectorfield(CH, splitmix64(6))
    assert [to_string(c, CH) for c in va.components] == [
        to_string(c, CH) for c in vb.components
    ]
    fa = random_oneform(CH, splitmix64(7))
    fb = random_oneform(CH, splitmix64(7))
    assert {k: to_string(v, CH) for k, v in fa.components.items()} == {
        k: to_string(v, CH) for k, v in fb.components.items()
    }
    ea = random_endomorphism(CH, splitmix64(8))
    eb = random_endomorphism(CH, splitmix64(8))
    assert [[to_string(e, CH) for e in row] for row in ea.matrix] == [
        [to_string(e, CH) for e in row] for row in eb.matrix
    ]


def test_xi_form_is_the_volume_contraction(plan):
    xi = xi_form(CANONICAL, VOL)
    direct = star(CANONICAL, VOL)
    for i in range(3):
        assert evaluate(xi.component(i), points(plan)[0]) == evaluate(
            direct.component(i), points(plan)[0]
        )


class TestPoissonDiscrimination:
    def test_the_canonical_bivector_passes(self, plan):
        reports = verify_poisson(CANONICAL, plan, 1e-8, volume=VOL)
        assert {r.name for r in reports} == {
            "poisson.jacobi",
            "poisson.integrability",
            "poisson.sharp_annihilates_xi",
        }
        assert all(r.status == "pass" for r in reports)

    def test_the_twisted_bivector_fails_both_ways(self, plan):
        twisted = Bivector(CH, {(0, 1): ONE, (1, 2): neg(Y)})
        by_name = {r.name: r for r in verify_poisson(twisted, plan, 1e-8, volume=VOL)}
        assert by_name["poisson.jacobi"].status == "fail"
        assert by_name["poisson.jacobi"].max_scaled_residual > 0.1
        assert by_name["poisson.integrability"].status == "fail"
        assert by_name["poisson.integrability"].max_scaled_residual > 0.1


def test_verify_pn_on_the_lattice_pair():
    do = das_okubo(2)
    plan = sample_plan(do.chart)
    reports = verify_pn(do.pi, do.n, plan, 1e-8)
    assert [r.name for r in reports] == ["pn.C1", "pn.C2", "pn.torsion"]
    assert all(r.status == "pass" for r in reports)


def test_verify_pqn_on_the_periodic_lattice():
    td = closed_toda(2)
    plan = sample_plan(td.chart)
    reports = verify_pqn(td.pi, td.n, td.phi, plan, 1e-8)
    assert all(r.status == "pass" for r in reports)
    with pytest.raises(ValueError):
        verify_pqn(td.pi, td.n, KForm(td.chart, 2, {}), plan, 1e-8)


def test_reconstruct_decomposition_round_trips(plan):
    st = r3_recipe(RECIPE)
    xi = xi_form(st.pi, st.volume)
    got = reconstruct_decomposition(st.n, xi, plan)
    assert got is not None
    lam, z = got
    for p in points(plan)[:8]:
        assert evaluate(lam, p) == pytest.approx(evaluate(st.lam, p), abs=1e-10)
        for i in range(3):
            assert evaluate(z.components[i], p) == pytest.approx(
                evaluate(st.z.components[i], p), abs=1e-10
            )


def test_reconstruct_decomposition_gives_up_on_the_zero_form(plan):
    st = r3_recipe(RECIPE)
    assert reconstruct_decomposition(st.n, KForm(CH, 1, {}), plan) is None


def test_verify_3d_conditions_on_the_recipe(plan):
    st = r3_recipe(RECIPE)
    reports = verify_3d_conditions(
        st.pi, st.n, st.phi, st.volume, plan, 1e-8, lam=st.lam, z=st.z
    )
    assert all(r.status == "pass" for r in reports)


def test_verify_3d_conditions_survive_a_volume_rescale(plan):
    st = r3_recipe(RECIPE)
    vol = KForm(CH, 3, {(0, 1, 2): parse("1 + x^2/4", CH)})
    reports = verify_3d_conditions(st.pi, st.n, st.phi, vol, plan, 1e-8)
    assert all(r.status == "pass" for r in reports)


def test_verify_3d_conditions_need_three_coordinates():
    do = das_okubo(2)
    plan = sample_plan(do.chart)
    with pytest.raises(ValueError):
        verify_3d_conditions(do.pi, do.n, None, KForm(do.chart, 4, {(0, 1, 2, 3): ONE}), plan, 1e-8)


def test_verify_haantjes_structure_passes_and_validates(plan):
    mv = magri_veselov()
    reports = verify_haantjes_structure(mv.n, mv.theta, plan, 1e-8)
    assert all(r.status == "pass" for r in reports)
    with pytest.raises(ValueError):
        verify_haantjes_structure(mv.n, KForm(CH, 2, {}), plan, 1e-8)


def test_verify_lm_chain_flags_only_the_final_torsion(plan):
    mv = magri_veselov()
    reports = verify_lm_chain(mv.chain, mv.theta, plan, 1e-8, n=mv.n)
    failing = {
        r.name
        for r in reports
        if r.status == "fail" and not r.name.startswith("chain.product_closed")
    }
    assert failing == {"chain.C4_torsion_annihilated[2]"}


def test_recursion_table_is_symmetric_with_exact_zero_diagonal():
    do = das_okubo(2)
    plan = sample_plan(do.chart)
    result = verify_recursion_involutivity(do.pi, do.n, 3, plan, 1e-8)
    assert result.kmax == 3
    assert all(r.status == "pass" for r in result.reports)
    for i in range(3):
        assert result.table[i][i] == 0.0
        for j in range(3):
            assert result.table[i][j] == result.table[j][i]
            assert result.table[i][j] is not None


def test_recursion_needs_at_least_two_invariants():
    do = das_okubo(2)
    plan = sample_plan(do.chart)
    with pytest.raises(ValueError):
        verify_recursion_involutivity(do.pi, do.n, 1, plan, 1e-8)


def test_verify_minpoly_on_the_recipe(plan):
    st = r3_recipe(RECIPE)
    xi = xi_form(st.pi, st.volume)
    reports = verify_minpoly(st.n, st.lam, st.z, xi, plan, 1e-8)
    assert [r.name for r in reports] == ["minpoly.quadratic_annihilator"]
    assert reports[0].status == "pass"


def test_verify_theo_inv_accepts_the_factored_form(plan):
    st = r3_recipe(RECIPE)
    omega = KForm(CH, 2, {(0, 1): div(Z, constant(8.0))})
    reports = verify_theo_inv(st.pi, st.n, st.phi, omega, 3, plan, 1e-8)
    assert {r.name for r in reports} == {
        "theoinv.factorization",
        "theoinv.obstruction_pairings",
    }
    assert all(r.status == "pass" for r in reports)


def test_verify_theo_inv_builds_each_deficiency_field_once(plan, monkeypatch):
    st = r3_recipe(RECIPE)
    omega = KForm(CH, 2, {(0, 1): div(Z, constant(8.0))})
    calls = []
    original = verify_module.sub_vectors
    monkeypatch.setattr(
        verify_module, "sub_vectors", lambda a, b: calls.append(1) or original(a, b)
    )
    verify_theo_inv(st.pi, st.n, st.phi, omega, 4, plan, 1e-8)
    assert len(calls) == 4


def test_verify_theo_inv_rejects_the_zero_form(plan):
    st = r3_recipe(RECIPE)
    omega = KForm(CH, 2, {})
    by_name = {
        r.name: r for r in verify_theo_inv(st.pi, st.n, st.phi, omega, 3, plan, 1e-8)
    }
    assert by_name["theoinv.factorization"].status == "fail"


def test_deform_3d_validates_its_inputs(plan):
    st = r3_recipe(RECIPE)
    n1, omega = prop_local_pair(RECIPE)
    not_closed = KForm(CH, 2, {(0, 1): Z})
    with pytest.raises(ValueError):
        deform_3d(st.pi, n1, None, not_closed, plan, 1e-8)
    shifted = Bivector(CH, {(0, 2): ONE})
    with pytest.raises(ValueError):
        deform_3d(shifted, n1, None, omega, plan, 1e-8)


def test_run_suites_dispatches_and_skips(plan):
    mv = magri_veselov()
    reports = run_suites(mv, sample_plan(mv.chart), 1e-8)
    names = {r.name for r in reports}
    # suites whose members are absent surface as single skipped entries
    assert "poisson.skipped" in names
    assert "recursion.skipped" in names
    assert any(n.startswith("haantjes.") for n in names)
    skipped = {r.name: r for r in reports if r.status == "skipped"}
    assert "missing members" in skipped["poisson.skipped"].detail


def test_a_verdict_builds_each_torsion_once(monkeypatch):
    builds = []
    build = calculus.nijenhuis_torsion.__wrapped__
    monkeypatch.setattr(
        calculus.nijenhuis_torsion,
        "__wrapped__",
        lambda m: builds.append((m.chart, m.matrix)) or build(m),
    )
    st = closed_toda(2)
    plan = sample_plan(st.chart, count=8)
    expr.clear_tables()
    run_suites(st, plan, 1e-8)
    first = list(builds)
    assert len(first) > 1 and len(set(first)) == len(first)
    assert not expr._DERIVED
    # The memo went with the tables, so the next verdict builds afresh.
    run_suites(st, plan, 1e-8)
    assert len(builds) == 2 * len(first) and builds[len(first)] == first[0]


def test_pn_and_pqn_share_one_build_of_the_compatibility_pairs(monkeypatch):
    builds = []
    build = verify_module._compatibility_pairs.__wrapped__
    monkeypatch.setattr(
        verify_module._compatibility_pairs,
        "__wrapped__",
        lambda pi, n: builds.append(n) or build(pi, n),
    )
    chart = Chart(("x", "y", "z", "w"))
    gen = splitmix64(11)
    pi = random_bivector(chart, gen)
    n = random_endomorphism(chart, gen)
    phi = KForm(chart, 3, {(0, 1, 2): random_polynomial(chart, gen)})
    st = Structure(chart, pi=pi, n=n, phi=phi)
    expr.clear_tables()
    plan = sample_plan(chart, count=8)
    reports = {r.name: r for r in run_suites(st, plan, 1e-8, suites=("pn", "pqn"))}
    assert builds == [n]
    for cond in ("C1", "C2"):
        pn, pqn = reports[f"pn.{cond}"], reports[f"pqn.{cond}"]
        assert pn.status == "fail" and pn.max_scaled_residual > 1e-3
        assert replace(pn, name=pqn.name) == pqn


def test_run_suites_rejects_unknown_suite_names(plan):
    st = r3_recipe(RECIPE)
    with pytest.raises(ValueError):
        run_suites(st, plan, 1e-8, suites=("poisson", "nonsense"))


def test_run_suites_on_the_full_recipe_structure(plan):
    st = r3_recipe(RECIPE)
    reports = run_suites(st, plan, 1e-8, suites=("poisson", "pqn", "3d", "minpoly"))
    assert reports
    assert all(r.status == "pass" for r in reports)


def test_run_suites_looks_suite_builders_up_when_called(plan, monkeypatch):
    # The suite table reaches builders rebound on the module, as a tracer
    # or a test rebinds them.
    builders = {
        "poisson": "_poisson_entries",
        "pn": "_pn_entries",
        "pqn": "_pqn_entries",
        "3d": "_threed_entries",
        "haantjes": "_haantjes_entries",
        "chain": "_chain_entries",
        "recursion": "_recursion_entries",
        "minpoly": "_minpoly_batch",
        "theoinv": "_theoinv_entries",
        "battery": "_battery_batches",
    }
    called = []

    def stand_in(suite):
        return lambda *args, **kwargs: called.append(suite) or []

    for suite, name in builders.items():
        monkeypatch.setattr(verify_module, name, stand_in(suite))
    st = replace(r3_recipe(RECIPE), omega=KForm(CH, 2, {}))
    assert run_suites(st, plan, 1e-8) == []
    assert called == list(SUITES)


def test_run_pairs_reaches_the_rebound_evaluator(plan, monkeypatch):
    # The benchmark's tracer rebinds verify.evaluate_batch and wraps
    # verify.point_stream by name; both must stay reachable.
    calls = []
    original = verify_module.evaluate_batch

    def counting(exprs, pts):
        calls.append(pts.shape[0])
        return original(exprs, pts)

    monkeypatch.setattr(verify_module, "evaluate_batch", counting)
    rep = run_pairs("half_domain", [(sqrt(X), sqrt(X))], plan, 1e-8)
    assert rep.detail == "resampled 55 points"
    assert calls[0] == plan.count and sum(calls[1:]) == 55
    first = list(islice(verify_module.point_stream(plan), 3))
    assert first == [tuple(row) for row in point_block(plan, 0, 3).tolist()]


def test_evaluate_batch_matches_the_scalar_evaluator_across_blocks(monkeypatch):
    npts = 301
    pts = point_block(sample_plan(CH, box=(-2.0, 2.0), count=npts, seed=5), 0, npts)
    pts[:3] = 0.0  # x = 0 keeps the overflowing root finite at a few points
    big = mul(mul(X, constant(1e300)), constant(1e300))  # +-inf wherever x != 0
    shared = add(mul(X, Y), mul(Z, Z))
    roots = [
        big,
        sub(big, big),  # nan wherever x != 0
        shared,
        div(shared, add(mul(Y, Y), ONE)),
        shared,  # a root listed twice
        sqrt(add(mul(X, X), constant(0.25))),
        Y,
        constant(-2.5),
        neg(Z),
        intpow(Z, 2),
        intpow(add(X, Y), 3),
        div(ONE, X),  # +-inf at x = 0
        log(mul(X, X)),  # -inf at x = 0
    ]
    # A small budget splits the 301 points into blocks of a few points.
    monkeypatch.setattr(expr, "REGISTER_BUDGET", 256)
    got = evaluate_batch(roots, pts)
    want = np.array([[evaluate(e, p) for p in pts.tolist()] for e in roots])
    assert got.shape == (len(roots), npts)
    assert np.isinf(got[0]).sum() == npts - 3 and np.isnan(got[1]).sum() == npts - 3
    assert np.isinf(got[11, :3]).all() and (got[12, :3] == -np.inf).all()
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    np.testing.assert_array_equal(bits(got), bits(reference_evaluate_batch(roots, pts)))
    assert evaluate_batch([], pts).shape == (0, npts)


def _recipe_document(lam: str, a: str, g: str) -> dict:
    inp = RecipeInput(lam=parse(lam, CH), a=parse(a, CH), g=parse(g, CH))
    return cli.structure_to_doc(r3_recipe(inp))


def test_each_verdict_leaves_the_node_table_as_it_found_it(tmp_path, capsys):
    paths = []
    for k, (lam, a, g) in enumerate([("z", "y", "0"), ("z/2", "x/2", "z"), ("x + z", "y^2", "z")]):
        path = tmp_path / f"recipe{k}.json"
        path.write_text(json.dumps(_recipe_document(lam, a, g)), encoding="utf-8")
        paths.append(str(path))
    expr.clear_tables()
    before = len(expr._TABLE)
    pinned = [len(column) for column in expr._TAPE]
    assert len(expr._TAPE_KEY) == len(expr._PINNED)
    for path in paths:
        assert cli.main(["verify", path]) in (0, 1)
        assert len(expr._TABLE) == before
        assert not expr._DERIVED
        assert [len(column) for column in expr._TAPE] == pinned
    assert constant(0.0) is ZERO and constant(1) is ONE
    capsys.readouterr()


def _duplicate_nodes(roots) -> int:
    """Node objects reachable from roots that are structurally equal to an
    earlier one, with constants keyed by their float bit pattern."""
    klass: dict[int, int] = {}
    keys: dict[tuple, int] = {}
    for node in topo_order(list(roots)):
        if isinstance(node, Constant):
            key = ("C", struct.pack("<d", node.value))
        elif isinstance(node, Coord):
            key = ("X", node.index)
        elif isinstance(node, IntPow):
            key = ("P", node.exponent, klass[id(node.base)])
        else:
            key = (type(node).__name__,) + tuple(klass[id(c)] for c in _children(node))
        klass[id(node)] = keys.setdefault(key, len(keys))
    return len(klass) - len(keys)


def _rebind_evaluator(monkeypatch, replacement):
    """Rebind evaluate_batch in every module that binds it, as the
    benchmark's tracer does; returns the original."""
    original = verify_module.evaluate_batch
    for module in (pqnverify, expr, fields, calculus, verify_module, catalog, cli):
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, replacement)
    return original


def test_no_evaluation_sees_structurally_equal_nodes(tmp_path, capsys, monkeypatch):
    # Inspect every DAG a verdict evaluates.
    duplicates = []

    def inspecting(exprs, pts):
        duplicates.append(_duplicate_nodes(exprs))
        return original(exprs, pts)

    original = _rebind_evaluator(monkeypatch, inspecting)
    path = tmp_path / "toda2.json"
    path.write_text(json.dumps(cli.structure_to_doc(closed_toda(2))), encoding="utf-8")
    assert cli.main(["verify", str(path)]) == 1
    capsys.readouterr()
    # one call per batch: at 64 points one chunk holds every suite, so the
    # verdict settles its checks in one batch
    assert len(duplicates) == 1
    assert set(duplicates) == {0}


# (catalog arguments, verify flags) of the verdicts the tape is checked on
_REFERENCE_VERDICTS = [
    (["closed-toda", "--n", "2"], []),
    (["das-okubo", "--n", "2"], []),
    (["magri-veselov"], []),
    # log(x) is undefined on half the box, so most checks resample
    (
        ["r3-recipe", "--lam", "log(x)", "--a", "y", "--g", "0"],
        ["--samples", "1024", "--seed", "7", "--resample-limit", "4096"],
    ),
]


@pytest.mark.parametrize("budget", [None, 1024])
def test_tape_matches_the_node_at_a_time_reference(tmp_path, capsys, monkeypatch, budget):
    # Every evaluation of these verdicts, run by the tape and by the
    # reference evaluator, gives the same bits.  The small budget makes
    # most calls reuse registers and run several blocks, and there the
    # reachable entries are all found by the numpy sweep.
    if budget is not None:
        monkeypatch.setattr(expr, "REGISTER_BUDGET", budget)
        monkeypatch.setattr(expr, "_WALK_LIMIT", 0)
    registers = []
    compile_ = expr._compile

    def counting(roots, npts):
        program = compile_(roots, npts)
        registers.append(program[0])
        return program

    monkeypatch.setattr(expr, "_compile", counting)
    calls = []

    def comparing(exprs, pts):
        got = original(exprs, pts)
        want = reference_evaluate_batch(exprs, pts)
        calls.append((pts.shape[0], registers[-1]))
        np.testing.assert_array_equal(bits(got), bits(want))
        return got

    original = _rebind_evaluator(monkeypatch, comparing)
    for k, (entry, flags) in enumerate(_REFERENCE_VERDICTS):
        path = tmp_path / f"structure{k}.json"
        assert cli.main(["catalog", *entry, "--out", str(path)]) == 0
        assert cli.main(["verify", str(path), *flags]) in (0, 1)
    capsys.readouterr()
    assert len(calls) >= 150
    if budget is not None:
        # registers alone, without the operand buffers, bound the width
        several = [npts > budget // top for npts, top in calls]
        assert sum(several) >= 300


# The overflow document of tests/test_cli.py: N - lam I overflows, though
# the scaled residual of 3d.decomposition is exactly 2.
_OVERFLOW_DOCUMENT = {
    "chart": {"dim": 3, "coords": ["x", "y", "z"]},
    "volume": {"coeff": "1"},
    "bivector": {"components": {"1,2": "1"}},
    "endomorphism": {"components": {"1,1": "1.5e308"}},
    "scalars": {"lambda": "-1.5e308"},
    "vectorfield": {"components": {}},
}


def test_each_batch_of_a_verdict_reports_as_its_checks_alone(tmp_path, capsys, monkeypatch):
    settled = []
    original = verify_module.run_checks

    def comparing(checks, plan, tol):
        got = original(checks, plan, tol)
        alone = [run_pairs(name, pairs, plan, tol, detail) for name, pairs, detail in checks]
        assert [_report_bits(r) for r in got] == [_report_bits(r) for r in alone]
        settled.extend(got)
        return got

    monkeypatch.setattr(verify_module, "run_checks", comparing)
    runs = []
    for k, (entry, flags) in enumerate(_REFERENCE_VERDICTS):
        path = tmp_path / f"structure{k}.json"
        assert cli.main(["catalog", *entry, "--out", str(path)]) == 0
        runs.append([str(path), *flags])
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(_OVERFLOW_DOCUMENT), encoding="utf-8")
    runs.append([str(path), "--suites", "3d", "--tol", "3"])
    for flags in runs:
        assert cli.main(["verify", *flags]) in (0, 1)
    capsys.readouterr()
    assert len(settled) >= 150
    assert sum("resampled" in r.detail for r in settled) >= 20
    assert any(r.name == "3d.decomposition" and r.max_scaled_residual == 2.0 for r in settled)


def _record_batches(monkeypatch) -> list:
    """Per run_checks call: its checks, and the point counts of the
    evaluate_batch calls it makes."""
    batches = []
    settle, evaluate = verify_module.run_checks, verify_module.evaluate_batch

    def recording(checks, plan, tol):
        batches.append((list(checks), []))
        return settle(checks, plan, tol)

    def counting(exprs, pts):
        batches[-1][1].append(len(pts))
        return evaluate(exprs, pts)

    monkeypatch.setattr(verify_module, "run_checks", recording)
    monkeypatch.setattr(verify_module, "evaluate_batch", counting)
    return batches


def _chunk_rows(checks) -> int:
    sides = [e for _, pairs, _ in checks for pair in pairs for e in pair]
    return len(sides) + sum(verify_module._held_rows(sides).values())


def test_at_4096_points_each_suite_batch_settles_alone(monkeypatch):
    # No two batches of closed-toda n=3 fit one chunk of 4,096 points, so
    # each is settled alone, as the public suite functions settle them.
    st = closed_toda(3)
    batches = _record_batches(monkeypatch)
    run_suites(st, sample_plan(st.chart, count=4096), 1e-8)
    names = [[name for name, _, _ in checks] for checks, _ in batches]
    assert [sorted({n.split(".")[0] for n in b}) for b in names] == [
        ["poisson"], ["pn"], ["pqn"], ["involutivity", "recursion"], ["theoinv"],
        ["battery"], ["battery"],
    ]
    assert names[-2:] == [
        ["battery.rank_one_torsion", "battery.rank_one_haantjes"],
        ["battery.haantjes_affine_scaling"],
    ]
    assert all(_chunk_rows(checks) * 4096 > expr.REGISTER_BUDGET for checks, _ in batches)


def test_at_64_points_consecutive_suites_merge_within_one_chunk(monkeypatch):
    recipe, lattice = r3_recipe(RECIPE), closed_toda(4)
    plans = {st.name: sample_plan(st.chart, count=64) for st in (recipe, lattice)}
    want = {
        st.name: [_report_bits(r) for r in run_suites(st, plans[st.name], 1e-8)]
        for st in (recipe, lattice)
    }
    batches = _record_batches(monkeypatch)

    def settle(st) -> list:
        del batches[:]
        got = [_report_bits(r) for r in run_suites(st, plans[st.name], 1e-8)]
        assert got == want[st.name]
        return [(checks, points, _chunk_rows(checks)) for checks, points in batches]

    for st, count in ((recipe, 1), (lattice, 3)):
        settled = settle(st)
        assert len(settled) == count
        for _, points, rows in settled:
            # every merged batch is evaluated in one chunk of 64 points
            assert rows * 64 <= expr.REGISTER_BUDGET
            assert points[0] == 64 and 64 not in points[1:]
    # closed-toda n=4: every suite but the battery in the first batch
    first = {name.split(".")[0] for name, _, _ in settled[0][0]}
    assert first == {"poisson", "pn", "pqn", "recursion", "involutivity", "theoinv"}
    # With a budget of 600 rows a point, the lattice's battery batches take
    # more than one chunk each and its other suites split into groups.
    monkeypatch.setattr(expr, "REGISTER_BUDGET", 600 * 64)
    settled = settle(lattice)
    assert 3 < len(settled) < 7 and max(rows for *_, rows in settled) > 600
    for checks, points, rows in settled:
        if rows > 600:  # settled alone: a single suite's batch, in several chunks
            assert len({name.split(".")[0] for name, _, _ in checks}) == 1
            assert len(points) > 1
        else:
            assert points[0] == 64


def test_a_cleared_tape_does_not_reuse_an_old_program(monkeypatch):
    compiled = []
    compile_ = expr._compile
    monkeypatch.setattr(
        expr, "_compile", lambda roots, npts: compiled.append(1) or compile_(roots, npts)
    )
    pts = point_block(sample_plan(CH, seed=11), 0, 64)
    expr.clear_tables()
    first = add(mul(expr.coord(0), expr.coord(1)), expr.coord(2))
    slot = expr._tape_index(first)
    program = expr.Program([first], len(pts))
    before = evaluate_batch(program, pts)
    # the program runs again on as many points without compiling
    np.testing.assert_array_equal(bits(evaluate_batch(program, pts[::-1])), bits(before[:, ::-1]))
    assert len(compiled) == 1
    np.testing.assert_array_equal(bits(before), bits(reference_evaluate_batch([first], pts)))
    expr.clear_tables()
    second = sub(mul(expr.coord(1), expr.coord(2)), expr.coord(0))
    assert expr._tape_index(second) == slot
    # first's program, held across the clear, is compiled again
    again = evaluate_batch(program, pts)
    assert len(compiled) == 2
    np.testing.assert_array_equal(bits(again), bits(before))
    got = evaluate_batch([second], pts)
    assert len(compiled) == 3
    np.testing.assert_array_equal(bits(got), bits(reference_evaluate_batch([second], pts)))
    assert not np.array_equal(got, before)


def test_a_node_outlives_the_tables_it_was_built_in(tmp_path, capsys):
    expr.clear_tables()
    e = div(add(mul(X, intpow(Y, 3)), expr.exp(Z)), sub(X, constant(0.5)))
    pts = point_block(sample_plan(CH, seed=3), 0, 64)
    before = evaluate_batch([e, X], pts)
    slot = e._slot
    expr.clear_tables()
    # the old node evaluates after the clear, and a node built from it
    # after the clear evaluates as well
    again = evaluate_batch([e, add(e, ONE)], pts)
    np.testing.assert_array_equal(bits(again[0]), bits(before[0]))
    np.testing.assert_array_equal(again[1], before[0] + 1.0)
    # a verdict builds new nodes over e's old tape index and clears again
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps(_recipe_document("z", "y", "0")), encoding="utf-8")
    assert cli.main(["verify", str(path)]) in (0, 1)
    capsys.readouterr()
    assert e._slot != slot and e._slot < expr._BASE
    after = evaluate_batch([e], pts)
    np.testing.assert_array_equal(bits(after[0]), bits(before[0]))
    assert evaluate(e, pts[5].tolist()) == before[0, 5]


def test_suite_names_are_stable():
    assert SUITES == (
        "poisson",
        "pn",
        "pqn",
        "3d",
        "haantjes",
        "chain",
        "recursion",
        "minpoly",
        "theoinv",
        "battery",
    )


def test_check_report_is_immutable():
    rep = CheckReport("x", "pass", 0.0, None, 0, 1e-8, "")
    with pytest.raises(AttributeError):
        rep.status = "fail"


def test_structure_members_are_optional():
    st = Structure(chart=CH, pi=CANONICAL)
    assert st.n is None and st.phi is None and st.name == ""
