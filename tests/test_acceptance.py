"""Acceptance battery: one test per numbered criterion, defaults everywhere.

Every test prints a single verdict line before asserting, so a verbose run
(`pytest -v`, with the -rP addopts from pyproject) shows the checklist even
for passing criteria.  Sampling uses the default plan (seed 42, 64 points
in the unit box) and tolerance 1e-8 unless a criterion states its own
threshold.  Each criterion also has to finish in under ten seconds.
"""

from __future__ import annotations

import time

import numpy as np

from pqnverify.calculus import haantjes_tensor, nijenhuis_torsion
from pqnverify.catalog import (
    RecipeInput,
    closed_toda,
    das_okubo,
    magri_veselov,
    prop_local_pair,
    r3_recipe,
)
from pqnverify.cli import main
from pqnverify.expr import ONE, Chart, derive, evaluate, parse, sample_plan, splitmix64
from pqnverify.fields import Bivector, KForm, power, sharp_flat, sub_endomorphisms
from pqnverify.verify import (
    affine_scaling_report,
    check_identity,
    deform_3d,
    random_oneform,
    random_polynomial,
    random_vectorfield,
    rank_one_identity_reports,
    run_identity_battery,
    verify_3d_conditions,
    verify_haantjes_structure,
    verify_lm_chain,
    verify_minpoly,
    verify_pn,
    verify_poisson,
    verify_pqn,
    verify_recursion_involutivity,
    xi_form,
)

from builders import points, random_endomorphism, staged_values

TOL = 1e-8
BUDGET = 10.0

R3 = Chart(("x", "y", "z"))
RECIPES = (
    RecipeInput(lam=parse("z", R3), a=parse("y", R3), g=parse("0", R3)),
    RecipeInput(lam=parse("z/2", R3), a=parse("x/2", R3), g=parse("z", R3)),
)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'pass' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def _haantjes_max(endo, plan) -> float:
    """Largest |H_N| entry over the plan's sample points."""
    vals = staged_values(haantjes_tensor(endo), points(plan))
    return float(np.max(np.abs(vals)))


def test_criterion_1_open_lattices_are_poisson_nijenhuis():
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    for sites in (2, 3):
        st = das_okubo(sites)
        reports = verify_pn(st.pi, st.n, sample_plan(st.chart), TOL)
        ok = ok and all(r.status == "pass" for r in reports)
        worst = max(worst, max(r.max_scaled_residual for r in reports))
    elapsed = time.perf_counter() - t0
    _verdict(
        1,
        ok and elapsed < BUDGET,
        f"das-okubo n=2,3 pass the PN suite, worst residual {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_periodic_lattices_are_quasi_but_not_nijenhuis():
    t0 = time.perf_counter()
    ok = True
    bits = []
    for sites in (2, 3):
        st = closed_toda(sites)
        plan = sample_plan(st.chart)
        pqn = verify_pqn(st.pi, st.n, st.phi, plan, TOL)
        ok = ok and all(r.status == "pass" for r in pqn)
        pn = {r.name: r for r in verify_pn(st.pi, st.n, plan, TOL)}
        ok = ok and pn["pn.C1"].status == "pass"
        ok = ok and pn["pn.C2"].status == "pass"
        torsion = pn["pn.torsion"]
        ok = ok and torsion.status == "fail" and torsion.max_scaled_residual > 1e-3
        hmax = _haantjes_max(st.n, plan)
        ok = ok and hmax > 1e-3
        bits.append(f"n={sites}: torsion {torsion.max_scaled_residual:.1e}, max|H| {hmax:.1f}")
    elapsed = time.perf_counter() - t0
    _verdict(2, ok and elapsed < BUDGET, "; ".join(bits) + f", {elapsed:.1f}s")


def test_criterion_3_periodic_recursion_and_rank_one_split():
    t0 = time.perf_counter()
    st = closed_toda(3)
    plan = sample_plan(st.chart)
    rec = verify_recursion_involutivity(st.pi, st.n, 4, plan, TOL)
    ok = all(r.status == "pass" for r in rec.reports)
    table_max = max(v for row in rec.table for v in row)
    ok = ok and table_max <= TOL
    omega = KForm(st.chart, 2, {(3, 5): parse("0 - exp(q3 - q1)", st.chart)})
    split = check_identity(
        "split",
        sub_endomorphisms(st.n, das_okubo(3).n),
        sharp_flat(st.pi, omega),
        plan,
        TOL,
    )
    ok = ok and split.status == "pass"
    elapsed = time.perf_counter() - t0
    _verdict(
        3,
        ok and elapsed < BUDGET,
        f"kmax=4 recursion clean, involutivity table max {table_max:.2e}, "
        f"split residual {split.max_scaled_residual:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_flat_recipe_instances_pass_every_suite():
    t0 = time.perf_counter()
    ok = True
    bits = []
    for idx, inp in enumerate(RECIPES, start=1):
        st = r3_recipe(inp)
        plan = sample_plan(st.chart)
        reports = list(verify_pqn(st.pi, st.n, st.phi, plan, TOL))
        reports += verify_3d_conditions(
            st.pi, st.n, st.phi, st.volume, plan, TOL, lam=st.lam, z=st.z
        )
        reports += verify_minpoly(
            st.n, st.lam, st.z, xi_form(st.pi, st.volume), plan, TOL
        )
        reports += verify_haantjes_structure(st.n, st.theta, plan, TOL)
        reports += verify_lm_chain(st.chain, st.theta, plan, TOL, n=st.n)
        reports += run_identity_battery(st, plan, TOL)
        reports += verify_recursion_involutivity(st.pi, st.n, 5, plan, TOL).reports
        bad = sorted(r.name for r in reports if r.status != "pass")
        ok = ok and not bad
        tag = f"recipe {idx}: {len(reports)} checks"
        bits.append(tag + (f", bad={bad}" if bad else ""))
    elapsed = time.perf_counter() - t0
    _verdict(4, ok and elapsed < BUDGET, "; ".join(bits) + f", {elapsed:.1f}s")


def test_criterion_5_cubic_flow_chain_stalls_at_torsion_annihilation():
    t0 = time.perf_counter()
    mv = magri_veselov()
    plan = sample_plan(mv.chart)
    ok = all(
        r.status == "pass"
        for r in verify_haantjes_structure(mv.n, mv.theta, plan, TOL)
    )
    t1 = nijenhuis_torsion(mv.n).expression()
    t2 = nijenhuis_torsion(power(mv.n, 2)).expression()
    for p in points(plan):
        got1 = [evaluate(ti.component(0, 2), p) for ti in t1]
        ok = ok and max(abs(got1[0] + 1.0), abs(got1[1]), abs(got1[2])) <= 1e-10
        got2 = [evaluate(ti.component(0, 1), p) for ti in t2]
        ok = ok and max(abs(got2[0]), abs(got2[1] + 8.0), abs(got2[2])) <= 1e-10
    chain_reports = verify_lm_chain(mv.chain, mv.theta, plan, TOL, n=mv.n)
    failing_c = sorted(
        r.name for r in chain_reports if r.status == "fail" and ".C" in r.name
    )
    ok = ok and failing_c == ["chain.C4_torsion_annihilated[2]"]
    elapsed = time.perf_counter() - t0
    _verdict(
        5,
        ok and elapsed < BUDGET,
        f"Haantjes suite passes, T(dx,dz)=-dx and T_NN(dx,dy)=-8dy on all samples, "
        f"lettered failures exactly {failing_c}, {elapsed:.1f}s",
    )


def test_criterion_6_deformation_reproduces_the_recipe():
    t0 = time.perf_counter()
    inp = RECIPES[1]
    n1, omega = prop_local_pair(inp)
    pi = Bivector(R3, {(0, 1): ONE})
    plan = sample_plan(R3)
    res = deform_3d(pi, n1, None, omega, plan, TOL)
    ok = res.derivative_term_sign == 1
    ref = r3_recipe(inp)
    rep_n = check_identity("ntilde", res.n_tilde, ref.n, plan, TOL)
    phi_target = KForm(R3, 3, {(0, 1, 2): parse("0 - z/4", R3)})
    rep_phi = check_identity("phitilde", res.phi_tilde, phi_target, plan, TOL)
    ok = ok and rep_n.status == "pass" and rep_phi.status == "pass"
    elapsed = time.perf_counter() - t0
    _verdict(
        6,
        ok and elapsed < BUDGET,
        f"sign +1, N residual {rep_n.max_scaled_residual:.2e}, "
        f"phi residual {rep_phi.max_scaled_residual:.2e}, {elapsed:.1f}s",
    )


def test_criterion_7_random_batteries_and_poisson_discrimination():
    t0 = time.perf_counter()
    plan = sample_plan(R3)
    gen = splitmix64(9001)
    ok = True
    for _ in range(20):
        n = random_endomorphism(R3, gen)
        f = random_polynomial(R3, gen)
        g = random_polynomial(R3, gen)
        ok = ok and affine_scaling_report(n, f, g, plan, TOL).status == "pass"
    for _ in range(20):
        w = random_vectorfield(R3, gen)
        eta = random_oneform(R3, gen)
        ok = ok and all(
            r.status == "pass"
            for r in rank_one_identity_reports(w, eta, plan, TOL)
        )
    vol = KForm(R3, 3, {(0, 1, 2): ONE})
    flat = Bivector(R3, {(0, 1): ONE})
    ok = ok and all(
        r.status == "pass" for r in verify_poisson(flat, plan, TOL, volume=vol)
    )
    twisted = Bivector(R3, {(0, 1): ONE, (1, 2): parse("0 - y", R3)})
    by_name = {r.name: r for r in verify_poisson(twisted, plan, TOL, volume=vol)}
    for name in ("poisson.jacobi", "poisson.integrability"):
        rep = by_name[name]
        ok = ok and rep.status == "fail" and rep.max_scaled_residual > 0.1
    elapsed = time.perf_counter() - t0
    _verdict(
        7,
        ok and elapsed < BUDGET,
        f"20 affine-scaling triples, 20 rank-one pairs, sharp/twisted bivectors "
        f"separated, {elapsed:.1f}s",
    )


def test_criterion_8_reports_are_byte_deterministic(tmp_path, capsys):
    t0 = time.perf_counter()
    struct = tmp_path / "toda3.json"
    ok = main(["catalog", "closed-toda", "--n", "3", "--out", str(struct)]) == 0
    payloads = []
    codes = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        codes.append(main(["verify", str(struct), "--out", str(out)]))
        payloads.append(out.read_bytes())
    capsys.readouterr()
    ok = ok and payloads[0] == payloads[1] and codes[0] == codes[1]
    elapsed = time.perf_counter() - t0
    _verdict(
        8,
        ok and elapsed < BUDGET,
        f"two verify runs agree byte for byte ({len(payloads[0])} bytes, "
        f"exit code {codes[0]} both times), {elapsed:.1f}s",
    )


def test_criterion_9_finite_differences_confirm_every_derivative():
    t0 = time.perf_counter()
    gen = splitmix64(1234)
    plan = sample_plan(R3, count=200)
    pts = points(plan)
    step = 1e-5
    worst = 0.0
    ok = True
    for j in range(200):
        e = random_polynomial(R3, gen)
        i = next(gen) % 3
        p = pts[j]
        exact = evaluate(derive(e, i), p)
        up = list(p)
        up[i] += step
        down = list(p)
        down[i] -= step
        fd = (evaluate(e, tuple(up)) - evaluate(e, tuple(down))) / (2.0 * step)
        err = abs(exact - fd)
        bound = 1e-6 * (1.0 + abs(exact))
        worst = max(worst, err / bound)
        ok = ok and err <= bound
    elapsed = time.perf_counter() - t0
    _verdict(
        9,
        ok and elapsed < BUDGET,
        f"200 random polynomials, worst error at {worst:.1e} of the bound, {elapsed:.1f}s",
    )
