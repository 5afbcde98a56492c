"""Differential operators, torsions, brackets, and the trace invariants."""

import math
from itertools import combinations

import numpy as np
import pytest

from pqnverify import calculus, expr, fields
from pqnverify import verify as verify_module
from pqnverify.calculus import (
    concomitant,
    d,
    d_invariant,
    d_n,
    d_scalar,
    haantjes_tensor,
    jacobi_sides,
    nijenhuis_torsion,
    phi_sequence_term,
    pi_n,
    poisson_bracket,
)
from pqnverify.catalog import (
    RecipeInput,
    closed_toda,
    das_okubo,
    lattice_chart,
    magri_veselov,
    r3_recipe,
)
from pqnverify.expr import (
    ONE,
    ZERO,
    Chart,
    Coord,
    add,
    constant,
    derive,
    div,
    evaluate,
    intpow,
    is_zero,
    log,
    mul,
    neg,
    parse,
    point_block,
    sample_plan,
    splitmix64,
    sub,
)
from pqnverify.fields import (
    Bivector,
    DegreeError,
    Endomorphism,
    KForm,
    VectorField,
    add_endomorphisms,
    apply_form,
    basis_oneform,
    basis_vector,
    compose,
    divergence,
    dual_apply,
    identity_endomorphism,
    interior_endomorphism,
    interior_form_on_bivectorfield,
    pairing,
    power,
    scale_endomorphism,
    scale_vector,
    sharp,
    star,
    sub_kforms,
    tensor_product,
    wedge,
)
from pqnverify.verify import (
    evaluate_batch,
    random_polynomial,
    run_suites,
)

from builders import (
    bits,
    bracket_p,
    concomitant_visits,
    dense_compose,
    dense_concomitant,
    dense_interior_endomorphism,
    dense_phi_sequence_term,
    dense_pi_n,
    dense_torsion_expression,
    haantjes_live_terms,
    invariant,
    jacobiator,
    staged_values,
    koszul_concomitant,
    lie_derivative,
    random_bivector,
    random_endomorphism,
    reference_components,
    torsion_apply,
    torsion_expression,
)

CH = Chart(("x", "y", "z"))
X, Y, Z = Coord(0), Coord(1), Coord(2)
POINTS = [(0.7, -0.4, 1.3), (-0.9, 0.2, 0.5), (0.3, 1.1, -0.8)]


def ev(e, p=POINTS[0]):
    return evaluate(e, p)


def test_d_of_a_linear_oneform():
    out = d(KForm(CH, 1, {(1,): X}))
    assert set(out.components) == {(0, 1)}
    assert ev(out.component(0, 1)) == 1.0


def test_d_of_the_contact_form():
    xi = KForm(CH, 1, {(0,): neg(Y), (2,): ONE})
    out = d(xi)
    assert {k: ev(v) for k, v in out.components.items()} == {(0, 1): 1.0}


def test_contact_form_integrability_obstruction():
    xi = KForm(CH, 1, {(0,): neg(Y), (2,): ONE})
    vol = wedge(xi, d(xi))
    assert ev(vol.component(0, 1, 2)) == 1.0


def test_d_squared_vanishes():
    alpha = KForm(CH, 1, {(0,): parse("x*y^2 - z", CH), (2,): parse("exp(x)*y", CH)})
    out = d(d(alpha))
    for key in out.components:
        for p in POINTS:
            assert ev(out.component(*key), p) == pytest.approx(0.0, abs=1e-15)


def test_d_on_top_degree_is_rejected():
    with pytest.raises(DegreeError):
        d(KForm(CH, 3, {(0, 1, 2): X}))


def lie_bracket(x: VectorField, y: VectorField) -> VectorField:
    """[X, Y]^i = X^j d_j Y^i - Y^j d_j X^i."""
    comps = []
    for i in range(x.chart.dim):
        acc = ZERO
        for j in range(x.chart.dim):
            acc = add(acc, mul(x.components[j], derive(y.components[i], j)))
            acc = sub(acc, mul(y.components[j], derive(x.components[i], j)))
        comps.append(acc)
    return VectorField(x.chart, tuple(comps))


def test_lie_bracket_basics():
    assert all(
        ev(c) == 0.0
        for c in lie_bracket(basis_vector(CH, 0), basis_vector(CH, 1)).components
    )
    out = lie_bracket(basis_vector(CH, 0), VectorField(CH, (ZERO, X, ZERO)))
    assert tuple(ev(c) for c in out.components) == (0.0, 1.0, 0.0)


def test_lie_bracket_jacobi_identity():
    a = VectorField(CH, (mul(X, Y), ZERO, ONE))
    b = VectorField(CH, (ZERO, intpow(Z, 2), X))
    c = VectorField(CH, (Y, X, ZERO))
    total = [ZERO, ZERO, ZERO]
    for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
        cyc = lie_bracket(lie_bracket(u, v), w)
        total = [add(t, comp) for t, comp in zip(total, cyc.components)]
    for p in POINTS:
        for t in total:
            assert ev(t, p) == pytest.approx(0.0, abs=1e-12)


def test_lie_derivative_cartan_examples():
    out = lie_derivative(basis_vector(CH, 0), KForm(CH, 1, {(1,): X}))
    assert ev(out.component(1)) == 1.0
    f = KForm(CH, 0, {(): parse("x^2*z", CH)})
    out0 = lie_derivative(basis_vector(CH, 0), f)
    for p in POINTS:
        assert ev(out0.component(), p) == pytest.approx(2 * p[0] * p[2], rel=1e-12)


def test_lie_derivative_of_the_volume_is_the_divergence():
    x = VectorField(CH, (mul(X, Z), intpow(Y, 2), neg(X)))
    vol = KForm(CH, 3, {(0, 1, 2): parse("1 + x^2/4", CH)})
    lv = lie_derivative(x, vol)
    target = mul(divergence(x, vol), vol.component(0, 1, 2))
    for p in POINTS:
        assert ev(lv.component(0, 1, 2), p) == pytest.approx(ev(target, p), rel=1e-12)


def test_d_n_with_the_identity_is_d():
    w = KForm(CH, 1, {(0,): mul(X, Y), (2,): intpow(Z, 2)})
    lhs = d_n(identity_endomorphism(CH), w)
    rhs = d(w)
    for key in set(lhs.components) | set(rhs.components):
        for p in POINTS:
            assert ev(lhs.component(*key), p) == pytest.approx(
                ev(rhs.component(*key), p), abs=1e-12
            )


def test_d_n_kills_the_third_coordinate_form():
    mv = magri_veselov()
    out = d_n(mv.n, basis_oneform(CH, 2))
    assert not out.components


def test_d_n_on_the_rank_one_instance():
    n1 = Endomorphism(CH, ((ZERO,) * 3, (ZERO,) * 3, (ZERO, ZERO, Z)))
    om = KForm(
        CH, 2, {(0, 1): neg(div(Z, constant(2.0))), (1, 2): div(X, constant(2.0))}
    )
    out = d_n(n1, om)
    assert set(out.components) == {(0, 1, 2)}
    assert ev(out.component(0, 1, 2), (1.0, 1.0, 2.0)) == -1.0


def test_bracket_p_antisymmetry_and_constants():
    pi = Bivector(CH, {(0, 1): ONE})
    dx = basis_oneform(CH, 0)
    dy = basis_oneform(CH, 1)
    self_bracket = bracket_p(pi, dx, dx)
    cross = bracket_p(pi, dx, dy)
    for form in (self_bracket, cross):
        for key in form.components:
            for p in POINTS:
                assert ev(form.component(*key), p) == 0.0


@pytest.mark.parametrize(
    "pi",
    [
        Bivector(CH, {(0, 1): ONE}),
        Bivector(CH, {(0, 1): ONE, (1, 2): neg(Y)}),
    ],
)
def test_bracket_of_differentials_is_the_differential_of_the_bracket(pi):
    f = parse("x^2*y", CH)
    g = parse("z + x*y", CH)
    lhs = bracket_p(pi, d_scalar(CH, f), d_scalar(CH, g))
    rhs = d_scalar(CH, poisson_bracket(pi, f, g))
    for i in range(3):
        for p in POINTS:
            assert ev(lhs.component(i), p) == pytest.approx(
                ev(rhs.component(i), p), abs=1e-12
            )


def test_canonical_momentum_position_bracket():
    do = das_okubo(2)
    chart = do.chart
    p1 = Coord(0)
    q1 = Coord(2)
    out = poisson_bracket(do.pi, p1, q1)
    assert evaluate(out, (0.4, -0.2, 1.0, 0.3)) == 1.0


def test_jacobiator_discriminates():
    flat_pi = Bivector(CH, {(0, 1): ONE})
    assert ev(jacobiator(flat_pi, X, Y, Z)) == 0.0
    twisted = Bivector(CH, {(0, 1): ONE, (1, 2): neg(Y)})
    assert ev(jacobiator(twisted, X, Y, Z)) == -1.0


class TestTorsions:
    def test_scalar_multiples_of_the_identity_are_torsion_free(self):
        f = parse("x^2 + z", CH)
        t = nijenhuis_torsion(scale_endomorphism(f, identity_endomorphism(CH))).expression()
        for j in range(3):
            for k in range(j + 1, 3):
                for p in POINTS:
                    assert all(ev(ti.component(j, k), p) == 0.0 for ti in t)

    def test_known_torsion_values(self):
        mv = magri_veselov()
        t = nijenhuis_torsion(mv.n).expression()
        assert tuple(ev(ti.component(0, 2)) for ti in t) == (-1.0, 0.0, 0.0)
        t2 = nijenhuis_torsion(power(mv.n, 2)).expression()
        assert tuple(ev(ti.component(0, 1)) for ti in t2) == (0.0, -8.0, 0.0)

    def test_component_lookup_is_antisymmetric(self):
        mv = magri_veselov()
        t = nijenhuis_torsion(mv.n).expression()
        assert ev(t[0].component(0, 2)) == -1.0
        assert ev(t[0].component(2, 0)) == 1.0
        assert ev(t[0].component(1, 1)) == 0.0

    def test_apply_is_bilinear_over_functions(self):
        mv = magri_veselov()
        t = nijenhuis_torsion(mv.n).expression()
        f = parse("y - 2*z", CH)
        x = VectorField(CH, (ONE, X, ZERO))
        y = VectorField(CH, (Z, ZERO, ONE))
        lhs = torsion_apply(t, scale_vector(f, x), y)
        rhs = scale_vector(f, torsion_apply(t, x, y))
        for p in POINTS:
            for i in range(3):
                assert ev(lhs.components[i], p) == pytest.approx(
                    ev(rhs.components[i], p), abs=1e-12
                )

    def test_lattice_endomorphism_is_torsion_free(self):
        do = das_okubo(2)
        t = nijenhuis_torsion(do.n).expression()
        pts = [(0.4, -0.2, 1.0, 0.3), (1.0, 2.0, 0.0, 0.0)]
        for j in range(4):
            for k in range(j + 1, 4):
                for p in pts:
                    for ti in t:
                        assert evaluate(ti.component(j, k), p) == pytest.approx(0.0, abs=1e-12)

    def test_haantjes_tensor_of_the_known_operator_vanishes(self):
        mv = magri_veselov()
        h = haantjes_tensor(mv.n)
        assert np.all(staged_values(h, POINTS) == 0.0)

    def test_quartic_scaling_of_the_haantjes_tensor(self):
        td = closed_toda(2)
        chart = td.chart
        f = Coord(0)
        g = add(Coord(2), constant(2.0))
        m = add_endomorphisms(
            scale_endomorphism(f, identity_endomorphism(chart)),
            scale_endomorphism(g, td.n),
        )
        hm = haantjes_tensor(m)
        hn = haantjes_tensor(td.n)
        pts = [(0.4, -0.2, 1.0, 0.3), (-0.1, 0.8, 0.2, -0.5)]
        got, hn_values = staged_values(hm, pts), staged_values(hn, pts)
        for col, p in enumerate(pts):
            want = evaluate(g, p) ** 4 * hn_values[:, col]
            assert list(got[:, col]) == pytest.approx(list(want), rel=1e-9, abs=1e-9)

    def test_rank_one_torsion_closed_form(self):
        w = VectorField(CH, (ONE, ZERO, Y))
        eta = KForm(CH, 1, {(1,): X, (2,): ONE})
        t = nijenhuis_torsion(tensor_product(w, eta)).expression()
        f = pairing(eta, w)
        df = d_scalar(CH, f)
        eta_deta = wedge(eta, d(eta))
        for a in range(3):
            for b in range(a + 1, 3):
                ea, eb = basis_vector(CH, a), basis_vector(CH, b)
                coeff = sub(
                    sub(
                        mul(eta.component(a), pairing(df, eb)),
                        mul(eta.component(b), pairing(df, ea)),
                    ),
                    apply_form(eta_deta, w, ea, eb),
                )
                want = scale_vector(coeff, w)
                for p in POINTS:
                    got = [ev(ti.component(a, b), p) for ti in t]
                    assert got == pytest.approx(
                        [ev(c, p) for c in want.components], abs=1e-12
                    )

    def test_three_d_torsion_reduces_to_the_interior_term(self):
        st = r3_recipe(
            RecipeInput(lam=div(Z, constant(2.0)), a=div(X, constant(2.0)), g=Z)
        )
        xi = star(st.pi, st.volume)
        zlam = pairing(d_scalar(CH, st.lam), st.z)
        t = nijenhuis_torsion(st.n).expression()
        for a in range(3):
            for b in range(a + 1, 3):
                want = scale_vector(
                    zlam,
                    interior_form_on_bivectorfield(
                        xi, basis_vector(CH, a), basis_vector(CH, b)
                    ),
                )
                for p in POINTS:
                    got = [ev(ti.component(a, b), p) for ti in t]
                    assert got == pytest.approx(
                        [ev(c, p) for c in want.components], abs=1e-12
                    )


def haantjes_direct(n: Endomorphism, t) -> dict:
    """Reference Haantjes tensor in O(d^5) products: on each pair j < k,
    H^i_{jk} = sum_{m,l} N^m_j N^l_k T^i_{ml}
               - sum_m N^i_m (T(NX,Y) + T(X,NY))^m + sum_m (N^2)^i_m T^m_{jk}."""
    dim = n.chart.dim
    n2 = compose(n, n)
    pairs = {}
    for j in range(dim):
        for k in range(j + 1, dim):
            comps = []
            for i in range(dim):
                acc = ZERO
                for m in range(dim):
                    for l in range(dim):
                        acc = add(acc, mul(mul(n.matrix[m][j], n.matrix[l][k]), t[i].component(m, l)))
                for m in range(dim):
                    inner = ZERO
                    for l in range(dim):
                        inner = add(inner, mul(n.matrix[l][j], t[m].component(l, k)))
                        inner = add(inner, mul(n.matrix[l][k], t[m].component(j, l)))
                    acc = sub(acc, mul(n.matrix[i][m], inner))
                    acc = add(acc, mul(n2.matrix[i][m], t[m].component(j, k)))
                comps.append(acc)
            pairs[(j, k)] = comps
    return pairs


# The tensor builds the torsion it contracts, as the ids record.
@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6], ids="{}-torsion-built".format)
def test_haantjes_tensor_matches_the_direct_formula(dim):
    chart = Chart(tuple(f"x{i}" for i in range(dim)))
    n = random_endomorphism(chart, splitmix64(100 + dim))
    h = haantjes_tensor(n)
    want = haantjes_direct(n, torsion_expression(n))
    assert list(want) == list(h.pairs)
    want_exprs = [c for key in want for c in want[key]]
    pts = point_block(sample_plan(chart, count=32, seed=dim), 0, 32)
    got, ref = staged_values(h, pts), evaluate_batch(want_exprs, pts)
    assert np.all(np.isfinite(ref))
    # Every Haantjes tensor vanishes in dimension 2; above it these do not.
    assert dim == 2 or np.max(np.abs(ref)) > 1.0
    scaled = np.abs(got - ref) / np.maximum(1.0, np.maximum(np.abs(got), np.abs(ref)))
    assert np.max(scaled) <= 1e-9


def _awkward_endomorphism(chart: Chart, seed: int, extra=()) -> Endomorphism:
    """A sparse random_endomorphism: of every 16 entries about 6 are a
    structural zero, 2 are -3 x0 (-0.0 where x0 is 0), 2 constants, and
    1/x1 and log(x1^2) one each (inf and -inf where x1 is 0), then one
    each of extra."""
    gen = splitmix64(seed)
    rows = [list(row) for row in random_endomorphism(chart, gen).matrix]
    x0, x1 = Coord(0), Coord(1 % chart.dim)
    special = [ZERO] * 6 + [mul(constant(-3.0), x0)] * 2 + [
        constant(2.0), constant(-1.0), div(ONE, x1), log(mul(x1, x1))] + list(extra)
    for row in rows:
        for j in range(chart.dim):
            pick = next(gen) % 16
            if pick < len(special):
                row[j] = special[pick]
    return Endomorphism(chart, tuple(tuple(row) for row in rows))


def _assert_contraction_bits(h, pts) -> np.ndarray:
    """The staged tensor's contraction equals its evaluated reference
    builder's expressions bit for bit, finiteness included; returns their
    values."""
    want = evaluate_batch(reference_components(h), pts)
    got = staged_values(h, pts)
    assert np.array_equal(np.isfinite(got), np.isfinite(want))
    assert np.array_equal(bits(got), bits(want))
    return want


@pytest.mark.parametrize("dim", range(2, 9))
def test_contraction_matches_the_evaluated_expansion_bit_for_bit(dim):
    chart = Chart(tuple(f"x{i}" for i in range(dim)))
    pts = point_block(sample_plan(chart, count=48, seed=dim), 0, 48)
    pts[::4, 0] = 0.0  # -3 x0 is -0.0
    pts[1::4, 1 % dim] = 0.0  # 1/x1 is inf and log(x1^2) is -inf
    nonfinite = negative_zeros = negated = 0
    for seed in range(4):
        h = haantjes_tensor(_awkward_endomorphism(chart, 17 * dim + seed))
        want = _assert_contraction_bits(h, pts)
        nonfinite += int((~np.isfinite(want)).sum())
        negative_zeros += int((bits(want) == bits(np.array(-0.0))).sum())
        # the same draws with -x0 and -(x0 x1), whose derivatives along the
        # other coordinates are the constant -0.0
        n = _awkward_endomorphism(chart, 17 * dim + seed, _negated(chart))
        _assert_contraction_bits(haantjes_tensor(n), pts)
        negated += sum(
            e is neg(ZERO) for plane in calculus._derivatives(n) for row in plane for e in row
        )
    assert 0 < nonfinite < 4 * len(want) * len(pts)
    # these seeds give components that are -0.0 at d = 3, 4 and 5
    assert dim not in (3, 4, 5) or negative_zeros
    assert negated


@pytest.mark.parametrize("seed", [51, 231, 745, 1522])
def test_contraction_matches_the_expansion_where_constants_cancel(seed):
    # On these draws sums of constant products cancel to a structural zero
    # inside the contraction, which later sums must treat as ZERO: without
    # that, 51, 231 and 1522 change bits in the inner sums and 745 in H's.
    chart = Chart(tuple(f"x{i}" for i in range(4)))
    x0, x1 = Coord(0), Coord(1)
    pool = [ZERO, ZERO, ZERO, constant(1.0), constant(-1.0), constant(2.0),
            mul(constant(-3.0), x0), x1, x0, mul(x0, x1)]
    gen = splitmix64(seed)
    rows = tuple(tuple(pool[next(gen) % len(pool)] for _ in range(4)) for _ in range(4))
    pts = point_block(sample_plan(chart, count=48, seed=4), 0, 48)
    pts[::4, 0] = 0.0
    pts[1::4, 1] = 0.0
    _assert_contraction_bits(haantjes_tensor(Endomorphism(chart, rows)), pts)


def _run_battery(st, plan) -> None:
    """Build the battery and settle its batches, keeping the tables (and
    with them the per-verdict memo) that run_suites would empty."""
    for batch in verify_module.run_identity_battery(st, plan, 1e-8, 5):
        verify_module._run_in_order(batch, plan, 1e-8)


@pytest.mark.parametrize("sites", [2, 3, 4, 6])
def test_battery_contractions_match_the_evaluated_expansion(sites, monkeypatch):
    expr.clear_tables()  # no tensor of an equal N kept from an earlier test
    st = closed_toda(sites)
    built = []
    monkeypatch.setattr(
        verify_module, "haantjes_tensor", lambda n: built.append(haantjes_tensor(n)) or built[-1]
    )
    plan = sample_plan(st.chart)
    _run_battery(st, plan)
    # the rank-one W (x) eta, then f I + g N and N
    assert len(built) == 3 and built[2].n is st.n
    # battery.rank_one_torsion reads the torsion the Haantjes tensor contracts
    assert built[0].torsion is nijenhuis_torsion(built[0].n)
    pts = point_block(plan, 0, plan.count)
    for h in built:
        _assert_contraction_bits(h, pts)
        _assert_contraction_bits(h.torsion, pts)
    expr.clear_tables()


def test_haantjes_stages_run_only_products_without_a_structural_zero(monkeypatch):
    expr.clear_tables()
    st = closed_toda(3)
    built = []
    monkeypatch.setattr(
        verify_module, "haantjes_tensor", lambda n: built.append(haantjes_tensor(n)) or built[-1]
    )
    _run_battery(st, sample_plan(st.chart))
    # the rank-one W (x) eta, then f I + g N and N
    assert len(built) == 3 and built[2].n is st.n
    dim = st.chart.dim
    npairs = dim * (dim - 1) // 2
    every = dim ** 3 * (dim - 1) + npairs * dim * (dim + 2) + npairs * dim * 2 * dim
    products = [sum(stage.products for stage in h.stages) for h in built]
    assert products == [haantjes_live_terms(h.n) for h in built]
    # W (x) eta has no structural zero; f I + g N and N have many
    assert products[0] == every and products[2] < products[1] < every
    expr.clear_tables()


def test_torsion_and_haantjes_tensor_are_built_once_per_verdict(monkeypatch):
    expr.clear_tables()
    builds = []
    build = calculus.nijenhuis_torsion.__wrapped__
    monkeypatch.setattr(
        calculus.nijenhuis_torsion, "__wrapped__", lambda m: builds.append(m) or build(m)
    )
    n = random_endomorphism(CH, splitmix64(7))
    t = nijenhuis_torsion(n)
    assert nijenhuis_torsion(power(n, 1)) is t
    h = haantjes_tensor(n)
    assert haantjes_tensor(power(n, 1)) is h
    assert builds == [n]
    expr.clear_tables()
    assert nijenhuis_torsion(n) is not t and builds == [n, n]


# -x0 and -(x0 x1): their derivatives along the other coordinates are
# neg(ZERO), the constant -0.0
def _negated(chart: Chart) -> tuple:
    x0, x1 = Coord(0), Coord(1 % chart.dim)
    return neg(x0), neg(mul(x0, x1))


@pytest.mark.parametrize("dim", range(2, 9))
def test_staged_torsion_matches_the_evaluated_expression_bit_for_bit(dim):
    chart = Chart(tuple(f"x{i}" for i in range(dim)))
    pts = point_block(sample_plan(chart, count=48, seed=dim), 0, 48)
    pts[::4, 0] = 0.0  # -3 x0 is -0.0
    pts[1::4, 1 % dim] = 0.0  # 1/x1 is inf and log(x1^2) is -inf
    nonfinite = negative_zeros = 0
    for seed in range(4):
        n = _awkward_endomorphism(chart, 29 * dim + seed, _negated(chart))
        want = _assert_contraction_bits(nijenhuis_torsion(n), pts)
        nonfinite += int((~np.isfinite(want)).sum())
        negative_zeros += sum(
            e is neg(ZERO) for plane in calculus._derivatives(n) for row in plane for e in row
        )
    assert 0 < nonfinite < 4 * len(want) * len(pts)
    assert negative_zeros


@pytest.mark.parametrize("seed", [47, 75, 92])
def test_staged_torsion_matches_the_expression_where_constants_cancel(seed):
    # On these draws a torsion component's first terms are constants that
    # cancel to a structural zero, which its later terms must treat as ZERO.
    chart = Chart(tuple(f"x{i}" for i in range(4)))
    x0, x1 = Coord(0), Coord(1)
    pool = [ZERO, ZERO, ZERO, constant(1.0), constant(-1.0), constant(2.0),
            mul(constant(-3.0), x0), x1, x0, mul(x0, x1), mul(x1, x1)]
    gen = splitmix64(seed)
    rows = tuple(tuple(pool[next(gen) % len(pool)] for _ in range(4)) for _ in range(4))
    pts = point_block(sample_plan(chart, count=48, seed=4), 0, 48)
    pts[::4, 0] = 0.0
    pts[1::4, 1] = 0.0
    t = nijenhuis_torsion(Endomorphism(chart, rows))
    assert t.stages[-1]._folds
    _assert_contraction_bits(t, pts)


def _awkward_bivector(chart: Chart, seed: int) -> Bivector:
    """A random_bivector whose entries are about half of them replaced by
    a structural zero, a constant, -x0 or -(x0 x1)."""
    gen = splitmix64(seed)
    special = [ZERO, ZERO, constant(2.0), *_negated(chart)]
    comps = {}
    for key, e in random_bivector(chart, gen).components.items():
        pick = next(gen) % (2 * len(special))
        comps[key] = special[pick] if pick < len(special) else e
    return Bivector(chart, comps)


@pytest.mark.parametrize("dim", range(2, 9))
def test_symbolic_builders_return_the_nodes_of_their_dense_loops(dim):
    # Skipping a product with a structural-zero factor changes no node:
    # every component is the very node the loop that builds every product
    # returns.  The staged torsion's and Haantjes tensor's expansions are
    # the very nodes of the hand-written loops, on N and on N with -0.0
    # entries.
    chart = Chart(tuple(f"x{i}" for i in range(dim)))
    for seed in range(3):
        n = _awkward_endomorphism(chart, 41 * dim + seed, _negated(chart))
        p = _awkward_bivector(chart, 43 * dim + seed)
        t = torsion_expression(n)
        for (j, k), comps in dense_torsion_expression(n).items():
            assert all(ti.component(j, k) is c for ti, c in zip(t, comps, strict=True))
        for q in (n, _with_negative_zeros(n)):
            for staged in (nijenhuis_torsion(q), haantjes_tensor(q)):
                got = [e.expand() for e in staged.entries()]
                assert all(a is b for a, b in zip(got, reference_components(staged), strict=True))
        closed, dense = concomitant(p, n), dense_concomitant(p, n)
        assert list(closed) == list(dense)
        for key, form in closed.items():
            assert list(form.components) == list(dense[key].components)
            assert all(form.components[c] is dense[key].components[c] for c in form.components)
        # -0.0 entries of N times P's constants make the dense loop's zero
        # products constants of either sign
        for q in (n, _with_negative_zeros(n)):
            (got, got_defects), (want, want_defects) = pi_n(p, q), dense_pi_n(p, q)
            assert list(got.components) == list(want.components)
            assert all(got.components[c] is want.components[c] for c in got.components)
            assert all(a is b for a, b in zip(got_defects, want_defects, strict=True))
        for s in range(3):
            got, want = phi_sequence_term(n, s), dense_phi_sequence_term(n, s)
            assert list(got.components) == list(want.components)
            assert all(got.components[c] is want.components[c] for c in got.components)
        squared = dense_compose(n, n)
        assert all(
            a is b for ra, rb in zip(compose(n, n).matrix, squared.matrix) for a, b in zip(ra, rb)
        )
        for degree in range(1, dim):
            omega = _awkward_form(chart, degree, 47 * dim + 5 * seed + degree)
            got = interior_endomorphism(n, omega)
            want = dense_interior_endomorphism(n, omega)
            assert list(got.components) == list(want.components)
            assert all(got.components[c] is want.components[c] for c in got.components)
        x = chart.coords()
        nested = [jacobiator(p, x[i], x[j], x[k]) for i, j, k in combinations(range(dim), 3)]
        assert all(a is b for a, b in zip(jacobi_sides(p), nested, strict=True))
        expr.clear_tables()


def _with_negative_zeros(n: Endomorphism) -> Endomorphism:
    """N with its first row's last entry and its last row's first entry
    replaced by the constant -0.0."""
    rows = [list(row) for row in n.matrix]
    rows[0][-1] = rows[-1][0] = neg(ZERO)
    return Endomorphism(n.chart, tuple(map(tuple, rows)))


def _awkward_form(chart: Chart, degree: int, seed: int) -> KForm:
    """A form of the degree whose keys hold a structural zero, -2, -x0 or
    -(x0 x1), or a random polynomial, about half of them the last."""
    gen = splitmix64(seed)
    special = [ZERO, ZERO, constant(-2.0), *_negated(chart)]
    comps = {}
    for key in combinations(range(chart.dim), degree):
        pick = next(gen) % (2 * len(special))
        comps[key] = special[pick] if pick < len(special) else random_polynomial(chart, gen)
    return KForm(chart, degree, comps)


def _negative_zero_start() -> tuple[Bivector, Endomorphism]:
    """A pair whose PN^{01} is -x0 / 2: d_k PN^{01}, the start of the
    concomitant's sums on (0, 1, k), is the constant -0.0 for k > 0."""
    chart = Chart(tuple(f"x{i}" for i in range(4)))
    x0 = Coord(0)
    p = Bivector(chart, {(0, 1): neg(x0), (1, 2): constant(-2.0), (2, 3): mul(x0, Coord(3))})
    rows = [[ZERO] * 4 for _ in range(4)]
    rows[0][0] = rows[1][1] = ONE
    rows[2][3], rows[3][0] = neg(mul(x0, Coord(1))), constant(-1.0)
    return p, Endomorphism(chart, tuple(map(tuple, rows)))


def test_concomitant_sums_that_start_at_negative_zero_return_the_dense_nodes():
    p, n = _negative_zero_start()
    assert derive(pi_n(p, n)[0].component(0, 1), 1) is neg(ZERO)
    closed, dense = concomitant(p, n), dense_concomitant(p, n)
    for key, form in closed.items():
        assert list(form.components) == list(dense[key].components)
        assert all(form.components[c] is dense[key].components[c] for c in form.components)
    expr.clear_tables()


def test_sparse_builders_visit_terms_in_proportion_to_the_nonzeros(monkeypatch):
    expr.clear_tables()
    st = closed_toda(8)
    dim = st.chart.dim
    # i_N on dphi, which has no component, builds no product; on phi one
    # per stored component, slot l and N^l_m with m not another index
    products = []
    monkeypatch.setattr(fields, "mul", lambda a, b: products.append(1) or expr.mul(a, b))
    dphi = d(st.phi)
    assert dphi.components == {}
    interior_endomorphism(st.n, dphi)
    assert products == []
    interior_endomorphism(st.n, st.phi)
    nz = [[m for m, e in enumerate(row) if not is_zero(e)] for row in st.n.matrix]
    terms = sum(m == l or m not in key for key in st.phi.components for l in key for m in nz[l])
    assert len(products) == terms > 0
    # the Jacobi sides: {x_a, x_b} for each stored P^{ab} and P^{ba}, and
    # {x_c, g} only for a g that is not constant: none, P being constant
    calls = []
    bracket = calculus.poisson_bracket
    monkeypatch.setattr(calculus, "poisson_bracket", lambda *a: calls.append(a) or bracket(*a))
    verify_module.verify_poisson(fields.Structure(st.chart, pi=st.pi), sample_plan(st.chart), 1e-8, 5)
    assert len(calls) == 2 * len(st.pi.components) < math.comb(dim, 3)
    chart = Chart(tuple(f"x{i}" for i in range(8)))
    p = _awkward_bivector(chart, 8)
    calls.clear()
    jacobi_sides(p)
    # one outer bracket per non-constant P^{ab} and third index c
    varying = sum(not isinstance(e, expr.Constant) for e in p.components.values())
    assert len(calls) == 2 * len(p.components) + (8 - 2) * varying < 6 * math.comb(8, 3)
    # the concomitant: five terms for each (i, j, k, m) with a term free of
    # structural zeros, and for every m after a -0.0 start
    adds = []
    signed_add = calculus._signed_add
    monkeypatch.setattr(calculus, "_signed_add", lambda *a: adds.append(1) or signed_add(*a))
    small = closed_toda(4)
    concomitant(small.pi, small.n)
    dense = 5 * 8**3 * (8 - 1) // 2  # five per (i < j, k, m) at d = 8
    assert len(adds) == concomitant_visits(small.pi, small.n) < dense
    for p, n in (_negative_zero_start(), (p, _awkward_endomorphism(chart, 8, _negated(chart)))):
        adds.clear()
        concomitant(p, n)
        assert len(adds) == concomitant_visits(p, n)
    expr.clear_tables()


def test_a_zero_product_is_skipped_unless_the_sum_is_negative_zero():
    negative_zero = neg(ZERO)
    assert calculus._signed_add(X, 1, ZERO, Y) is X
    assert calculus._signed_add(X, -1, Y, negative_zero) is X
    # -0.0 + 0.0 folds to ZERO and -0.0 - (-0.0) too; -0.0 + (-0.0) stays
    assert calculus._signed_add(negative_zero, 1, ZERO, Y) is ZERO
    assert calculus._signed_add(negative_zero, -1, constant(-3.0), ZERO) is ZERO
    assert calculus._signed_add(negative_zero, 1, constant(-3.0), ZERO) is negative_zero


def test_a_lattice_verdict_builds_no_torsion_expression_for_the_battery(monkeypatch):
    # The rank-one W (x) eta and f I + g N of the battery are staged only;
    # the phi sequence of the recursion suite expands N's torsion, and no
    # Haantjes tensor is expanded.
    st = closed_toda(4)
    staged, expanded = [], []
    build = calculus.nijenhuis_torsion.__wrapped__
    monkeypatch.setattr(
        calculus.nijenhuis_torsion, "__wrapped__", lambda m: staged.append(m.matrix) or build(m)
    )
    expand = calculus.StagedTensor._expand
    monkeypatch.setattr(
        calculus.StagedTensor, "_expand", lambda t: expanded.append(t) or expand(t)
    )
    expr.clear_tables()
    run_suites(st, sample_plan(st.chart), 1e-8)
    assert len(staged) == len(set(staged)) == 3 and st.n.matrix in staged
    assert [(type(t), t.n.matrix) for t in expanded] == [(calculus.TorsionTensor, st.n.matrix)]


def test_pi_n_skew_symmetrizes_only_compatible_pairs():
    do = das_okubo(2)
    out, defects = pi_n(do.pi, do.n)
    assert isinstance(out, Bivector)
    for e in defects:
        assert evaluate(e, (0.4, -0.2, 1.0, 0.3)) == pytest.approx(0.0, abs=1e-12)


def test_concomitant_of_the_identity_vanishes():
    pi = Bivector(CH, {(0, 1): ONE, (1, 2): X})
    alpha = KForm(CH, 1, {(0,): Y, (2,): ONE})
    beta = KForm(CH, 1, {(1,): Z})
    out = koszul_concomitant(pi, identity_endomorphism(CH), alpha, beta)
    for i in range(3):
        for p in POINTS:
            assert ev(out.component(i), p) == pytest.approx(0.0, abs=1e-12)


def test_concomitant_on_the_lattice_pair():
    do = das_okubo(2)
    chart = do.chart
    dq1 = basis_oneform(chart, 2)
    dp1 = basis_oneform(chart, 0)
    out = koszul_concomitant(do.pi, do.n, dq1, dp1)
    pts = [(0.4, -0.2, 1.0, 0.3), (1.0, 2.0, 0.0, 0.0)]
    for i in range(4):
        for p in pts:
            assert evaluate(out.component(i), p) == pytest.approx(0.0, abs=1e-12)


def _koszul_on_pairs(pi, n):
    chart = pi.chart
    return {
        (a, b): koszul_concomitant(pi, n, basis_oneform(chart, a), basis_oneform(chart, b))
        for a in range(chart.dim)
        for b in range(chart.dim)
    }


def test_concomitant_detects_a_broken_divergence_equation():
    n = Endomorphism(CH, ((X, ZERO, ONE), (ZERO, X, ZERO), (ZERO, ZERO, X)))
    pi = Bivector(CH, {(0, 1): ONE})
    for build in (_koszul_on_pairs, concomitant):
        worst = 0.0
        for out in build(pi, n).values():
            for i in range(3):
                for p in POINTS:
                    worst = max(worst, abs(ev(out.component(i), p)))
        assert worst > 1e-6


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_closed_form_concomitant_matches_the_bracket_form(dim):
    chart = Chart(tuple(f"x{i}" for i in range(dim)))
    gen = splitmix64(dim)
    pi = random_bivector(chart, gen)
    n = random_endomorphism(chart, gen)
    closed = concomitant(pi, n)
    assert sorted(closed) == [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    got, want = [], []
    for (i, j), form in closed.items():
        ref = koszul_concomitant(pi, n, basis_oneform(chart, i), basis_oneform(chart, j))
        for k in range(dim):
            got.append(form.component(k))
            want.append(ref.component(k))
    pts = point_block(sample_plan(chart, seed=dim, count=32), 0, 32)
    g, w = evaluate_batch(got, pts), evaluate_batch(want, pts)
    # the pair is not compatible: the reference is nonzero on every (i, j)
    assert np.isfinite(w).all()
    assert (np.abs(w).reshape(len(closed), -1).max(axis=1) > 1e-6).all()
    scale = np.maximum(1.0, np.maximum(np.abs(g), np.abs(w)))
    assert (np.abs(g - w) / scale).max() <= 1e-12


def _catalog_endomorphisms(dim: int) -> list[Endomorphism]:
    if dim == 3:
        recipe = RecipeInput(lam=div(Z, constant(2.0)), a=div(X, constant(2.0)), g=Z)
        return [magri_veselov().n, r3_recipe(recipe).n]
    if dim >= 4 and dim % 2 == 0:
        return [das_okubo(dim // 2).n, closed_toda(dim // 2).n]
    return []


@pytest.mark.parametrize("dim", range(2, 9))
def test_d_invariant_matches_the_differential_of_the_expanded_trace(dim):
    # dI_k = Tr(N^{k-1} dN) / 2 against d(Tr(N^k) / (2k)) derived through N^k
    chart = Chart(tuple(f"x{i}" for i in range(dim)))
    ns = [
        _with_negative_zeros(_awkward_endomorphism(chart, 53 * dim + seed, _negated(chart)))
        for seed in (6, 7)  # nonzero references at every d; at d = 2 seeds 0-2 are not
    ] + _catalog_endomorphisms(dim)
    for n in ns:
        got, want = [], []
        for k in range(1, 6):
            mine, ref = d_invariant(n, k), d_scalar(n.chart, invariant(n, k))
            got += [mine.component(m) for m in range(dim)]
            want += [ref.component(m) for m in range(dim)]
        pts = point_block(sample_plan(n.chart, seed=dim, count=32), 0, 32)
        g, w = evaluate_batch(got, pts), evaluate_batch(want, pts)
        assert np.isfinite(w).all()
        assert np.abs(w).max() > 1e-6
        scale = np.maximum(1.0, np.maximum(np.abs(g), np.abs(w)))
        assert (np.abs(g - w) / scale).max() <= 1e-12
    expr.clear_tables()


def test_d_invariant_multiplies_only_pairs_free_of_structural_zeros(monkeypatch):
    # one mul per (i, j, m) with (N^{k-1})^j_i and d_m N^i_j both nonzero,
    # counted in calculus and in expr, where derive builds its products
    expr.clear_tables()
    n = closed_toda(8).n
    dim = n.chart.dim
    dn = calculus._derivatives(n)
    powers = {k: power(n, k - 1).matrix for k in range(1, 6)}
    products = []
    for module in (calculus, expr):
        counted = module.mul
        monkeypatch.setattr(module, "mul", lambda a, b, m=counted: products.append(1) or m(a, b))
    for k, a in powers.items():
        products.clear()
        d_invariant(n, k)
        live = sum(
            not (is_zero(a[j][i]) or is_zero(dn[m][i][j]))
            for m in range(dim) for i in range(dim) for j in range(dim)
        )
        assert len(products) == live > 0
    expr.clear_tables()


def test_recursion_and_theoinv_build_each_d_invariant_once_per_verdict(monkeypatch):
    st = closed_toda(2)
    builds = []
    build = calculus.d_invariant.__wrapped__
    monkeypatch.setattr(
        calculus.d_invariant, "__wrapped__", lambda n, k: builds.append(k) or build(n, k)
    )
    expr.clear_tables()
    for verdict in (1, 2):
        reports = run_suites(st, sample_plan(st.chart), 1e-8, suites=("recursion", "theoinv"))
        assert {r.name.split(".")[0] for r in reports} == {"recursion", "involutivity", "theoinv"}
        assert builds == [1, 2, 3, 4, 5] * verdict
    # an int argument is keyed as itself
    n = closed_toda(2).n
    assert d_invariant(n, 2) is d_invariant(n, 2) is not d_invariant(n, 3)
    assert builds[10:] == [2, 3]
    expr.clear_tables()


def test_trace_invariants():
    ident = identity_endomorphism(CH)
    for k in (1, 2, 3):
        assert ev(invariant(ident, k)) == pytest.approx(3.0 / (2 * k), rel=1e-12)
    do = das_okubo(2)
    assert evaluate(invariant(do.n, 1), (1.0, 2.0, 0.0, 0.0)) == 3.0
    st = r3_recipe(
        RecipeInput(lam=div(Z, constant(2.0)), a=div(X, constant(2.0)), g=Z)
    )
    for p in POINTS:
        assert ev(invariant(st.n, 1), p) == pytest.approx(p[2], rel=1e-12)


def test_phi_sequence_vanishes_without_torsion():
    do = das_okubo(2)
    for s in (0, 1, 2):
        form = phi_sequence_term(do.n, s)
        for i in range(4):
            assert evaluate(form.component(i), (0.4, -0.2, 1.0, 0.3)) == pytest.approx(
                0.0, abs=1e-12
            )


def test_phi_sequence_on_the_recipe_instance():
    st = r3_recipe(
        RecipeInput(lam=div(Z, constant(2.0)), a=div(X, constant(2.0)), g=Z)
    )
    form = phi_sequence_term(st.n, 1)
    vals = [ev(form.component(i), (1.0, 1.0, 2.0)) for i in range(3)]
    assert vals == pytest.approx([0.0, 0.0, 0.5], abs=1e-12)


class TestTraceRecursion:
    """The differential recursion between consecutive trace invariants.

    The pair used here is compatible but deliberately not involutive, so
    every term in both identities is nonzero; the diagonal endomorphism
    makes all quantities short enough to audit by hand.
    """

    @pytest.fixture(autouse=True)
    def _pair(self):
        self.chart = lattice_chart(2)
        p1, q1 = Coord(0), Coord(2)
        self.pi = das_okubo(2).pi
        self.n = Endomorphism(
            self.chart,
            (
                (p1, ZERO, ZERO, ZERO),
                (ZERO, q1, ZERO, ZERO),
                (ZERO, ZERO, p1, ZERO),
                (ZERO, ZERO, ZERO, q1),
            ),
        )
        self.points = [(0.4, -0.2, 1.0, 0.3), (1.3, 0.7, -0.5, 0.9)]

    def test_the_pair_is_compatible_but_not_involutive(self):
        _, defects = pi_n(self.pi, self.n)
        for e in defects:
            for p in self.points:
                assert evaluate(e, p) == pytest.approx(0.0, abs=1e-12)
        i1 = invariant(self.n, 1)
        i2 = invariant(self.n, 2)
        bracket = poisson_bracket(self.pi, i2, i1)
        for p in self.points:
            assert abs(evaluate(bracket, p)) == pytest.approx(
                abs(p[0] - p[2]), rel=1e-9
            )
            assert abs(evaluate(bracket, p)) > 0.1

    def test_differential_recursion_step(self):
        for k in (1, 2, 3):
            lhs = d_scalar(self.chart, invariant(self.n, k + 1))
            rhs = sub_kforms(
                dual_apply(self.n, d_scalar(self.chart, invariant(self.n, k))),
                phi_sequence_term(self.n, k - 1),
            )
            for i in range(4):
                for p in self.points:
                    assert evaluate(lhs.component(i), p) == pytest.approx(
                        evaluate(rhs.component(i), p), rel=1e-9, abs=1e-12
                    )
        # the correction term itself is nonzero, so the check has teeth
        phi0 = phi_sequence_term(self.n, 0)
        assert any(
            abs(evaluate(phi0.component(i), self.points[0])) > 0.1 for i in range(4)
        )

    def test_bracket_difference_identity(self):
        inv = {k: invariant(self.n, k) for k in range(1, 4)}
        dinv = {k: d_scalar(self.chart, inv[k]) for k in inv}
        phis = {s: phi_sequence_term(self.n, s) for s in range(3)}
        sharps = {k: sharp(self.pi, dinv[k]) for k in inv}
        for k, j in [(2, 1), (3, 1), (3, 2)]:
            lhs = sub(
                poisson_bracket(self.pi, inv[k], inv[j]),
                poisson_bracket(self.pi, inv[k - 1], inv[j + 1]),
            )
            rhs = add(
                pairing(phis[j - 1], sharps[k - 1]),
                pairing(phis[k - 2], sharps[j]),
            )
            for p in self.points:
                assert evaluate(lhs, p) == pytest.approx(
                    evaluate(rhs, p), rel=1e-9, abs=1e-12
                )
