"""Construction of the bundled example structures."""

import math

import pytest

from pqnverify.catalog import (
    CATALOG_NAMES,
    RecipeInput,
    by_name,
    closed_toda,
    das_okubo,
    lattice_chart,
    magri_veselov,
    prop_local,
    prop_local_pair,
    r3_recipe,
)
from pqnverify.expr import (
    ONE,
    ZERO,
    Chart,
    Coord,
    add,
    constant,
    div,
    evaluate,
    intpow,
    mul,
    exp,
    sub,
)
from pqnverify.fields import power, sharp_flat, sub_endomorphisms

CH3 = Chart(("x", "y", "z"))
X, Y, Z = Coord(0), Coord(1), Coord(2)
HALF = constant(2.0)
RECIPE2 = RecipeInput(lam=div(Z, HALF), a=div(X, HALF), g=Z)

LATTICE_POINT = (0.4, -0.2, 1.0, 0.3)


def test_lattice_chart_orders_momenta_first():
    assert lattice_chart(3).coord_names == ("p1", "p2", "p3", "q1", "q2", "q3")


def test_lattice_bivector_pairs_each_site():
    do = das_okubo(2)
    assert set(do.pi.components) == {(0, 2), (1, 3)}
    for e in do.pi.components.values():
        assert evaluate(e, LATTICE_POINT) == 1.0


def test_lattice_endomorphism_entries():
    do = das_okubo(2)
    p = (1.0, 2.0, 0.3, -0.4)
    gap = math.exp(0.7)
    want = [
        [1.0, 0.0, 0.0, -gap],
        [0.0, 2.0, gap, 0.0],
        [0.0, 1.0, 1.0, 0.0],
        [-1.0, 0.0, 0.0, 2.0],
    ]
    got = [[evaluate(e, p) for e in row] for row in do.n.matrix]
    for grow, wrow in zip(got, want):
        assert grow == pytest.approx(wrow, rel=1e-12)


def test_lattice_needs_two_sites():
    with pytest.raises(ValueError, match="at least two sites"):
        das_okubo(1)


def test_first_invariant_is_the_total_momentum():
    from builders import invariant

    do = das_okubo(2)
    assert evaluate(invariant(do.n, 1), (1.0, 2.0, 0.0, 0.0)) == 3.0


def test_periodic_lattice_adds_the_wrap_terms():
    td = closed_toda(3)
    do = das_okubo(3)
    p = tuple(0.2 * (i + 1) for i in range(6))
    wrap = math.exp(p[5] - p[3])
    diff = sub_endomorphisms(td.n, do.n)
    got = {
        (i, j): evaluate(diff.matrix[i][j], p)
        for i in range(6)
        for j in range(6)
        if abs(evaluate(diff.matrix[i][j], p)) > 1e-15
    }
    assert set(got) == {(0, 5), (2, 3)}
    assert got[(0, 5)] == pytest.approx(-wrap, rel=1e-12)
    assert got[(2, 3)] == pytest.approx(wrap, rel=1e-12)


def test_periodic_lattice_carries_a_prescribing_form():
    td = closed_toda(3)
    p = tuple(0.2 * (i + 1) for i in range(6))
    wrap = math.exp(p[5] - p[3])
    assert sorted(td.phi.components) == [(0, 3, 5), (1, 3, 5), (2, 3, 5)]
    for key in td.phi.components:
        assert evaluate(td.phi.component(*key), p) == pytest.approx(2 * wrap, rel=1e-12)
    assert set(td.omega.components) == {(3, 5)}
    assert evaluate(td.omega.component(3, 5), p) == pytest.approx(-wrap, rel=1e-12)


def test_periodic_endomorphism_splits_through_the_two_form():
    td = closed_toda(3)
    do = das_okubo(3)
    correction = sharp_flat(td.pi, td.omega)
    diff = sub_endomorphisms(td.n, do.n)
    p = tuple(0.2 * (i + 1) for i in range(6))
    for i in range(6):
        for j in range(6):
            assert evaluate(diff.matrix[i][j], p) == evaluate(
                correction.matrix[i][j], p
            )


class TestRecipe:
    def test_integrates_the_missing_component(self):
        st = r3_recipe(RecipeInput(lam=Z, a=Y, g=ZERO))
        p = (0.7, -0.4, 1.3)
        assert [evaluate(c, p) for c in st.z.components] == [-0.4, -0.4, -1.3]

    def test_z_components_for_the_second_instance(self):
        st = r3_recipe(RECIPE2)
        p = (1.0, 1.0, 2.0)
        assert [evaluate(c, p) for c in st.z.components] == [0.5, 0.0, 1.0]

    def test_theta_is_the_divergence_multiple(self):
        flat = r3_recipe(RecipeInput(lam=Z, a=Y, g=ZERO))
        assert not flat.theta.components
        st = r3_recipe(RECIPE2)
        assert [evaluate(st.theta.component(i), (0.3, 0.1, 0.9)) for i in range(3)] == [
            0.0,
            0.0,
            1.0,
        ]

    def test_chain_members_are_the_powers(self):
        st = r3_recipe(RECIPE2)
        assert len(st.chain) == 4
        cube = power(st.n, 3)
        p = (0.7, -0.4, 1.3)
        for i in range(3):
            for j in range(3):
                assert evaluate(st.chain[3].matrix[i][j], p) == pytest.approx(
                    evaluate(cube.matrix[i][j], p), rel=1e-12
                )

    def test_accepts_a_consistent_explicit_b(self):
        st = r3_recipe(RecipeInput(lam=Z, a=ZERO, b=add(Y, intpow(X, 2)), g=ZERO))
        p = (0.5, 0.25, -0.8)
        assert evaluate(st.z.components[1], p) == pytest.approx(0.5, rel=1e-12)

    def test_rejects_an_inconsistent_explicit_b(self):
        with pytest.raises(ValueError, match="explicit b"):
            r3_recipe(RecipeInput(lam=Z, a=Y, g=ZERO, b=X))

    def test_rejects_a_transcendental_integrand(self):
        with pytest.raises(ValueError, match="polynomial in y"):
            r3_recipe(RecipeInput(lam=mul(Z, exp(Y)), a=ZERO, g=ZERO))

    def test_g_must_be_a_function_of_the_last_coordinate(self):
        with pytest.raises(ValueError, match="depend on z only"):
            r3_recipe(RecipeInput(lam=Z, a=Y, g=X))


def test_prop_local_pair_is_the_normal_form():
    n1, omega = prop_local_pair(RECIPE2)
    p = (1.0, 1.0, 2.0)
    got = [[evaluate(e, p) for e in row] for row in n1.matrix]
    assert got == [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 2.0]]
    assert evaluate(omega.component(0, 1), p) == -1.0
    assert evaluate(omega.component(1, 2), p) == 0.5


def test_prop_local_structure_bundles_the_pair():
    st = prop_local(RECIPE2)
    assert st.omega is not None
    assert st.pi is not None
    assert st.chart.dim == 3


def test_magri_veselov_members():
    mv = magri_veselov()
    p = (0.7, -0.4, 1.3)
    got = [[evaluate(e, p) for e in row] for row in mv.n.matrix]
    assert got == [[0.0, 0.0, 0.2], [2.0, 0.0, -1.3], [0.0, 2.0, 0.0]]
    assert mv.pi is None and mv.volume is None
    assert [evaluate(mv.theta.component(i), p) for i in range(3)] == [0.0, 0.0, 1.0]
    assert len(mv.chain) == 3


def test_by_name_round_trips_the_catalog():
    assert CATALOG_NAMES == (
        "das-okubo",
        "closed-toda",
        "r3-recipe",
        "prop-local",
        "magri-veselov",
    )
    st = by_name("das-okubo", n=2)
    assert st.chart.dim == 4
    assert by_name("closed-toda").chart.dim == 6
    recipe = by_name("r3-recipe", lam="z/2", a="x/2", g="z")
    assert evaluate(recipe.lam, (0.0, 0.0, 2.0)) == 1.0


def test_by_name_rejects_unknown_names_and_missing_args():
    with pytest.raises(ValueError, match="unknown catalog name"):
        by_name("toda")
    with pytest.raises(ValueError):
        by_name("r3-recipe")
