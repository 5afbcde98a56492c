"""Pointwise multilinear algebra: sharp/flat, wedge, interior products, star."""

import re

import pytest

from pqnverify.expr import (
    ONE,
    ZERO,
    Chart,
    Coord,
    constant,
    div,
    evaluate,
    intpow,
    mul,
    neg,
    parse,
)
from pqnverify.fields import (
    Bivector,
    ChartMismatch,
    DegreeError,
    Endomorphism,
    KForm,
    VectorField,
    apply_endomorphism,
    apply_form,
    basis_oneform,
    basis_vector,
    compose,
    divergence,
    dual_apply,
    flat,
    identity_endomorphism,
    interior_endomorphism,
    interior_form_on_bivectorfield,
    interior_mv,
    pairing,
    power,
    scale_kform,
    sharp,
    sharp_flat,
    star,
    tensor_product,
    trace,
    wedge,
)

CH = Chart(("x", "y", "z"))
X, Y, Z = Coord(0), Coord(1), Coord(2)
VOL = KForm(CH, 3, {(0, 1, 2): ONE})
CANONICAL = Bivector(CH, {(0, 1): ONE})

POINTS = [(0.7, -0.4, 1.3), (-0.9, 0.2, 0.5), (0.1, 1.1, -0.8)]


def ev(e, p=POINTS[0]):
    return evaluate(e, p)


def vec_values(v, p=POINTS[0]):
    return tuple(evaluate(c, p) for c in v.components)


class TestSharpFlat:
    def test_sharp_canonical_pair(self):
        out = sharp(CANONICAL, basis_oneform(CH, 0))
        assert vec_values(out) == (0.0, 1.0, 0.0)

    def test_sharp_misses_unshared_index(self):
        out = sharp(CANONICAL, basis_oneform(CH, 2))
        assert vec_values(out) == (0.0, 0.0, 0.0)

    def test_sharp_kills_the_dual_oneform(self):
        pi = Bivector(CH, {(0, 1): Z})
        xi = star(pi, VOL)
        for p in POINTS:
            assert vec_values(sharp(pi, xi), p) == (0.0, 0.0, 0.0)

    def test_flat_canonical_pair(self):
        omega = KForm(CH, 2, {(0, 1): ONE})
        out = flat(omega, basis_vector(CH, 0))
        assert [ev(out.component(i)) for i in range(3)] == [0.0, 1.0, 0.0]
        dead = flat(omega, basis_vector(CH, 2))
        assert [ev(dead.component(i)) for i in range(3)] == [0.0, 0.0, 0.0]

    def test_flat_after_sharp_reproduces_the_pairing(self):
        omega = KForm(CH, 2, {(0, 1): Y, (1, 2): X})
        alpha = KForm(CH, 1, {(0,): Z, (2,): ONE})
        pi = Bivector(CH, {(0, 1): ONE, (0, 2): X})
        y = VectorField(CH, (Y, intpow(X, 2), ONE))
        lhs = pairing(flat(omega, sharp(pi, alpha)), y)
        rhs = apply_form(omega, sharp(pi, alpha), y)
        for p in POINTS:
            assert ev(lhs, p) == pytest.approx(ev(rhs, p), abs=1e-12)

    def test_adjunction_is_antisymmetric(self):
        pi = Bivector(CH, {(0, 1): X, (0, 2): ONE, (1, 2): neg(Y)})
        alpha = KForm(CH, 1, {(0,): Y, (1,): ONE})
        beta = KForm(CH, 1, {(1,): Z, (2,): X})
        for p in POINTS:
            lhs = ev(pairing(beta, sharp(pi, alpha)), p)
            rhs = ev(pairing(alpha, sharp(pi, beta)), p)
            assert lhs == pytest.approx(-rhs, abs=1e-12)


class TestEndomorphisms:
    def test_dual_apply_identity(self):
        alpha = KForm(CH, 1, {(0,): Y, (2,): X})
        out = dual_apply(identity_endomorphism(CH), alpha)
        for i in range(3):
            assert ev(out.component(i)) == ev(alpha.component(i))

    def test_dual_apply_known_matrix(self):
        half = constant(0.5)
        n = Endomorphism(
            CH,
            (
                (ZERO, ZERO, neg(mul(half, Y))),
                (constant(2.0), ZERO, neg(Z)),
                (ZERO, constant(2.0), ZERO),
            ),
        )
        out = dual_apply(n, basis_oneform(CH, 2))
        assert vec_values(VectorField(CH, tuple(out.component(i) for i in range(3)))) == (
            0.0,
            2.0,
            0.0,
        )

    def test_power_zero_is_identity(self):
        n = Endomorphism(CH, ((X, Y, ZERO), (ZERO, ONE, Z), (ONE, ZERO, X)))
        p0 = power(n, 0)
        for i in range(3):
            for j in range(3):
                assert ev(p0.matrix[i][j]) == (1.0 if i == j else 0.0)

    def test_power_matches_repeated_composition(self):
        n = Endomorphism(CH, ((X, Y, ZERO), (ZERO, ONE, Z), (ONE, ZERO, X)))
        direct = compose(compose(n, n), n)
        for i in range(3):
            for j in range(3):
                assert ev(power(n, 3).matrix[i][j]) == pytest.approx(
                    ev(direct.matrix[i][j]), rel=1e-12
                )
        # Each power is the previous one composed with N, built once.
        assert compose(power(n, 2), n) is power(n, 3)

    def test_dual_apply_reverses_composition(self):
        a = Endomorphism(CH, ((X, ZERO, ONE), (ZERO, Y, ZERO), (ZERO, ZERO, Z)))
        b = Endomorphism(CH, ((ZERO, ONE, ZERO), (Z, ZERO, ZERO), (ZERO, X, Y)))
        alpha = KForm(CH, 1, {(0,): ONE, (1,): X, (2,): Y})
        lhs = dual_apply(compose(a, b), alpha)
        rhs = dual_apply(b, dual_apply(a, alpha))
        for p in POINTS:
            for i in range(3):
                assert ev(lhs.component(i), p) == pytest.approx(
                    ev(rhs.component(i), p), abs=1e-12
                )

    def test_tensor_product_annihilates_transverse_vectors(self):
        z = VectorField(CH, (X, ONE, ZERO))
        xi = basis_oneform(CH, 2)
        out = apply_endomorphism(tensor_product(z, xi), basis_vector(CH, 0))
        assert vec_values(out) == (0.0, 0.0, 0.0)

    def test_tensor_product_composition_rule(self):
        z = VectorField(CH, (X, ONE, ZERO))
        w = VectorField(CH, (ZERO, Y, ONE))
        xi = KForm(CH, 1, {(1,): X, (2,): ONE})
        lhs = compose(tensor_product(z, xi), tensor_product(w, xi))
        s = pairing(xi, w)
        rhs = tensor_product(z, xi)
        for p in POINTS:
            for i in range(3):
                for j in range(3):
                    assert ev(lhs.matrix[i][j], p) == pytest.approx(
                        ev(s, p) * ev(rhs.matrix[i][j], p), rel=1e-12, abs=1e-12
                    )

    def test_trace_of_rank_one_is_the_pairing(self):
        z = VectorField(CH, (X, intpow(Y, 2), ONE))
        xi = KForm(CH, 1, {(0,): Z, (1,): ONE, (2,): X})
        for p in POINTS:
            assert ev(trace(tensor_product(z, xi)), p) == pytest.approx(
                ev(pairing(xi, z), p), rel=1e-12
            )

    def test_sharp_flat_composite_on_the_canonical_pair(self):
        comp = sharp_flat(CANONICAL, KForm(CH, 2, {(0, 1): ONE}))
        values = [[ev(comp.matrix[i][j]) for j in range(3)] for i in range(3)]
        assert values == [[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 0.0]]


class TestWedgeAndInterior:
    def test_wedge_convention_anchor(self):
        dxdy = wedge(basis_oneform(CH, 0), basis_oneform(CH, 1))
        val = apply_form(dxdy, basis_vector(CH, 0), basis_vector(CH, 1))
        assert ev(val) == 1.0

    def test_wedge_of_a_oneform_with_itself_vanishes(self):
        xi = KForm(CH, 1, {(0,): Y, (2,): X})
        out = wedge(xi, xi)
        for key in out.components:
            for p in POINTS:
                assert ev(out.component(*key), p) == 0.0

    def test_oneforms_anticommute(self):
        a = KForm(CH, 1, {(0,): Y, (1,): ONE})
        b = KForm(CH, 1, {(1,): Z, (2,): X})
        ab = wedge(a, b)
        ba = wedge(b, a)
        for key in ab.components:
            for p in POINTS:
                assert ev(ab.component(*key), p) == -ev(ba.component(*key), p)

    def test_oneform_commutes_with_twoform(self):
        a = KForm(CH, 1, {(0,): Y})
        w = KForm(CH, 2, {(1, 2): X})
        lhs = wedge(a, w)
        rhs = wedge(w, a)
        assert ev(lhs.component(0, 1, 2)) == ev(rhs.component(0, 1, 2))

    def test_wedge_degree_overflow(self):
        w = KForm(CH, 2, {(0, 1): ONE})
        with pytest.raises(DegreeError):
            wedge(w, w)

    def test_interior_bivector_on_volume(self):
        out = interior_mv(Bivector(CH, {(0, 1): ONE}), wedge(wedge(
            basis_oneform(CH, 0), basis_oneform(CH, 1)), basis_oneform(CH, 2)))
        assert [ev(out.component(i)) for i in range(3)] == [0.0, 0.0, 1.0]

    def test_interior_vector_basics(self):
        dxdy = wedge(basis_oneform(CH, 0), basis_oneform(CH, 1))
        out = interior_mv(basis_vector(CH, 0), dxdy)
        assert [ev(out.component(i)) for i in range(3)] == [0.0, 1.0, 0.0]

    def test_interior_pair_composes(self):
        x = VectorField(CH, (Y, ZERO, ONE))
        y = VectorField(CH, (ZERO, X, Z))
        phi = KForm(CH, 3, {(0, 1, 2): parse("x*y - z^2 + 1", CH)})
        paired = interior_mv([x, y], phi)
        nested = interior_mv(y, interior_mv(x, phi))
        for p in POINTS:
            for i in range(3):
                assert ev(paired.component(i), p) == pytest.approx(
                    ev(nested.component(i), p), abs=1e-12
                )

    def test_interior_oneform_on_wedge_of_vectors(self):
        assert vec_values(
            interior_form_on_bivectorfield(
                basis_oneform(CH, 2), basis_vector(CH, 0), basis_vector(CH, 1)
            )
        ) == (0.0, 0.0, 0.0)
        assert vec_values(
            interior_form_on_bivectorfield(
                basis_oneform(CH, 0), basis_vector(CH, 0), basis_vector(CH, 1)
            )
        ) == (0.0, 1.0, 0.0)

    def test_interior_oneform_antisymmetry(self):
        xi = KForm(CH, 1, {(0,): Y, (2,): ONE})
        x = VectorField(CH, (Z, ONE, X))
        out = interior_form_on_bivectorfield(xi, x, x)
        for p in POINTS:
            assert vec_values(out, p) == (0.0, 0.0, 0.0)

    def test_interior_endomorphism_scales_by_degree(self):
        w = KForm(CH, 2, {(0, 1): X, (1, 2): Z})
        out = interior_endomorphism(identity_endomorphism(CH), w)
        for key in w.components:
            for p in POINTS:
                assert ev(out.component(*key), p) == 2 * ev(w.component(*key), p)

    def test_interior_endomorphism_rank_one_instance(self):
        n1 = Endomorphism(CH, ((ZERO,) * 3, (ZERO,) * 3, (ZERO, ZERO, Z)))
        om = KForm(CH, 2, {(0, 1): neg(div(Z, constant(2.0))), (1, 2): div(X, constant(2.0))})
        out = interior_endomorphism(n1, om)
        assert set(out.components) == {(1, 2)}
        assert ev(out.component(1, 2), (1.0, 1.0, 2.0)) == 1.0


class TestStarAndDivergence:
    def test_star_of_the_canonical_bivector(self):
        out = star(CANONICAL, VOL)
        assert [ev(out.component(i)) for i in range(3)] == [0.0, 0.0, 1.0]

    def test_star_of_a_twisted_bivector(self):
        tw = Bivector(CH, {(0, 1): ONE, (1, 2): neg(Y)})
        out = star(tw, VOL)
        assert set(out.components) == {(0,), (2,)}
        for p in POINTS:
            assert ev(out.component(0), p) == -p[1]
            assert ev(out.component(2), p) == 1.0

    def test_star_scales_with_the_volume(self):
        f = parse("1 + x^2/4", CH)
        scaled = star(CANONICAL, KForm(CH, 3, {(0, 1, 2): f}))
        plain = scale_kform(f, star(CANONICAL, VOL))
        for p in POINTS:
            for i in range(3):
                assert ev(scaled.component(i), p) == pytest.approx(
                    ev(plain.component(i), p), rel=1e-12
                )

    def test_star_sends_basis_bivectors_to_a_basis(self):
        images = []
        for pair in [(0, 1), (0, 2), (1, 2)]:
            out = star(Bivector(CH, {pair: ONE}), VOL)
            images.append({k: ev(v) for k, v in out.components.items()})
        assert images == [{(2,): 1.0}, {(1,): -1.0}, {(0,): 1.0}]

    def test_divergence_of_a_constant_field(self):
        assert ev(divergence(basis_vector(CH, 0), VOL)) == 0.0

    def test_divergence_of_a_linear_field(self):
        half = constant(2.0)
        x = VectorField(CH, (div(X, half), ZERO, div(Z, half)))
        for p in POINTS:
            assert ev(divergence(x, VOL), p) == pytest.approx(1.0, rel=1e-12)

    def test_divergence_sees_the_volume_weight(self):
        vol = KForm(CH, 3, {(0, 1, 2): parse("exp(x)", CH)})
        out = divergence(basis_vector(CH, 0), vol)
        for p in POINTS:
            assert ev(out, p) == pytest.approx(1.0, rel=1e-12)


def test_kform_component_lookup_is_signed():
    dxdy = KForm(CH, 2, {(0, 1): X})
    for p in POINTS:
        assert ev(dxdy.component(1, 0), p) == -p[0]
        assert ev(dxdy.component(0, 0), p) == 0.0


def test_kform_rejects_bad_keys():
    with pytest.raises(DegreeError):
        KForm(CH, 2, {(0, 1, 2): ONE})
    with pytest.raises(DegreeError):
        KForm(CH, 4, {})
    with pytest.raises(ValueError):
        KForm(CH, 2, {(0, 5): ONE})


@pytest.mark.parametrize("degree, key, error, message", [
    (2, (0,), DegreeError, "key (0,) does not have 2 indices"),
    (2, (-1, 0), ValueError, "key (-1, 0) has indices outside the chart"),
    (2, (0, 3), ValueError, "key (0, 3) has indices outside the chart"),
    (2, (1, 0), ValueError, "key (1, 0) is not strictly increasing"),
    (2, (1, 1), ValueError, "key (1, 1) is not strictly increasing"),
    (1, (1.0,), ValueError, "key (1.0,) has indices outside the chart"),
    (2, (0, 1.0), ValueError, "key (0, 1.0) has indices outside the chart"),
])
def test_kform_rejects_each_bad_key_after_its_valid_twins(degree, key, error, message):
    # every valid key of the degree first, so that an equal one has passed
    KForm(CH, 1, {(0,): X, (1,): X, (2,): X})
    KForm(CH, 2, {(0, 1): X, (0, 2): X, (1, 2): X})
    for _ in range(2):
        with pytest.raises(error, match=re.escape(message)):
            KForm(CH, degree, {key: X})


def test_kform_accepts_a_bool_index_as_its_int():
    KForm(CH, 1, {(1,): X})
    form = KForm(CH, 1, {(True,): Y})
    assert list(form.components) == [(True,)]
    assert form.component(1) is Y


def test_vectorfield_requires_full_components():
    with pytest.raises(ValueError):
        VectorField(CH, (ONE, ZERO))


def test_chart_mixing_is_rejected():
    other = Chart(("u", "v", "w"))
    with pytest.raises(ChartMismatch):
        pairing(basis_oneform(CH, 0), basis_vector(other, 0))
