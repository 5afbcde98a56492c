"""Builders for the concrete structures the verifiers are exercised on.

Coordinate conventions:
  * 3d builders use the chart (x, y, z) with volume dx^dy^dz and the
    bivector with single component 1 on (x, y).
  * Lattice builders use the chart (p1..pn, q1..qn), momenta first, with
    the bivector pairing p_i to q_i.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import (
    Add,
    Chart,
    Constant,
    Coord,
    Cos,
    Div,
    Exp,
    Expr,
    IntPow,
    Log,
    Mul,
    Neg,
    ONE,
    Sin,
    Sqrt,
    Sub,
    ZERO,
    add,
    constant,
    coord,
    derive,
    div,
    evaluate_batch,
    exp,
    intpow,
    mul,
    neg,
    parse,
    point_block,
    sample_plan,
    sub,
    used_coords,
)
from .fields import (
    Bivector,
    Endomorphism,
    KForm,
    Structure,
    VectorField,
    add_endomorphisms,
    basis_oneform,
    divergence,
    identity_endomorphism,
    power,
    scale_endomorphism,
    scale_kform,
    tensor_product,
    zero_kform,
)

R3_COORDS = ("x", "y", "z")


def r3_chart() -> Chart:
    return Chart(R3_COORDS)


def lattice_chart(n: int) -> Chart:
    names = tuple(f"p{i}" for i in range(1, n + 1)) + tuple(
        f"q{i}" for i in range(1, n + 1)
    )
    return Chart(names)


def _lattice_pi(chart: Chart, n: int) -> Bivector:
    return Bivector(chart, {(i, n + i): ONE for i in range(n)})


def _das_okubo_matrix(chart: Chart, n: int):
    dim = 2 * n
    m = [[ZERO for _ in range(dim)] for _ in range(dim)]
    for i in range(1, n + 1):
        m[i - 1][i - 1] = coord(i - 1)
        m[n + i - 1][n + i - 1] = coord(i - 1)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            m[n + i - 1][j - 1] = add(m[n + i - 1][j - 1], ONE)
            m[n + j - 1][i - 1] = sub(m[n + j - 1][i - 1], ONE)
    for i in range(1, n):
        hop = exp(sub(coord(n + i - 1), coord(n + i)))
        m[i][n + i - 1] = add(m[i][n + i - 1], hop)
        m[i - 1][n + i] = sub(m[i - 1][n + i], hop)
    return m


def das_okubo(n: int = 3) -> Structure:
    """The lattice pair whose endomorphism has vanishing torsion, with the
    zero 3-form attached so it also feeds the quasi checks."""
    if n < 2:
        raise ValueError("the lattice needs at least two sites")
    chart = lattice_chart(n)
    m = _das_okubo_matrix(chart, n)
    return Structure(
        chart=chart,
        pi=_lattice_pi(chart, n),
        n=Endomorphism(chart, tuple(tuple(row) for row in m)),
        phi=zero_kform(chart, 3),
        name="das-okubo",
    )


def closed_toda(n: int = 3) -> Structure:
    """The periodic lattice: the das-okubo endomorphism plus the wrap-around
    hopping term, the matching 3-form, and the closed 2-form that realises
    the endomorphism as a deformation."""
    if n < 2:
        raise ValueError("the lattice needs at least two sites")
    chart = lattice_chart(n)
    m = _das_okubo_matrix(chart, n)
    wrap = exp(sub(coord(2 * n - 1), coord(n)))
    m[0][2 * n - 1] = sub(m[0][2 * n - 1], wrap)
    m[n - 1][n] = add(m[n - 1][n], wrap)
    phi = KForm(
        chart,
        3,
        {(i, n, 2 * n - 1): mul(constant(2.0), wrap) for i in range(n)},
    )
    omega = KForm(chart, 2, {(n, 2 * n - 1): neg(wrap)})
    return Structure(
        chart=chart,
        pi=_lattice_pi(chart, n),
        n=Endomorphism(chart, tuple(tuple(row) for row in m)),
        phi=phi,
        omega=omega,
        name="closed-toda",
    )


@dataclass(frozen=True)
class RecipeInput:
    """Free functions for the 3d construction: lam and a arbitrary, g a
    function of z alone, and optionally an explicit y-antiderivative b of
    lam_z - a_x (required when that integrand is not polynomial in y)."""

    lam: Expr
    a: Expr
    g: Expr
    b: Expr | None = None

    def __post_init__(self):
        if not used_coords(self.g) <= {2}:
            raise ValueError("g must depend on z only")


# Highest power of y the catalog expands lam_z - a_x to: a product of
# polynomials costs the product of their term counts.
_MAX_Y_DEGREE = 300


def _poly_product(left: dict[int, Expr], right: dict[int, Expr]) -> dict[int, Expr]:
    if max(left) + max(right) > _MAX_Y_DEGREE:
        raise ValueError(
            f"lam_z - a_x has degree over {_MAX_Y_DEGREE} in y; supply an explicit b"
        )
    out: dict[int, Expr] = {}
    for ka, va in left.items():
        for kb, vb in right.items():
            out[ka + kb] = add(out.get(ka + kb, ZERO), mul(va, vb))
    return out


def _poly_coeffs(e: Expr, idx: int) -> dict[int, Expr] | None:
    """Structural decomposition of e as a polynomial in coordinate idx,
    mapping exponent to coefficient; None when e is not polynomial there,
    a ValueError when its degree there passes _MAX_Y_DEGREE."""
    if isinstance(e, Constant):
        return {0: e}
    if isinstance(e, Coord):
        return {1: ONE} if e.index == idx else {0: e}
    if isinstance(e, Neg):
        inner = _poly_coeffs(e.arg, idx)
        if inner is None:
            return None
        return {k: neg(v) for k, v in inner.items()}
    if isinstance(e, (Add, Sub)):
        left = _poly_coeffs(e.a, idx)
        right = _poly_coeffs(e.b, idx)
        if left is None or right is None:
            return None
        out = dict(left)
        for k, v in right.items():
            cur = out.get(k, ZERO)
            out[k] = add(cur, v) if isinstance(e, Add) else sub(cur, v)
        return out
    if isinstance(e, Mul):
        left = _poly_coeffs(e.a, idx)
        right = _poly_coeffs(e.b, idx)
        if left is None or right is None:
            return None
        return _poly_product(left, right)
    if isinstance(e, Div):
        if idx in used_coords(e.b):
            return None
        top = _poly_coeffs(e.a, idx)
        if top is None:
            return None
        return {k: div(v, e.b) for k, v in top.items()}
    if isinstance(e, IntPow):
        if idx not in used_coords(e.base):
            return {0: e}
        base = _poly_coeffs(e.base, idx)
        if base is None:
            return None
        out = {0: ONE}
        for _ in range(e.exponent):
            out = _poly_product(out, base)
        return out
    if isinstance(e, (Exp, Log, Sin, Cos, Sqrt)):
        return {0: e} if idx not in used_coords(e.arg) else None
    return None


def _antiderivative_in_y(integrand: Expr) -> Expr:
    coeffs = _poly_coeffs(integrand, 1)
    if coeffs is None:
        raise ValueError(
            "lam_z - a_x is not polynomial in y; supply an explicit b"
        )
    acc: Expr = ZERO
    for k in sorted(coeffs):
        term = div(mul(coeffs[k], intpow(coord(1), k + 1)), constant(float(k + 1)))
        acc = add(acc, term)
    return acc


def _check_explicit_b(chart: Chart, b: Expr, integrand: Expr):
    plan = sample_plan(chart)
    pts = point_block(plan, 0, plan.count)
    vals = evaluate_batch([derive(b, 1), integrand], pts)
    if not np.isfinite(vals).all():
        raise ValueError("the explicit b or the integrand fails to evaluate on the box")
    scale = np.maximum(1.0, np.abs(vals).max(axis=0))
    if (np.abs(vals[0] - vals[1]) / scale).max() > 1e-8:
        raise ValueError("the explicit b does not satisfy db/dy = lam_z - a_x")


def _recipe_fields(inp: RecipeInput):
    chart = r3_chart()
    integrand = sub(derive(inp.lam, 2), derive(inp.a, 0))
    if inp.b is None:
        b = _antiderivative_in_y(integrand)
    else:
        b = inp.b
        _check_explicit_b(chart, b, integrand)
    c = sub(inp.g, inp.lam)
    z = VectorField(chart, (inp.a, b, c))
    return chart, b, c, z


def r3_recipe(inp: RecipeInput) -> Structure:
    """The 3d construction: from lam, a and g build the vector field
    completing the endomorphism lam I + Z (x) dz, the matching 3-form, the
    annihilated one-form, and the first four powers as a chain."""
    chart, b, c, z = _recipe_fields(inp)
    xi = basis_oneform(chart, 2)
    n = add_endomorphisms(
        scale_endomorphism(inp.lam, identity_endomorphism(chart)),
        tensor_product(z, xi),
    )
    ax = derive(inp.a, 0)
    by = derive(b, 1)
    phi_coeff = sub(
        add(mul(inp.a, derive(c, 0)), mul(b, derive(c, 1))),
        mul(c, add(ax, by)),
    )
    volume = KForm(chart, 3, {(0, 1, 2): ONE})
    theta = scale_kform(divergence(z, volume), xi)
    return Structure(
        chart=chart,
        volume=volume,
        pi=Bivector(chart, {(0, 1): ONE}),
        n=n,
        phi=KForm(chart, 3, {(0, 1, 2): phi_coeff}),
        lam=inp.lam,
        z=z,
        theta=theta,
        chain=tuple(power(n, k) for k in range(4)),
        name="r3-recipe",
    )


def prop_local_pair(inp: RecipeInput) -> tuple[Endomorphism, KForm]:
    """The seed of the deformation picture: the endomorphism g d_z (x) dz
    and the closed 2-form -lam dx^dy - b dx^dz + a dy^dz whose deformation
    reproduces the full recipe instance."""
    chart, b, _, _ = _recipe_fields(inp)
    dim = chart.dim
    m = [[ZERO for _ in range(dim)] for _ in range(dim)]
    m[2][2] = inp.g
    n1 = Endomorphism(chart, tuple(tuple(row) for row in m))
    omega = KForm(chart, 2, {(0, 1): neg(inp.lam), (0, 2): neg(b), (1, 2): inp.a})
    return n1, omega


def prop_local(inp: RecipeInput) -> Structure:
    """The deformation seed packaged as a structure: the base pair with the
    zero 3-form, carrying the closed 2-form for deformation checks."""
    n1, omega = prop_local_pair(inp)
    chart = n1.chart
    return Structure(
        chart=chart,
        volume=KForm(chart, 3, {(0, 1, 2): ONE}),
        pi=Bivector(chart, {(0, 1): ONE}),
        n=n1,
        phi=zero_kform(chart, 3),
        omega=omega,
        name="prop-local",
    )


def magri_veselov() -> Structure:
    """The cubic-root endomorphism with its annihilated one-form dz and the
    power family {I, N, N^2} attached as a (failing) chain candidate."""
    chart = r3_chart()
    half_y = div(coord(1), constant(2.0))
    matrix = (
        (ZERO, ZERO, neg(half_y)),
        (constant(2.0), ZERO, neg(coord(2))),
        (ZERO, constant(2.0), ZERO),
    )
    n = Endomorphism(chart, matrix)
    return Structure(
        chart=chart,
        n=n,
        theta=basis_oneform(chart, 2),
        chain=tuple(power(n, k) for k in range(3)),
        name="magri-veselov",
    )


# Each catalog name with the parameters its builder takes.
_PARAMETERS = {
    "das-okubo": ("n",),
    "closed-toda": ("n",),
    "r3-recipe": ("lam", "a", "g", "b"),
    "prop-local": ("lam", "a", "g", "b"),
    "magri-veselov": (),
}
CATALOG_NAMES = tuple(_PARAMETERS)


def _as_expr(chart: Chart, value, pname: str) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, str):
        return parse(value, chart)
    raise ValueError(f"parameter {pname} must be an expression or a string")


def by_name(
    name: str,
    n: int | None = None,
    lam=None,
    a=None,
    g=None,
    b=None,
) -> Structure:
    """Build a catalog structure by its public name.

    The lattice builders take n (default 3); the 3d builders take the
    recipe functions lam, a, g and optional b, as expressions or strings
    over the chart (x, y, z); magri-veselov takes none.  A parameter given
    to a builder that does not take it is a ValueError.
    """
    if name not in _PARAMETERS:
        raise ValueError(f"unknown catalog name: {name}")
    given = {"n": n, "lam": lam, "a": a, "g": g, "b": b}
    for pname, value in given.items():
        if value is not None and pname not in _PARAMETERS[name]:
            raise ValueError(f"{name} does not take the parameter {pname}")
    if name == "das-okubo":
        return das_okubo(3 if n is None else n)
    if name == "closed-toda":
        return closed_toda(3 if n is None else n)
    if name in ("r3-recipe", "prop-local"):
        if lam is None or a is None or g is None:
            raise ValueError(f"{name} needs lam, a and g")
        chart = r3_chart()
        inp = RecipeInput(
            lam=_as_expr(chart, lam, "lam"),
            a=_as_expr(chart, a, "a"),
            g=_as_expr(chart, g, "g"),
            b=None if b is None else _as_expr(chart, b, "b"),
        )
        return r3_recipe(inp) if name == "r3-recipe" else prop_local(inp)
    return magri_veselov()
