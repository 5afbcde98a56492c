"""Exterior and Lie calculus, torsion tensors, and trace invariants.

Everything here is exact symbolic manipulation of expression trees;
numerical sampling lives in the verify module.
"""
from __future__ import annotations

from .expr import Chart, Expr, ZERO, add, constant, derive, div, is_zero, mul, neg, sub
from .fields import (
    Bivector,
    DegreeError,
    Endomorphism,
    KForm,
    VectorField,
    VolumeForm,
    _require_same_chart,
    _sorted_with_sign,
    add_kforms,
    dual_apply,
    interior_endomorphism,
    interior_mv,
    pairing,
    per_verdict,
    power,
    scalar_form,
    sharp,
    sub_kforms,
    trace,
    volume_kform,
    zero_vector,
)


def d(omega: KForm) -> KForm:
    """Exterior derivative."""
    chart = omega.chart
    if omega.degree >= chart.dim:
        raise DegreeError("exterior derivative of a top-degree form")
    comps: dict[tuple[int, ...], Expr] = {}
    for key, e in omega.components.items():
        for i in range(chart.dim):
            de = derive(e, i)
            if is_zero(de):
                continue
            sign, k2 = _sorted_with_sign((i,) + key)
            if sign == 0:
                continue
            comps[k2] = add(comps.get(k2, ZERO), de if sign > 0 else neg(de))
    return KForm(chart, omega.degree + 1, comps)


def d_scalar(chart: Chart, f: Expr) -> KForm:
    """Differential of a function, as a one-form."""
    return d(scalar_form(chart, f))


def lie_derivative(x: VectorField, omega):
    """Lie derivative of a form along a vector field, by Cartan's formula.

    Accepts a KForm of any degree or a VolumeForm (returned as the same
    kind).  On functions this reduces to X(f), on top-degree forms to
    d(i_X omega).
    """
    if isinstance(omega, VolumeForm):
        res = lie_derivative(x, volume_kform(omega))
        top = tuple(range(omega.chart.dim))
        return VolumeForm(omega.chart, res.components.get(top, ZERO))
    chart = _require_same_chart(x, omega)
    if omega.degree == 0:
        return interior_mv(x, d(omega))
    if omega.degree == chart.dim:
        return d(interior_mv(x, omega))
    return add_kforms(d(interior_mv(x, omega)), interior_mv(x, d(omega)))


def d_n(n: Endomorphism, omega: KForm) -> KForm:
    """The derivation i_N d - d i_N attached to an endomorphism."""
    chart = _require_same_chart(n, omega)
    if omega.degree >= chart.dim:
        raise DegreeError("d_n of a top-degree form")
    return sub_kforms(interior_endomorphism(n, d(omega)), d(interior_endomorphism(n, omega)))


def bracket_p(p: Bivector, alpha: KForm, beta: KForm) -> KForm:
    """Bracket of one-forms induced by a bivector:
    L_{P#a} b - L_{P#b} a - d<b, P#a>."""
    chart = _require_same_chart(p, alpha, beta)
    if alpha.degree != 1 or beta.degree != 1:
        raise DegreeError("bracket_p expects one-forms")
    xa = sharp(p, alpha)
    xb = sharp(p, beta)
    t1 = lie_derivative(xa, beta)
    t2 = lie_derivative(xb, alpha)
    t3 = d_scalar(chart, pairing(beta, xa))
    return sub_kforms(sub_kforms(t1, t2), t3)


def poisson_bracket(p: Bivector, f: Expr, g: Expr) -> Expr:
    """{f, g} = P(df, dg)."""
    acc = ZERO
    for (i, j), e in p.components.items():
        term = sub(mul(derive(f, i), derive(g, j)), mul(derive(f, j), derive(g, i)))
        acc = add(acc, mul(e, term))
    return acc


def jacobiator(p: Bivector, f: Expr, g: Expr, h: Expr) -> Expr:
    """{f,{g,h}} + {g,{h,f}} + {h,{f,g}}; identically zero iff P is Poisson."""
    return add(
        add(
            poisson_bracket(p, f, poisson_bracket(p, g, h)),
            poisson_bracket(p, g, poisson_bracket(p, h, f)),
        ),
        poisson_bracket(p, h, poisson_bracket(p, f, g)),
    )


class TorsionEvaluator:
    """A vector-valued antisymmetric bilinear map on vector fields.

    Components are stored on coordinate pairs j < k; lookups with swapped
    or repeated arguments apply the sign.  Values on general arguments
    expand over the coordinate basis by function-bilinearity.
    """

    def __init__(self, chart: Chart, pair_fields: dict):
        self.chart = chart
        self._pairs = pair_fields

    def pair(self, j: int, k: int) -> VectorField:
        if j == k:
            return zero_vector(self.chart)
        if j < k:
            return self._pairs[(j, k)]
        flipped = self._pairs[(k, j)]
        return VectorField(self.chart, tuple(neg(c) for c in flipped.components))

    def component(self, i: int, j: int, k: int) -> Expr:
        if j == k:
            return ZERO
        if j < k:
            return self._pairs[(j, k)].components[i]
        return neg(self._pairs[(k, j)].components[i])

    def apply(self, x: VectorField, y: VectorField) -> VectorField:
        chart = _require_same_chart(x, y)
        comps = [ZERO] * chart.dim
        for (j, k), v in self._pairs.items():
            coeff = sub(
                mul(x.components[j], y.components[k]),
                mul(x.components[k], y.components[j]),
            )
            if is_zero(coeff):
                continue
            for i in range(chart.dim):
                comps[i] = add(comps[i], mul(coeff, v.components[i]))
        return VectorField(chart, tuple(comps))

    def slot_matrix(self, j: int) -> Endomorphism:
        """Matrix of the first-slot contraction: entry [i][k] is the i-th
        component of the value on the coordinate pair (j, k)."""
        dim = self.chart.dim
        rows = [[self.component(i, j, k) for k in range(dim)] for i in range(dim)]
        return Endomorphism(self.chart, tuple(tuple(r) for r in rows))


@per_verdict
def nijenhuis_torsion(n: Endomorphism) -> TorsionEvaluator:
    """Torsion T(X,Y) = [NX,NY] - N([NX,Y] + [X,NY] - N[X,Y])."""
    chart = n.chart
    dim = chart.dim
    dn = [
        [[derive(n.matrix[i][j], m) for j in range(dim)] for i in range(dim)]
        for m in range(dim)
    ]
    pairs = {}
    for j in range(dim):
        for k in range(j + 1, dim):
            comps = []
            for i in range(dim):
                acc = ZERO
                for m in range(dim):
                    acc = add(acc, mul(n.matrix[m][j], dn[m][i][k]))
                    acc = sub(acc, mul(n.matrix[m][k], dn[m][i][j]))
                    acc = add(acc, mul(n.matrix[i][m], sub(dn[k][m][j], dn[j][m][k])))
                comps.append(acc)
            pairs[(j, k)] = VectorField(chart, tuple(comps))
    return TorsionEvaluator(chart, pairs)


@per_verdict
def haantjes_tensor(n: Endomorphism) -> TorsionEvaluator:
    """H(X,Y) = T(NX,NY) - N(T(NX,Y) + T(X,NY) - N T(X,Y)), in O(d^4) products.

    Two-stage contraction: first A^i_{mk} = sum_l T^i_{ml} N^l_k, once for
    all (i, m, k).  On a coordinate pair (j, k) the identities
    T(X,NY)^m = A^m_{jk} and T(NX,Y)^m = -A^m_{kj} then give
        H^i_{jk} = sum_m N^m_j A^i_{mk}
                   - sum_m N^i_m (A^m_{jk} - A^m_{kj} - sum_p N^m_p T^p_{jk}),
    where the bracket is built once per (m, j, k) and shared over i.
    """
    chart = n.chart
    dim = chart.dim
    t = nijenhuis_torsion(n)
    nm = n.matrix
    # A^i_{mk}, read from the stored pairs l > m and, with the sign, l < m.
    a = [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for m in range(dim):
            row = a[i][m]
            for k in range(dim):
                acc = ZERO
                for l in range(dim):
                    if l == m:
                        continue
                    if l > m:
                        acc = add(acc, mul(t.component(i, m, l), nm[l][k]))
                    else:
                        acc = sub(acc, mul(t.component(i, l, m), nm[l][k]))
                row[k] = acc
    pairs = {}
    for j in range(dim):
        for k in range(j + 1, dim):
            tjk = t.pair(j, k).components
            inner = []
            for m in range(dim):
                acc = sub(a[m][j][k], a[m][k][j])
                for p in range(dim):
                    acc = sub(acc, mul(nm[m][p], tjk[p]))
                inner.append(acc)
            comps = []
            for i in range(dim):
                acc = ZERO
                for m in range(dim):
                    acc = add(acc, mul(nm[m][j], a[i][m][k]))
                for m in range(dim):
                    acc = sub(acc, mul(nm[i][m], inner[m]))
                comps.append(acc)
            pairs[(j, k)] = VectorField(chart, tuple(comps))
    return TorsionEvaluator(chart, pairs)


def pi_n(p: Bivector, n: Endomorphism) -> tuple[Bivector, list[Expr]]:
    """Candidate bivector whose sharp map is N o P-sharp.

    Returns its skew-symmetrisation together with the symmetric defect
    entries; the defects vanish exactly when N o P-sharp is skew, i.e.
    when the first compatibility condition holds.
    """
    chart = _require_same_chart(p, n)
    dim = chart.dim
    pm = [[p.component(i, j) for j in range(dim)] for i in range(dim)]
    a = [[ZERO] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            acc = ZERO
            for m in range(dim):
                acc = add(acc, mul(pm[i][m], n.matrix[j][m]))
            a[i][j] = acc
    comps = {}
    defects = []
    for i in range(dim):
        defects.append(mul(constant(2.0), a[i][i]))
        for j in range(i + 1, dim):
            skew = div(sub(a[i][j], a[j][i]), constant(2.0))
            if not is_zero(skew):
                comps[(i, j)] = skew
            defects.append(add(a[i][j], a[j][i]))
    return Bivector(chart, comps), defects


def concomitant(
    p: Bivector,
    n: Endomorphism,
    alpha: KForm,
    beta: KForm,
    pin: Bivector | None = None,
) -> KForm:
    """Compatibility concomitant of a bivector and an endomorphism on a
    pair of one-forms; identically zero iff the bracket of one-forms of
    the skew-symmetrised product structure is the expected deformation of
    the original one (the second compatibility condition)."""
    if pin is None:
        pin = pi_n(p, n)[0]
    t1 = bracket_p(pin, alpha, beta)
    t2 = bracket_p(p, dual_apply(n, alpha), beta)
    t3 = bracket_p(p, alpha, dual_apply(n, beta))
    t4 = dual_apply(n, bracket_p(p, alpha, beta))
    return add_kforms(sub_kforms(sub_kforms(t1, t2), t3), t4)


def invariant(n: Endomorphism, k: int) -> Expr:
    """The k-th trace invariant Tr(N^k) / (2k)."""
    if k < 1:
        raise ValueError("invariant index must be at least 1")
    return div(trace(power(n, k)), constant(2.0 * k))


def phi_sequence_term(n: Endomorphism, s: int) -> KForm:
    """The one-form phi_s with <phi_s, X> = Tr(N^s (i_X T)) / 2.

    For a torsion-free endomorphism every phi_s is zero.
    """
    if s < 0:
        raise ValueError("sequence index must be non-negative")
    chart = n.chart
    t = nijenhuis_torsion(n)
    ns = power(n, s)
    comps = {}
    for j in range(chart.dim):
        m = t.slot_matrix(j)
        acc = ZERO
        for i in range(chart.dim):
            for r in range(chart.dim):
                acc = add(acc, mul(ns.matrix[i][r], m.matrix[r][i]))
        val = div(acc, constant(2.0))
        if not is_zero(val):
            comps[(j,)] = val
    return KForm(chart, 1, comps)
