"""Exterior calculus, the compatibility concomitant, torsion tensors, and
trace invariants.

Everything here is exact symbolic manipulation of expression trees, but
for the Haantjes tensor's contraction, which runs on the evaluated values
of N and its torsion; numerical sampling lives in the verify module.
"""
from __future__ import annotations

from itertools import combinations

from .expr import Chart, Constant, Expr, ZERO, add, constant, derive, div, is_zero, mul, neg, sub
from .fields import (
    Bivector,
    DegreeError,
    Endomorphism,
    KForm,
    VectorField,
    _require_same_chart,
    _sorted_with_sign,
    interior_endomorphism,
    per_verdict,
    power,
    scalar_form,
    sub_kforms,
    trace,
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


def d_n(n: Endomorphism, omega: KForm) -> KForm:
    """The derivation i_N d - d i_N attached to an endomorphism."""
    chart = _require_same_chart(n, omega)
    if omega.degree >= chart.dim:
        raise DegreeError("d_n of a top-degree form")
    return sub_kforms(interior_endomorphism(n, d(omega)), d(interior_endomorphism(n, omega)))


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
def haantjes_tensor(n: Endomorphism) -> "HaantjesTensor":
    """H(X,Y) = T(NX,NY) - N(T(NX,Y) + T(X,NY) - N T(X,Y)), staged.

    H is algebraic in N and its torsion T: no derivative is taken after T.
    So only N's d^2 entries and T's stored entries are expression nodes.
    verify evaluates them with a batch's other roots and contracts H from
    their values in numpy (HaantjesTensor.contract), vectorised over the
    points, in O(d^4) products per point.  The contraction runs
    haantjes_expression's two stages in its summation order, starts each
    sum at its first term that is not skipped, and zeroes every product
    with a structural zero, so it equals the evaluated expansion bit for
    bit.  The expansion stays for callers that walk a check's nodes: a
    replacement of verify.run_pairs, such as perfbench/exact.py, gets it.
    """
    return HaantjesTensor(n, nijenhuis_torsion(n))


@per_verdict
def haantjes_expression(n: Endomorphism) -> TorsionEvaluator:
    """H as expressions, in O(d^4) symbolic products.

    Two-stage contraction: first A^i_{mk} = sum_l T^i_{ml} N^l_k, once for
    all (i, m, k).  On a coordinate pair (j, k) the identities
    T(X,NY)^m = A^m_{jk} and T(NX,Y)^m = -A^m_{kj} then give
        H^i_{jk} = sum_m N^m_j A^i_{mk}
                   - sum_m N^i_m (A^m_{jk} - A^m_{kj} - sum_p N^m_p T^p_{jk}),
    where the bracket is built once per (m, j, k) and shared over i.

    Verdicts contract H numerically; this expansion serves callers that
    walk a check's nodes, such as a replacement of verify.run_pairs.
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


class HaantjesEntry:
    """Component `row` of a staged Haantjes tensor, times `scale` unless
    that is None: a check's side, filled in after evaluation."""

    __slots__ = ("tensor", "row", "scale")

    def __init__(self, tensor: "HaantjesTensor", row: int, scale: Expr | None = None):
        self.tensor = tensor
        self.row = row
        self.scale = scale

    def expand(self) -> Expr:
        """The entry as an expression, as haantjes_expression builds it."""
        dim = self.tensor.chart.dim
        j, k = self.tensor.pairs[self.row // dim]
        got = haantjes_expression(self.tensor.n).pair(j, k).components[self.row % dim]
        return got if self.scale is None else mul(self.scale, got)


class HaantjesTensor:
    """The Haantjes tensor of N, staged for evaluation.

    Its roots are N's entries, row by row, then the d components of T on
    each coordinate pair j < k, in the order of `pairs`.  `constants` is
    fixed when they are built: each root's value if it is a constant, nan
    if not, so the structural zeros is_zero names are the zeros in it.
    Components are numbered pair by pair, H^i_{jk} at row q*d + i for the
    q-th pair (j, k).
    """

    def __init__(self, n: Endomorphism, torsion: TorsionEvaluator):
        import numpy as np

        dim = n.chart.dim
        self.chart = n.chart
        self.n = n
        self.pairs = tuple(combinations(range(dim), 2))
        self.roots = [e for row in n.matrix for e in row] + [
            c for j, k in self.pairs for c in torsion.pair(j, k).components
        ]
        self.constants = np.array(
            [e.value if type(e) is Constant else np.nan for e in self.roots]
        )
        # Only constants other than zero can fold into new structural zeros.
        self._folds = bool(np.any(np.isfinite(self.constants) & (self.constants != 0.0)))
        # Stage one reads u[i, m, l] = T^i_{ml}: row (q, i) of the pair
        # q = (m, l) for m < l, the same row subtracted for l < m, and for
        # l = m a row of -0.0 after the roots, which is skipped.
        nsq, marker = dim * dim, len(self.roots)
        self._jj, self._kk = np.array(self.pairs, dtype=np.intp).reshape(-1, 2).T
        pair_of = np.zeros((dim, dim), dtype=np.intp)
        pair_of[self._jj, self._kk] = pair_of[self._kk, self._jj] = np.arange(len(self.pairs))
        rows = nsq + dim * pair_of[None] + np.arange(dim)[:, None, None]
        rows[:, np.eye(dim, dtype=bool)] = marker
        self._u_rows = rows
        self._u_sign = np.where(np.tri(dim, k=-1, dtype=bool), -1.0, 1.0)[..., None]
        # Structural zeros of the inputs, and of the products of stage one
        # (over i, m, l, k) and of the inner sum (over m, p, pairs).
        zero = np.append(self.constants == 0.0, True)
        self._n_zero = zero[:nsq].reshape(dim, dim)
        t_zero = zero[nsq:marker].reshape(-1, dim)
        self._one_zero = zero[rows][..., None] | self._n_zero[None, None]
        self._inner_zero = self._n_zero[..., None] | t_zero.T[None]

    def pair(self, j: int, k: int, scale: Expr | None = None) -> tuple[HaantjesEntry, ...]:
        """The components H^i_{jk} for j < k, each times scale if given."""
        dim = self.chart.dim
        first = self.pairs.index((j, k)) * dim
        return tuple(HaantjesEntry(self, first + i, scale) for i in range(dim))

    def entries(self) -> list[HaantjesEntry]:
        return [HaantjesEntry(self, r) for r in range(len(self.pairs) * self.chart.dim)]

    def contract(self, values):
        """H's values, one row per component and a column per point, and
        which components are structural zeros, from the roots' values.

        Runs haantjes_expression's two stages in its own summation order,
        one numpy step per summed index, vectorised over the points and
        the free indices, so IEEE arithmetic gives the evaluated expansion
        bit for bit, given two of the smart constructors' rules:
        - a product with a structural zero is that zero, where numpy would
          give 0 * inf = nan, so those products are zeroed;
        - a sum starts at its first term that is not skipped, never at
          0.0 + term, which would turn -0.0 into 0.0.  So a sum starts at
          -0.0, and a structural zero is held as -0.0 while summing:
          adding -0.0 changes no value, and adding to it gives the other
          term.  A structural zero in the result reads 0.0, as ZERO does.
        Which intermediates are structural zeros, folded constants
        included, is read from one more column carried through every step,
        which starts as `constants`.  A subtracted term is added negated,
        which IEEE defines to be the same."""
        import numpy as np

        dim, npts, npairs = self.chart.dim, values.shape[1], len(self.pairs)
        if not npairs:
            return np.empty((0, npts)), np.empty(0, dtype=bool)
        nsq, nroots = dim * dim, len(self.roots)
        v = np.empty((nroots + 1, npts + 1))
        v[:nroots, :-1] = values
        v[:nroots, -1] = self.constants
        v[nroots] = -0.0
        n, t = v[:nsq].reshape(dim, dim, -1), v[nsq:nroots].reshape(npairs, dim, -1)
        neg_n = -n
        jj, kk, n_zero = self._jj, self._kk, self._n_zero
        mark = _mark_zeros if self._folds else _unchanged
        u = v[self._u_rows]
        u *= self._u_sign
        # A^i_{mk} = sum_l T^i_{ml} N^l_k
        a = np.full((dim, dim, dim, npts + 1), -0.0)
        buf = np.empty_like(a)
        for l in range(dim):
            _accumulate(a, u[:, :, l, None], n[l], self._one_zero[:, :, l], buf, mark)
        a_zero = a[..., -1] == 0.0
        # inner^m_{jk} = A^m_{jk} - A^m_{kj} - sum_p N^m_p T^p_{jk}
        left = a[:, jj, kk]
        inner = left - a[:, kk, jj]
        right_zero = a_zero[:, kk, jj]
        inner[right_zero] = left[right_zero]
        mark(inner)
        buf = np.empty_like(inner)
        for p in range(dim):
            _accumulate(inner, neg_n[:, p, None], t[:, p], self._inner_zero[:, p], buf, mark)
        # H^i_{jk} = sum_m N^m_j A^i_{mk} - sum_m N^i_m inner^m_{jk}
        first = n_zero[None, :, jj] | a_zero[:, :, kk]
        second = n_zero[..., None] | (inner[..., -1] == 0.0)[None]
        h = np.full_like(inner, -0.0)
        for m in range(dim):
            _accumulate(h, n[m, jj], a[:, m, kk], first[:, m], buf, mark)
        for m in range(dim):
            _accumulate(h, neg_n[:, m, None], inner[m], second[:, m], buf, mark)
        zero = h[..., -1] == 0.0
        h[zero] = 0.0
        return h[..., :-1].transpose(1, 0, 2).reshape(-1, npts), zero.T.reshape(-1)


def _accumulate(acc, x, y, zero, buf, mark):
    """acc += x * y in place, the product being -0.0 wherever zero marks a
    factor that is a structural zero: the smart constructors skip it."""
    import numpy as np

    if zero.all():
        return
    np.multiply(x, y, out=buf)
    if zero.any():
        buf[zero] = -0.0
    mark(np.add(acc, mark(buf), out=acc))


def _mark_zeros(x):
    """x with the constants that folded to zero set to -0.0.

    A fold that cancels gives 0.0 in every column, so these are the 0.0
    entries of the last column; a structural zero held as -0.0 already
    reads -0.0 there."""
    import numpy as np

    folded = x[..., -1].view(np.uint64) == 0
    if folded.any():
        x[folded] = -0.0
    return x


def _unchanged(x):
    return x


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


def concomitant(p: Bivector, n: Endomorphism) -> dict[tuple[int, int], KForm]:
    """The compatibility concomitant of a bivector P and an endomorphism N
    on the coordinate one-forms dx^i, dx^j for i < j, keyed (i, j).

    It is [a, b]_{PN} - [N*a, b]_P - [a, N*b]_P + N*[a, b]_P, with the
    bracket of one-forms [a, b]_P = L_{P#a} b - L_{P#b} a - d P(a, b) and
    PN the skew-symmetrised N o P# (pi_n), and vanishes identically iff
    the second compatibility condition holds (Kosmann-Schwarzbach and
    Magri, 1990).  On coordinate forms [dx^i, dx^j]_P = dP^{ij}, and the
    Leibniz rule of the bracket gives the closed form

        C^{ij}_k = d_k PN^{ij} + sum_m ( - N^i_m d_k P^{mj} + P^{jm} d_m N^i_k
                                         + N^j_m d_k P^{mi} - P^{im} d_m N^j_k
                                         + d_m P^{ij} N^m_k ),

    built from the first derivatives of P and N in O(d^4) products, the
    five terms added per m in that order.  Structural zeros are omitted.
    """
    chart = _require_same_chart(p, n)
    dim = chart.dim
    nm = n.matrix
    pin = pi_n(p, n)[0]
    # P^{ab} = sign[a][b] * entry[a][b], stored once for each pair a < b
    sign = [[(a < b) - (a > b) for b in range(dim)] for a in range(dim)]
    entry = [[p.component(min(a, b), max(a, b)) for b in range(dim)] for a in range(dim)]
    dp = [[[derive(e, k) for e in row] for row in entry] for k in range(dim)]
    dn = [[[derive(e, m) for e in row] for row in nm] for m in range(dim)]
    out = {}
    for i, j in combinations(range(dim), 2):
        comps = {}
        for k in range(dim):
            acc = derive(pin.component(i, j), k)
            for m in range(dim):
                acc = _signed_add(acc, -sign[m][j], nm[i][m], dp[k][m][j])
                acc = _signed_add(acc, sign[j][m], entry[j][m], dn[m][i][k])
                acc = _signed_add(acc, sign[m][i], nm[j][m], dp[k][m][i])
                acc = _signed_add(acc, -sign[i][m], entry[i][m], dn[m][j][k])
                acc = add(acc, mul(dp[m][i][j], nm[m][k]))
            comps[(k,)] = acc
        out[(i, j)] = KForm(chart, 1, comps)
    return out


def _signed_add(acc: Expr, sign: int, x: Expr, y: Expr) -> Expr:
    """acc + sign * x * y for a sign in -1, 0, 1."""
    if sign > 0:
        return add(acc, mul(x, y))
    if sign < 0:
        return sub(acc, mul(x, y))
    return acc


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
