"""Exterior calculus, the compatibility concomitant, torsion tensors, and
trace invariants.

Everything here is exact symbolic manipulation of expression trees, but
for the torsion and Haantjes tensors that checks compare: their roots are
N's entries and its first derivatives that are not structural zeros, and
their components are contracted in numpy from the evaluated roots, on a
schedule of the symbolic builder's products less those with a
structural-zero factor, bit for bit equal to evaluating the builder's
expressions (torsion_expression, haantjes_expression).  Numerical sampling
lives in the verify module.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import copysign

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


@per_verdict
def _derivatives(n: Endomorphism) -> list:
    """dn[m][i][j] = d_m N^i_j, shared by the torsion and the concomitant."""
    return [[[derive(e, m) for e in row] for row in n.matrix] for m in range(n.chart.dim)]


@per_verdict
def nijenhuis_torsion(n: Endomorphism) -> "TorsionTensor":
    """Torsion T(X,Y) = [NX,NY] - N([NX,Y] + [X,NY] - N[X,Y]), staged.

    T is algebraic in N and its first derivatives: only N's d^2 entries
    and the derivatives d_m N^i_j that are not structural zeros are
    expression nodes.  verify evaluates them with a batch's other roots
    and contracts T from their values in numpy (TorsionTensor.contract),
    bit for bit equal to the evaluated torsion_expression.  A check side
    that is a component of T reads it staged; consumers that build on T
    algebraically call torsion_expression.
    """
    return TorsionTensor(n)


@per_verdict
def torsion_expression(n: Endomorphism) -> TorsionEvaluator:
    """T as expressions, in O(d^4) symbolic products: on each pair j < k

        T^i_{jk} = sum_m ( N^m_j d_m N^i_k - N^m_k d_m N^i_j
                           + N^i_m (d_k N^m_j - d_j N^m_k) ),

    the three terms added per m in that order, the bracket built once per
    (m, j, k) and shared over i, and no product with a structural-zero
    factor built (_signed_add).

    Verdicts contract T numerically; this serves the consumers that build
    on T: phi_sequence_term, the pairings with theta of the haantjes and
    chain suites, haantjes_expression, and callers that walk a check's
    nodes, such as a replacement of verify.run_pairs.
    """
    chart = n.chart
    dim = chart.dim
    nm = n.matrix
    dn = _derivatives(n)
    pairs = {}
    for j, k in combinations(range(dim), 2):
        bracket = [sub(dn[k][m][j], dn[j][m][k]) for m in range(dim)]
        comps = []
        for i in range(dim):
            acc = ZERO
            for m in range(dim):
                acc = _signed_add(acc, 1, nm[m][j], dn[m][i][k])
                acc = _signed_add(acc, -1, nm[m][k], dn[m][i][j])
                acc = _signed_add(acc, 1, nm[i][m], bracket[m])
            comps.append(acc)
        pairs[(j, k)] = VectorField(chart, tuple(comps))
    return TorsionEvaluator(chart, pairs)


@per_verdict
def haantjes_tensor(n: Endomorphism) -> "HaantjesTensor":
    """H(X,Y) = T(NX,NY) - N(T(NX,Y) + T(X,NY) - N T(X,Y)), staged.

    H is algebraic in N and its torsion T: no derivative is taken after T.
    So its roots are the staged torsion's, N's entries and its nonzero
    first derivatives, and HaantjesTensor.contract runs T's contraction
    and then H's two stages in numpy, vectorised over the points, in
    O(d^4) products per point.  It runs haantjes_expression's two stages
    in its summation order, starts each sum at its first term that is not
    skipped, and zeroes every product with a structural zero, so it
    equals the evaluated expansion bit for bit.  The expansion stays for
    callers that walk a check's nodes: a replacement of verify.run_pairs,
    such as perfbench/exact.py, gets it.
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
    t = torsion_expression(n)
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


class StagedEntry:
    """Component `row` of a staged tensor, times `scale` unless that is
    None: a check's side, filled in after evaluation."""

    __slots__ = ("tensor", "row", "scale")

    def __init__(self, tensor: "StagedTensor", row: int, scale: Expr | None = None):
        self.tensor = tensor
        self.row = row
        self.scale = scale

    def expand(self) -> Expr:
        """The entry as an expression, as its tensor's symbolic builder
        makes it."""
        dim = self.tensor.chart.dim
        j, k = self.tensor.pairs[self.row // dim]
        got = self.tensor.expression().pair(j, k).components[self.row % dim]
        return got if self.scale is None else mul(self.scale, got)


class StagedTensor:
    """A vector-valued tensor on the coordinate pairs j < k of N's chart,
    contracted in numpy from the evaluated values of its roots.
    Components are numbered pair by pair, the i-th component on the q-th
    pair (j, k) at row q*d + i."""

    def pair(self, j: int, k: int, scale: Expr | None = None) -> tuple[StagedEntry, ...]:
        """The components on the pair j < k, each times scale if given."""
        dim = self.chart.dim
        first = self.pairs.index((j, k)) * dim
        return tuple(StagedEntry(self, first + i, scale) for i in range(dim))

    def entries(self) -> list[StagedEntry]:
        return [StagedEntry(self, r) for r in range(len(self.pairs) * self.chart.dim)]

    def contract(self, values, done: dict | None = None):
        """The components' values, one row per component and a column per
        point, and which components are structural zeros, from the roots'
        values.  done keeps each tensor's contraction of these values by
        id, so the tensors of one N, which share its roots, share it."""
        if done is None:
            done = {}
        got = done.get(id(self))
        if got is None:
            got = done[id(self)] = self._contract(values, done)
        return got


class TorsionTensor(StagedTensor):
    """The Nijenhuis torsion of N, staged for evaluation.

    Its roots are N's entries, row by row, then the derivatives d_m N^i_j
    that are not structural zeros, in the order (m, i, j).  The schedule
    of the contraction is fixed here: torsion_expression's terms for each
    component in its order, less every product with a structural-zero
    factor.  Which terms those are, and where a sum of constants folds to
    a structural zero, is read off a constant column (each node's value
    if it is a constant, nan if not) run once through the same
    arithmetic.  `constants` is that column for the components, so its
    zeros are the structural zeros.
    """

    def __init__(self, n: Endomorphism):
        import numpy as np

        dim = n.chart.dim
        self.chart, self.n = n.chart, n
        self.pairs, left, right, a_num, a_neg, b_num = _torsion_layout(dim)
        nsq = dim * dim
        nodes = [e for row in n.matrix for e in row]
        nodes += [e for plane in _derivatives(n) for row in plane for e in row]
        const = np.array([e.value if type(e) is Constant else np.nan for e in nodes])
        keep = const != 0.0
        keep[:nsq] = True
        self.roots = [e for e, kept in zip(nodes, keep) if kept]
        # Rows of the table contract fills: the roots, a row of -0.0 and
        # one of +0.0, -N, then the brackets that are not structural zeros.
        neg0 = len(self.roots)
        neg_n = neg0 + 2
        row = np.full(len(nodes), neg0)
        row[keep] = np.arange(neg0)
        n_c, d_c, d_row = const[:nsq], const[nsq:], row[nsq:]
        with np.errstate(over="ignore", invalid="ignore"):
            # The brackets, as sub folds them: x - (structural zero) is x,
            # (structural zero) - y is -y, read from the -0.0 row.
            lc, rc = d_c[left], d_c[right]
            b_c = np.where(rc == 0.0, lc, np.where(lc == 0.0, -rc, lc - rc))
            b_c[np.isinf(b_c)] = np.nan  # a difference that overflows is built as a node
            live = b_c != 0.0
            self._left = d_row[left][live]
            self._right = np.where(rc == 0.0, neg0 + 1, d_row[right])[live]
            b_row = np.full(len(b_c), neg0)
            b_row[live] = neg_n + nsq + np.arange(int(live.sum()))
            self._nrows = neg_n + nsq + int(live.sum())
            # each term's factors: their rows in the table and constants
            a_row = a_num + (neg_n - nsq) * a_neg
            b_rows = np.concatenate([d_row, b_row])[b_num]
            a_c = np.concatenate([n_c, -n_c])[a_num]
            b_cc = np.concatenate([d_c, b_c])[b_num]
            product = a_c * b_cc
            product[np.isinf(product)] = np.nan  # built as a node
            skipped = (a_c == 0.0) | (b_cc == 0.0) | (product == 0.0)
            # Each sum's constant column after each term, from ZERO: a
            # skipped term adds 0.0, which changes no sum of terms that are
            # not zeros; a sum that overflows is a node.
            sums = np.cumsum(np.where(skipped, 0.0, product), axis=1)
        self.constants = np.where(np.isfinite(sums[:, -1]), sums[:, -1], np.nan)
        self.zero = self.constants == 0.0
        # The schedule: components sorted by their number of terms, so the
        # s-th term of every component that has one is a step on a prefix.
        live = ~skipped
        count = live.sum(axis=1)
        order = np.argsort(-count, kind="stable")
        live, a_row, b_rows = live[order], a_row[order], b_rows[order]
        step = np.cumsum(live, axis=1) - 1
        comp, term = np.nonzero(live)
        by_step = np.argsort(step[comp, term], kind="stable")
        comp, term = comp[by_step], term[by_step]
        a_row, b_rows = a_row[comp, term], b_rows[comp, term]
        widths = np.bincount(step[comp, term]).tolist()
        self._active = widths[0] if widths else 0
        # Consecutive steps share one gather and multiply, up to
        # max(components, 64) products: a small tensor takes all its
        # products at once, a large one holds no more than its sums.
        cap = max(self._active, 64)
        self._blocks, block, lo, hi = [], [], 0, 0
        for width in widths:
            if hi - lo + width > cap:
                self._blocks.append((a_row[lo:hi], b_rows[lo:hi], block))
                block, lo = [], hi
            block.append(width)
            hi += width
        if block:
            self._blocks.append((a_row[lo:hi], b_rows[lo:hi], block))
        # where a sum of constants folds to a structural zero, held as -0.0
        self._folds: dict[int, list[int]] = {}
        comp, term = np.nonzero(live & (sums[order] == 0.0))
        for c, s in zip(comp.tolist(), step[comp, term].tolist()):
            self._folds.setdefault(s, []).append(c)
        self._src = np.flatnonzero(~self.zero[order][:self._active])
        self._dst = order[self._src]

    def expression(self) -> TorsionEvaluator:
        return torsion_expression(self.n)

    def _contract(self, values, done):
        """Runs each sum in torsion_expression's order, one numpy step per
        term position over the components that have one, which adds their
        products, gathered and multiplied a block of steps at a time.  IEEE
        arithmetic then gives the evaluated expansion bit for bit, given
        the smart constructors' rules:
        - a product with a structural-zero factor is left out;
        - each sum starts at -0.0, so that its first term is the sum;
        - a subtracted product is added with -N as its factor;
        - in a bracket, x - (structural zero) is x, not x + 0.0, and
          (structural zero) - y is -y;
        - a sum of constants that folds to a structural zero is -0.0 from
          there on, and a structural zero reads 0.0 in the result."""
        import numpy as np

        npts, nsq = values.shape[1], self.chart.dim ** 2
        neg0 = len(self.roots)
        v = np.empty((self._nrows, npts))
        v[:neg0] = values
        v[neg0] = -0.0
        v[neg0 + 1] = 0.0
        np.negative(values[:nsq], out=v[neg0 + 2:neg0 + 2 + nsq])
        np.subtract(v[self._left], v[self._right], out=v[neg0 + 2 + nsq:])
        acc = np.full((self._active, npts), -0.0)
        s = 0
        for a, b, widths in self._blocks:
            products = v[a]
            products *= v[b]
            lo = 0
            for width in widths:
                np.add(acc[:width], products[lo:lo + width], out=acc[:width])
                lo += width
                if s in self._folds:
                    acc[self._folds[s]] = -0.0
                s += 1
        t = np.zeros((len(self.zero), npts))
        t[self._dst] = acc[self._src]
        return t, self.zero


@lru_cache(maxsize=None)
def _torsion_layout(dim: int) -> tuple:
    """Where torsion_expression's factors sit, the same for every N on a
    chart of dimension dim.  Factors are numbered in two tables: A holds
    N's entries, row by row, then -N's; B holds the derivatives d_m N^i_j
    in the order (m, i, j), then the brackets d_k N^m_j - d_j N^m_k in the
    order (m, pair).  Returns the pairs j < k; the B numbers of each
    bracket's two derivatives; and for the terms of the component on pair
    q and row i, at row q*dim + i, in the order (m, term), the A numbers
    of their first factors, whether that is in -N, and the B numbers of
    their second factors."""
    import numpy as np

    pairs = tuple(combinations(range(dim), 2))
    jj, kk = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    nsq, ms = dim * dim, np.arange(dim)[:, None]
    left = (kk * nsq + ms * dim + jj).ravel()
    right = (jj * nsq + ms * dim + kk).ravel()
    q, i, m = np.ix_(np.arange(len(pairs)), np.arange(dim), np.arange(dim))
    a = np.empty((len(pairs), dim, dim, 3), dtype=np.intp)
    a[..., 0] = m * dim + jj[q]  # N^m_j d_m N^i_k
    a[..., 1] = nsq + m * dim + kk[q]  # -N^m_k d_m N^i_j
    a[..., 2] = i * dim + m  # N^i_m bracket^m_q
    b = np.empty_like(a)
    b[..., 0] = m * nsq + i * dim + kk[q]
    b[..., 1] = m * nsq + i * dim + jj[q]
    b[..., 2] = dim ** 3 + m * len(pairs) + q
    a, b = a.reshape(-1, 3 * dim), b.reshape(-1, 3 * dim)
    return pairs, left, right, a, a >= nsq, b


class HaantjesTensor(StagedTensor):
    """The Haantjes tensor of N, staged for evaluation.

    Its roots are its torsion's.  Its stages read N's entries, row by row,
    then the d components of T on each coordinate pair j < k, in the
    order of `pairs`.  `constants` is fixed when they are built: each
    one's value if it is a constant, nan if not, so the structural zeros
    is_zero names are the zeros in it.
    """

    def __init__(self, n: Endomorphism, torsion: TorsionTensor):
        import numpy as np

        dim = n.chart.dim
        self.chart = n.chart
        self.n = n
        self.torsion = torsion
        self.pairs = torsion.pairs
        self.roots = torsion.roots
        self.constants = np.concatenate([
            [e.value if type(e) is Constant else np.nan for row in n.matrix for e in row],
            torsion.constants,
        ])
        # Only constants other than zero can fold into new structural zeros.
        self._folds = bool(np.any(np.isfinite(self.constants) & (self.constants != 0.0)))
        # Stage one reads u[i, m, l] = T^i_{ml}: row (q, i) of the pair
        # q = (m, l) for m < l, the same row subtracted for l < m, and for
        # l = m a row of -0.0 after the stage rows, which is skipped.
        nsq, marker = dim * dim, len(self.constants)
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

    def expression(self) -> TorsionEvaluator:
        return haantjes_expression(self.n)

    def _contract(self, values, done):
        """Runs haantjes_expression's two stages in its own summation order
        on N's values and T's contraction, one numpy step per summed
        index, vectorised over the points and the free indices, so IEEE
        arithmetic gives the evaluated expansion bit for bit, given two of
        the smart constructors' rules:
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
        nsq, nrows = dim * dim, len(self.constants)
        v = np.empty((nrows + 1, npts + 1))
        v[:nsq, :-1] = values[:nsq]
        v[nsq:nrows, :-1] = self.torsion.contract(values, done)[0]
        v[:nrows, -1] = self.constants
        v[nrows] = -0.0
        n, t = v[:nsq].reshape(dim, dim, -1), v[nsq:nrows].reshape(npairs, dim, -1)
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
        del u, buf  # stage two holds other d^3 arrays; a chunk's peak is there
        a_zero = a[..., -1] == 0.0
        # inner^m_{jk} = A^m_{jk} - A^m_{kj} - sum_p N^m_p T^p_{jk}, where
        # x - (structural zero) is x: x - 0.0 is x, x - (-0.0) is x + 0.0
        inner, right = a[:, jj, kk], a[:, kk, jj]
        right[a_zero[:, kk, jj]] = 0.0
        inner -= right
        del right
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

    if zero.any():
        if zero.all():
            return
        np.multiply(x, y, out=buf)
        buf[zero] = -0.0
    else:
        np.multiply(x, y, out=buf)
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
    five terms added per m in that order, and no product with a
    structural-zero factor built (_signed_add).
    """
    chart = _require_same_chart(p, n)
    dim = chart.dim
    nm = n.matrix
    pin = pi_n(p, n)[0]
    # P^{ab} = sign[a][b] * entry[a][b], stored once for each pair a < b
    sign = [[(a < b) - (a > b) for b in range(dim)] for a in range(dim)]
    entry = [[p.component(min(a, b), max(a, b)) for b in range(dim)] for a in range(dim)]
    dp = [[[derive(e, k) for e in row] for row in entry] for k in range(dim)]
    dn = _derivatives(n)
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
                acc = _signed_add(acc, 1, dp[m][i][j], nm[m][k])
            comps[(k,)] = acc
        out[(i, j)] = KForm(chart, 1, comps)
    return out


def _signed_add(acc: Expr, sign: int, x: Expr, y: Expr) -> Expr:
    """acc + sign * x * y for a sign in -1, 0, 1, as add or sub builds it
    on mul(x, y).

    A product with a structural-zero factor is not built: adding it or
    subtracting it gives acc back, unless acc is the constant -0.0 (a
    derivative of a negated constant), which it may fold to ZERO."""
    if sign == 0:
        return acc
    if (is_zero(x) or is_zero(y)) and not (
        type(acc) is Constant and acc.value == 0.0 and copysign(1.0, acc.value) < 0
    ):
        return acc
    if sign > 0:
        return add(acc, mul(x, y))
    return sub(acc, mul(x, y))


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
    dim = chart.dim
    t = torsion_expression(n)
    ns = power(n, s).matrix
    comps = {}
    for j in range(dim):
        # Tr(N^s (i_X T)) on X = d_j: sum over i, r of (N^s)^i_r T^r_{ji}
        acc = ZERO
        for i in range(dim):
            for r in range(dim):
                if not is_zero(ns[i][r]):
                    acc = _signed_add(acc, 1, ns[i][r], t.component(r, j, i))
        val = div(acc, constant(2.0))
        if not is_zero(val):
            comps[(j,)] = val
    return KForm(chart, 1, comps)
