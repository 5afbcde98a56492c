"""Exterior calculus, the compatibility concomitant, torsion tensors, and
trace invariants.

Everything here is exact symbolic manipulation of expression trees, but
for the torsion and Haantjes tensors that checks compare: their roots are
N's entries and its first derivatives that are not structural zeros, and
their components are contracted in numpy from the evaluated roots, on a
staged schedule of sums of products less those with a structural-zero
factor.  Their symbolic form is that schedule's expansion, the same sums
run over expression nodes (StagedTensor.expression), so the contraction
equals the evaluated expansion bit for bit.  Numerical sampling lives in
the verify module.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import copysign

from .expr import (
    _DERIVED, Chart, Constant, Expr, ONE, ZERO, add, constant, derive, div, is_zero, mul, neg, sub,
)
from .fields import (
    Bivector,
    DegreeError,
    Endomorphism,
    KForm,
    _nonzero,
    _require_same_chart,
    _sorted_with_sign,
    interior_endomorphism,
    per_verdict,
    power,
    scalar_form,
    sub_kforms,
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


def jacobi_sides(p: Bivector) -> list[Expr]:
    """{x_i,{x_j,x_k}} + {x_j,{x_k,x_i}} + {x_k,{x_i,x_j}} on each coordinate
    triple i < j < k, all zero iff P is Poisson: the nested brackets' nodes.

    {x_a, x_b} is built once where P^{ab} is stored, and is ZERO elsewhere;
    {x_c, g} reads only P's entries with c as an index, and is ZERO for a
    constant g.  Each term left out folds to a zero constant, which leaves
    a sum begun at ZERO as it was."""
    x, dim = p.chart.coords(), p.chart.dim
    touching = [Bivector(p.chart, {ab: e for ab, e in p.components.items() if c in ab})
                for c in range(dim)]
    inner = {}
    for a, b in p.components:
        inner[a, b] = poisson_bracket(touching[a], x[a], x[b])
        inner[b, a] = poisson_bracket(touching[b], x[b], x[a])

    def outer(c: int, a: int, b: int) -> Expr:
        g = inner.get((a, b), ZERO)
        return ZERO if type(g) is Constant else poisson_bracket(touching[c], x[c], g)

    return [add(add(outer(i, j, k), outer(j, k, i)), outer(k, i, j))
            for i, j, k in combinations(range(dim), 3)]


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
    and contracts T from their values in numpy (TorsionTensor.contract).
    Its symbolic form is its schedule's expansion (expression()), which
    the consumers that build on T algebraically read: phi_sequence_term
    and the pairings with theta of the haantjes and chain suites.  The
    contraction equals the evaluated expansion bit for bit.
    """
    return TorsionTensor(n)


@per_verdict
def haantjes_tensor(n: Endomorphism) -> "HaantjesTensor":
    """H(X,Y) = T(NX,NY) - N(T(NX,Y) + T(X,NY) - N T(X,Y)), staged.

    H is algebraic in N and its torsion T: no derivative is taken after T.
    So its roots are the staged torsion's, N's entries and its nonzero
    first derivatives, and HaantjesTensor.contract runs T's contraction
    and then H's stages in numpy, vectorised over the points, on the
    torsion's kind of schedule: each sum in a fixed order, less every
    product with a structural-zero factor, so at most O(d^4) products per
    point and fewer the sparser N is.  Its symbolic form is the same
    schedule's expansion (expression()), which the contraction equals bit
    for bit; callers that walk a check's nodes, such as a replacement of
    verify.run_pairs (perfbench/exact.py), get it.
    """
    return HaantjesTensor(n, nijenhuis_torsion(n))


class StagedEntry:
    """Component `row` of a staged tensor, times `scale` unless that is
    None: a check's side, filled in after evaluation, or expanded to the
    component of its tensor's expression()."""

    __slots__ = ("tensor", "row", "scale")

    def __init__(self, tensor: "StagedTensor", row: int, scale: Expr | None = None):
        self.tensor = tensor
        self.row = row
        self.scale = scale

    def expand(self) -> Expr:
        """The entry as an expression, from its tensor's expansion."""
        q, i = divmod(self.row, self.tensor.chart.dim)
        got = self.tensor.expression()[i].component(*self.tensor.pairs[q])
        return got if self.scale is None else mul(self.scale, got)


class StagedTensor:
    """A vector-valued tensor on the coordinate pairs j < k of N's chart,
    contracted in numpy from the evaluated values of its roots.
    Components are numbered pair by pair, the i-th component on the q-th
    pair (j, k) at row q*d + i."""

    _expression: tuple[KForm, ...] | None = None

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

    def expression(self) -> tuple[KForm, ...]:
        """The tensor as expressions, the schedule's expansion, kept on the
        tensor: one 2-form per row i, holding the components on pairs
        j < k, so t[i].component(j, k) is the component with the sign of
        the pair's order."""
        if self._expression is None:
            dim, comps = self.chart.dim, self._expand()
            self._expression = tuple(
                KForm(self.chart, 2, {jk: comps[q * dim + i] for q, jk in enumerate(self.pairs)})
                for i in range(dim)
            )
        return self._expression

    def _expand(self) -> list[Expr]:
        """The components, in their numbering, from the stages run over a
        table of (node, sign) rows laid out as contract lays out its
        values: the inputs' nodes, ZERO, ONE, ONE negated, N's entries
        negated, then each stage's sums (_Schedule.expand)."""
        entries = [e for row in self.n.matrix for e in row]
        nodes = [*self._input_nodes(), ZERO, ONE, ONE, *entries]
        signs = [1] * (len(nodes) - len(entries) - 1) + [-1] * (len(entries) + 1)
        for stage in self.stages[:-1]:
            sums = stage.expand(nodes, signs)
            nodes += sums
            signs += [1] * len(sums)
        last = self.stages[-1]
        comps = [ZERO] * len(last.zero)
        for c, e in zip(last.order.tolist(), last.expand(nodes, signs)):
            comps[c] = e
        return comps

    def _schedule(self, inputs, stages, rows) -> None:
        """Fixes the stages, given as (left, right) factor rows of each
        term over a numbering of the inputs, with constant column `inputs`,
        N's entries first, the rows of 0.0, 1.0, -1.0 and -N, then each
        stage's sums.  rows takes that numbering, up to -N, to the rows of
        the table contract fills; a stage's sums follow, held in its
        schedule's order, and one that has no terms reads the row of 0.0.
        The tensors of a kind whose inputs have the same constants share
        their stages, once per verdict."""
        import numpy as np

        key = (type(self), self.chart.dim, inputs.tobytes(), rows.tobytes())
        got = _DERIVED.get(key)
        if got is None:
            const = np.concatenate([inputs, (0.0, 1.0, -1.0), -inputs[:self.chart.dim ** 2]])
            built = []
            for left, right in stages:
                stage = _Schedule(rows[left], rows[right], const)
                built.append(stage)
                held = np.full(len(stage.zero), len(inputs))
                held[stage.order[:stage.active]] = len(const) + np.arange(stage.active)
                rows = np.concatenate([rows, held])
                const = np.concatenate([const, stage.constants[stage.order[:stage.active]]])
            last = built[-1]
            work = max(max(stage.work for stage in built), last.active + last.work)
            got = _DERIVED[key] = built, len(const) - last.active, work
        self.stages, self._nrows, self._work = got
        self.constants, self.zero = self.stages[-1].constants, self.stages[-1].zero

    def _contract(self, values, done):
        """Fills the table from the roots' values and runs the stages on it,
        each sum in its layout's term order.  IEEE arithmetic then gives the
        evaluated expansion (expression()) bit for bit, given the smart
        constructors' rules:
        - a product with a structural-zero factor is left out;
        - each sum starts at -0.0, so that its first term is the sum;
        - a subtracted product is added with -N or -1.0 as its factor, so
          in a difference x - (structural zero) is x, not x + 0.0, and
          (structural zero) - y is -y;
        - a sum of constants that folds to a structural zero is -0.0 from
          there on, and a structural zero reads 0.0 in the result."""
        import numpy as np

        npts, nsq = values.shape[1], self.chart.dim ** 2
        inputs = self._inputs(values, done)
        v = np.empty((self._nrows, npts))
        # The stages' products and the last stage's sums, apart from v:
        # np.take copies through a buffer when its output overlaps its
        # source, and always in its default mode, so run uses mode="clip".
        work = np.empty((self._work, npts))
        first = 0
        for part in inputs:
            v[first:first + len(part)] = part
            first += len(part)
        v[first:first + 3] = ((0.0,), (1.0,), (-1.0,))
        np.negative(values[:nsq], out=v[first + 3:first + 3 + nsq])
        first += 3 + nsq
        for stage in self.stages[:-1]:
            stage.run(v, v[first:first + stage.active], work)
            first += stage.active
        last = self.stages[-1]
        acc, work = work[:last.active], work[last.active:]
        last.run(v, acc, work)
        out = np.zeros((len(self.zero), npts))
        out[last.dst] = acc[last.src]
        return out, self.zero


class TorsionTensor(StagedTensor):
    """The Nijenhuis torsion of N, staged for evaluation.

    Its roots are N's entries, row by row, then the derivatives d_m N^i_j
    that are not structural zeros, in the order (m, i, j).  Its table's
    inputs are the roots, and a derivative that is a structural zero reads
    the row of 0.0.  Its stages are the brackets d_k N^m_j - d_j N^m_k,
    then for each component T^i_{jk} on a pair j < k the sum over m of

        N^m_j d_m N^i_k - N^m_k d_m N^i_j + N^i_m (d_k N^m_j - d_j N^m_k),

    the three terms per m in that order.
    """

    def __init__(self, n: Endomorphism):
        import numpy as np

        dim = n.chart.dim
        self.chart, self.n = n.chart, n
        self.pairs, stages = _torsion_layout(dim)
        nsq = dim * dim
        nodes = [e for row in n.matrix for e in row]
        nodes += [e for plane in _derivatives(n) for row in plane for e in row]
        const = np.array([e.value if type(e) is Constant else np.nan for e in nodes])
        keep = const != 0.0
        keep[:nsq] = True
        self.roots = [e for e, kept in zip(nodes, keep) if kept]
        nroots = len(self.roots)
        rows = np.full(len(nodes), nroots)
        rows[keep] = np.arange(nroots)
        rows = np.concatenate([rows, nroots + np.arange(3 + nsq)])
        self._schedule(const[keep], stages, rows)

    def _inputs(self, values, done) -> list:
        return [values]

    def _input_nodes(self) -> list[Expr]:
        return self.roots


@lru_cache(maxsize=None)
def _torsion_layout(dim: int) -> tuple:
    """The pairs j < k and the torsion's stages, the same for every N on a
    chart of dimension dim, as (left, right) factor rows of each term, one
    row of terms per component.  Rows are numbered over N's entries, row by
    row, the derivatives d_m N^i_j in the order (m, i, j), the rows of 0.0,
    1.0, -1.0 and -N, then the brackets d_k N^m_j - d_j N^m_k in the order
    (m, pair).  The component on pair q and row i is row q*dim + i of the
    second stage; its terms are in the order (m, term)."""
    import numpy as np

    pairs = tuple(combinations(range(dim), 2))
    jj, kk = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    nsq = dim * dim
    one = nsq + dim ** 3 + 1
    neg_n, brackets = one + 2, one + 2 + nsq
    ms = np.arange(dim)[:, None]
    b_left = np.stack([nsq + kk * nsq + ms * dim + jj, nsq + jj * nsq + ms * dim + kk], -1)
    b_right = np.empty_like(b_left)
    b_right[..., 0], b_right[..., 1] = one, one + 1
    q, i, m = np.ix_(np.arange(len(pairs)), np.arange(dim), np.arange(dim))
    a = np.empty((len(pairs), dim, dim, 3), dtype=np.intp)
    a[..., 0] = m * dim + jj[q]  # N^m_j d_m N^i_k
    a[..., 1] = neg_n + m * dim + kk[q]  # -N^m_k d_m N^i_j
    a[..., 2] = i * dim + m  # N^i_m bracket^m_q
    b = np.empty_like(a)
    b[..., 0] = nsq + m * nsq + i * dim + kk[q]
    b[..., 1] = nsq + m * nsq + i * dim + jj[q]
    b[..., 2] = brackets + m * len(pairs) + q
    return pairs, (
        (b_left.reshape(-1, 2), b_right.reshape(-1, 2)),
        (a.reshape(-1, 3 * dim), b.reshape(-1, 3 * dim)),
    )


class HaantjesTensor(StagedTensor):
    """The Haantjes tensor of N, staged for evaluation.

    Its roots are its torsion's.  Its table's inputs are N's entries, row
    by row, then the contracted torsion's components.  Its stages are
    A^i_{mk} = sum_l T^i_{ml} N^l_k, once for all (i, m, k); then, on each
    pair j < k, with T(X,NY)^m = A^m_{jk} and T(NX,Y)^m = -A^m_{kj}, the
    sums inner^m_{jk} = A^m_{jk} - A^m_{kj} - sum_p N^m_p T^p_{jk}; then
    H^i_{jk} = sum_m N^m_j A^i_{mk} - sum_m N^i_m inner^m_{jk}.
    """

    def __init__(self, n: Endomorphism, torsion: TorsionTensor):
        import numpy as np

        self.chart, self.n, self.torsion = n.chart, n, torsion
        self.pairs, self.roots = torsion.pairs, torsion.roots
        inputs = np.concatenate([
            [e.value if type(e) is Constant else np.nan for row in n.matrix for e in row],
            torsion.constants,
        ])
        rows = np.arange(len(inputs) + 3 + n.chart.dim ** 2)
        self._schedule(inputs, _haantjes_layout(n.chart.dim), rows)

    def _inputs(self, values, done) -> list:
        return [values[:self.chart.dim ** 2], self.torsion.contract(values, done)[0]]

    def _input_nodes(self) -> list[Expr]:
        t = self.torsion.expression()
        return [*(e for row in self.n.matrix for e in row),
                *(ti.component(*jk) for jk in self.pairs for ti in t)]


@lru_cache(maxsize=None)
def _haantjes_layout(dim: int) -> tuple:
    """The Haantjes tensor's stages, the same for every N on a chart of
    dimension dim, as _torsion_layout gives the torsion's.  Rows are
    numbered over N's entries, row by row, T's components, the rows of
    0.0, 1.0, -1.0 and -N, then A^i_{mk} in the order (i, m, k) and
    inner^m on pair q at row q*dim + m of its stage."""
    import numpy as np

    pairs = tuple(combinations(range(dim), 2))
    npairs, nsq = len(pairs), dim * dim
    jj, kk = np.array(pairs, dtype=np.intp).reshape(-1, 2, 1).transpose(1, 0, 2)
    one = nsq + dim * npairs + 1
    neg_n = one + 2
    a_rows = neg_n + nsq
    inner_rows = a_rows + dim ** 3
    # A^i_{mk}: sum over l != m of T^i_{ml} N^l_k, read from the stored
    # pair (m, l) for l > m and subtracted from the pair (l, m) for l < m
    i, m, k, l = np.ix_(*[np.arange(dim)] * 4)
    pair_of = np.zeros((dim, dim), dtype=np.intp)
    pair_of[jj[:, 0], kk[:, 0]] = pair_of[kk[:, 0], jj[:, 0]] = np.arange(npairs)
    shape, other = (dim,) * 4, np.broadcast_to(l != m, (dim,) * 4)
    a_left = np.broadcast_to(nsq + pair_of[m, l] * dim + i, shape)[other]
    a_right = np.broadcast_to(np.where(l > m, 0, neg_n) + l * dim + k, shape)[other]
    # inner^m on pair (j, k): A^m_{jk} - A^m_{kj}, then -N^m_p T^p_{jk}
    ms, ps, q = np.arange(dim), np.arange(dim), np.arange(npairs)[:, None, None]
    c_left = np.empty((npairs, dim, dim + 2), dtype=np.intp)
    c_left[..., 0] = a_rows + ms * nsq + jj * dim + kk
    c_left[..., 1] = a_rows + ms * nsq + kk * dim + jj
    c_left[..., 2:] = neg_n + ms[:, None] * dim + ps
    c_right = np.empty_like(c_left)
    c_right[..., 0], c_right[..., 1] = one, one + 1
    c_right[..., 2:] = nsq + q * dim + ps
    # H^i on pair (j, k): N^m_j A^i_{mk} over m, then -N^i_m inner^m over m
    h_left = np.empty((npairs, dim, 2 * dim), dtype=np.intp)
    h_left[..., :dim] = ps * dim + jj[..., None]
    h_left[..., dim:] = neg_n + ms[:, None] * dim + ps
    h_right = np.empty_like(h_left)
    h_right[..., :dim] = a_rows + ms[:, None] * nsq + ps * dim + kk[..., None]
    h_right[..., dim:] = inner_rows + q * dim + ps
    return (
        (a_left.reshape(dim ** 3, dim - 1), a_right.reshape(dim ** 3, dim - 1)),
        (c_left.reshape(-1, dim + 2), c_right.reshape(-1, dim + 2)),
        (h_left.reshape(-1, 2 * dim), h_right.reshape(-1, 2 * dim)),
    )


class _Schedule:
    """One stage of a staged tensor: for each component, a sum of products
    of two rows of a table of values, in its layout's term order: run
    over the table's values in numpy, or expanded over its nodes.

    The schedule is fixed when it is built, from the table's constant
    column (each row's value if it is a constant, nan if not), run once
    through the same arithmetic: which products have a structural-zero
    factor and are skipped, and where a sum of constants folds to a
    structural zero.  `constants` is that column for the sums, so its
    zeros are the structural zeros.  The sums are run in `order`, by their
    number of terms, so the s-th term of each of the first `active` sums
    that has one is a step on a prefix of them.
    """

    def __init__(self, left, right, const):
        import numpy as np

        with np.errstate(over="ignore", invalid="ignore"):
            lc, rc = const[left], const[right]
            product = lc * rc
            product[np.isinf(product)] = np.nan  # built as a node
            live = (lc != 0.0) & (rc != 0.0) & (product != 0.0)
            # Each sum's constant column after each term, from ZERO: a
            # skipped term adds 0.0, which changes no sum of terms that are
            # not zeros; a sum that overflows is a node.
            sums = np.cumsum(np.where(live, product, 0.0), axis=1)
        last = sums[:, -1] if sums.shape[1] else np.zeros(len(sums))
        self.constants = np.where(np.isfinite(last), last, np.nan)
        self.zero = self.constants == 0.0
        count = live.sum(axis=1)
        self.products = int(count.sum())
        self.order = np.argsort(-count, kind="stable")
        live, left, right = live[self.order], left[self.order], right[self.order]
        step = np.cumsum(live, axis=1) - 1
        comp, term = np.nonzero(live)
        by_step = np.argsort(step[comp, term], kind="stable")
        comp, term = comp[by_step], term[by_step]
        left, right = left[comp, term], right[comp, term]
        widths = np.bincount(step[comp, term]).tolist()
        self.active = widths[0] if widths else 0
        # the sums that are not structural zeros: their rows in the run
        # order, and in the stage
        self.src = np.flatnonzero(~self.zero[self.order[:self.active]])
        self.dst = self.order[self.src]
        # Consecutive steps share one gather and multiply, up to
        # max(sums, 64) products: a small stage takes all its products at
        # once, a large one holds no more than its sums.
        cap = max(self.active, 64)
        self._blocks, block, lo, hi = [], [], 0, 0
        for width in widths:
            if hi - lo + width > cap:
                self._blocks.append((left[lo:hi], right[lo:hi], block))
                block, lo = [], hi
            block.append(width)
            hi += width
        if block:
            self._blocks.append((left[lo:hi], right[lo:hi], block))
        self.work = 2 * max((len(a) for a, _, _ in self._blocks), default=0)
        # where a sum of constants folds to a structural zero, held as -0.0
        self._folds: dict[int, list[int]] = {}
        comp, term = np.nonzero(live & (sums[self.order] == 0.0))
        for c, s in zip(comp.tolist(), step[comp, term].tolist()):
            self._folds.setdefault(s, []).append(c)

    def expand(self, nodes, signs) -> list[Expr]:
        """The first `active` sums in `order` as expressions, from the
        table's nodes and the signs of their rows: each term of run, in
        run's order, added to its sum as add(acc, mul(x, y)), or taken
        away with sub where one factor's row is negated.  A sum starts at
        ZERO, and add and sub fold a sum of constants that cancels to ZERO
        where run holds -0.0."""
        acc = [ZERO] * self.active
        for a, b, widths in self._blocks:
            terms = zip(a.tolist(), b.tolist())
            for width in widths:
                for c in range(width):
                    x, y = next(terms)
                    term = mul(nodes[x], nodes[y])
                    acc[c] = add(acc[c], term) if signs[x] == signs[y] else sub(acc[c], term)
        return acc

    def run(self, v, acc, work) -> None:
        """The sums into acc, one row for each of the first `active` in
        `order`, from the table's values v: one numpy step per term position
        over the sums that have one, which adds their products, gathered
        and multiplied in work a block of steps at a time."""
        import numpy as np

        acc.fill(-0.0)
        s = 0
        for a, b, widths in self._blocks:
            products = np.take(v, a, axis=0, out=work[:len(a)], mode="clip")
            products *= np.take(v, b, axis=0, out=work[len(a):2 * len(a)], mode="clip")
            lo = 0
            for width in widths:
                np.add(acc[:width], products[lo:lo + width], out=acc[:width])
                lo += width
                if s in self._folds:
                    acc[self._folds[s]] = -0.0
                s += 1


def pi_n(p: Bivector, n: Endomorphism) -> tuple[Bivector, list[Expr]]:
    """Candidate bivector whose sharp map is N o P-sharp.

    Returns its skew-symmetrisation together with the symmetric defect
    entries; the defects vanish exactly when N o P-sharp is skew, i.e.
    when the first compatibility condition holds.
    """
    chart = _require_same_chart(p, n)
    dim = chart.dim
    nm = n.matrix
    pm = [[p.component(i, j) for j in range(dim)] for i in range(dim)]
    stored = [sorted(_nonzero(row)) for row in pm]
    a = [[ZERO] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            # a[i][j] = sum_m P^{im} N^j_m; add gives acc back for a zero
            # product: acc starts at ZERO and is never the constant -0.0
            acc = ZERO
            for m in stored[i]:
                if not is_zero(nm[j][m]):
                    acc = add(acc, mul(pm[i][m], nm[j][m]))
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

    built from the first derivatives of P and N, the five terms added per
    m in that order, and no product with a structural-zero factor built
    (_signed_add).  Per (i, j, k) only the m where one of the five terms
    has no structural-zero factor are visited, unless the sum starts at
    the constant -0.0, which a skipped term may fold to ZERO.
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
    # where the terms' factors are not structural zeros, indexed by m
    n_row = [_nonzero(row) for row in nm]
    n_col = [_nonzero(col) for col in zip(*nm)]
    p_row = [_nonzero(row) for row in entry]
    dp_row = [[_nonzero(row) for row in plane] for plane in dp]
    dn_at = [[_nonzero(dn[m][i][k] for m in range(dim)) for k in range(dim)] for i in range(dim)]
    out = {}
    for i, j in combinations(range(dim), 2):
        dp_ij = _nonzero(dp[m][i][j] for m in range(dim))
        comps = {}
        for k in range(dim):
            acc = derive(pin.component(i, j), k)
            visit = range(dim) if _is_negative_zero(acc) else sorted(
                n_row[i] & dp_row[k][j] | p_row[j] & dn_at[i][k] | n_row[j] & dp_row[k][i]
                | p_row[i] & dn_at[j][k] | dp_ij & n_col[k]
            )
            for m in visit:
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
    if (is_zero(x) or is_zero(y)) and not _is_negative_zero(acc):
        return acc
    if sign > 0:
        return add(acc, mul(x, y))
    return sub(acc, mul(x, y))


def _is_negative_zero(e: Expr) -> bool:
    return type(e) is Constant and e.value == 0.0 and copysign(1.0, e.value) < 0


@per_verdict
def d_invariant(n: Endomorphism, k: int) -> KForm:
    """dI_k for the k-th trace invariant I_k = Tr(N^k) / (2k), as a one-form.

    By cyclicity of the trace d Tr(N^k) = k Tr(N^{k-1} dN), so

        (dI_k)_m = sum_{i,j} (N^{k-1})^j_i d_m N^i_j / 2,

    summed from ZERO in (i, j) order over the pairs where neither factor
    is a structural zero.  It reads power(n, k - 1) and N's first
    derivatives, which the torsion and the concomitant share, and
    differentiates nothing built from N^k.
    """
    if k < 1:
        raise ValueError("invariant index must be at least 1")
    a = power(n, k - 1).matrix
    comps = {}
    for m, plane in enumerate(_derivatives(n)):
        acc = ZERO
        for i, row in enumerate(plane):
            for j, e in enumerate(row):
                if not (is_zero(e) or is_zero(a[j][i])):
                    acc = add(acc, mul(a[j][i], e))
        comps[(m,)] = div(acc, constant(2.0))
    return KForm(n.chart, 1, comps)


def phi_sequence_term(n: Endomorphism, s: int) -> KForm:
    """The one-form phi_s with <phi_s, X> = Tr(N^s (i_X T)) / 2.

    For a torsion-free endomorphism every phi_s is zero.
    """
    if s < 0:
        raise ValueError("sequence index must be non-negative")
    chart = n.chart
    dim = chart.dim
    t = nijenhuis_torsion(n).expression()
    ns = power(n, s).matrix
    comps = {}
    for j in range(dim):
        # Tr(N^s (i_X T)) on X = d_j: sum over i, r of (N^s)^i_r T^r_{ji}
        acc = ZERO
        for i in range(dim):
            for r in range(dim):
                if not is_zero(ns[i][r]):
                    acc = _signed_add(acc, 1, ns[i][r], t[r].component(j, i))
        val = div(acc, constant(2.0))
        if not is_zero(val):
            comps[(j,)] = val
    return KForm(chart, 1, comps)
