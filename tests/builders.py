"""Test-only builders and references: random inputs that no verdict needs,
the plan's base points as tuples, a torsion's value on general vector
fields, staged torsion and Haantjes components evaluated at points, the
count of the Haantjes stages' terms with no structural-zero factor, the
torsion, concomitant and interior-endomorphism loops as written before
they skipped structural zeros, the count of the concomitant's visited
terms, the nested jacobiator that the Jacobi sides must equal, the Lie
derivative, bracket of one-forms and Koszul-bracket concomitant that the
closed-form concomitant replaced, the
node-at-a-time evaluator that the tape replaced, and the smart
constructors as written before each tested its operands' type once."""

import math
from itertools import combinations

import numpy as np

from pqnverify.expr import (
    _MAX_EXPONENT,
    _OPCODE,
    _TABLE,
    ONE,
    ZERO,
    Add,
    Chart,
    Constant,
    Coord,
    Cos,
    Div,
    Exp,
    Expr,
    ExprError,
    IntPow,
    Log,
    Mul,
    Neg,
    Sin,
    Sqrt,
    Sub,
    _binary,
    _children,
    _constant,
    _unary,
    add,
    constant,
    derive,
    div,
    evaluate_batch,
    is_one,
    is_zero,
    mul,
    sub,
)
from pqnverify.calculus import d, d_scalar, pi_n, poisson_bracket, torsion_expression
from pqnverify.fields import (
    Bivector,
    DegreeError,
    Endomorphism,
    KForm,
    VectorField,
    VolumeForm,
    _require_same_chart,
    add_kforms,
    dual_apply,
    interior_mv,
    pairing,
    power,
    sharp,
    sub_kforms,
    volume_kform,
)
from pqnverify.verify import point_block, random_polynomial


def random_endomorphism(chart: Chart, gen, **kw) -> Endomorphism:
    """An endomorphism whose entries are small random polynomials, driven
    by a splitmix64 iterator."""
    dim = chart.dim
    return Endomorphism(
        chart,
        tuple(
            tuple(random_polynomial(chart, gen, **kw) for _ in range(dim))
            for _ in range(dim)
        ),
    )


def random_bivector(chart: Chart, gen, **kw) -> Bivector:
    """A bivector with a small random polynomial on every pair a < b."""
    pairs = [(a, b) for a in range(chart.dim) for b in range(a + 1, chart.dim)]
    return Bivector(chart, {key: random_polynomial(chart, gen, **kw) for key in pairs})


def points(plan) -> list[tuple[float, ...]]:
    """The plan's base point list (before any resampling)."""
    return [tuple(row) for row in point_block(plan, 0, plan.count).tolist()]


def torsion_apply(t, x: VectorField, y: VectorField) -> VectorField:
    """The value of a torsion (calculus.TorsionEvaluator) on two general
    vector fields, expanded over the coordinate basis by
    function-bilinearity."""
    chart = _require_same_chart(x, y)
    comps = [ZERO] * chart.dim
    for (j, k), v in t._pairs.items():
        coeff = sub(
            mul(x.components[j], y.components[k]),
            mul(x.components[k], y.components[j]),
        )
        if is_zero(coeff):
            continue
        for i in range(chart.dim):
            comps[i] = add(comps[i], mul(coeff, v.components[i]))
    return VectorField(chart, tuple(comps))


def staged_values(tensor, pts) -> np.ndarray:
    """A staged torsion or Haantjes tensor's components at points, one row
    per component as tensor.entries() lists them: its roots evaluated,
    then contracted."""
    pts = np.asarray(pts, dtype=float).reshape(-1, tensor.chart.dim)
    with np.errstate(all="ignore"):
        return tensor.contract(evaluate_batch(tensor.roots, pts))[0]


def dense_torsion_expression(n: Endomorphism) -> dict:
    """calculus.torsion_expression's components as its loop built them
    before it skipped products with a structural-zero factor: every
    product built and added, keyed (j, k) for j < k."""
    dim = n.chart.dim
    dn = [[[derive(e, m) for e in row] for row in n.matrix] for m in range(dim)]
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
            pairs[(j, k)] = comps
    return pairs


def haantjes_live_terms(n: Endomorphism) -> int:
    """The terms of calculus.haantjes_expression's stages, A^i_{mk},
    inner^m_{jk} and H^i_{jk}, with no structural-zero factor, counted in
    its loops: each operand of the bracket A^m_{jk} - A^m_{kj} that is not
    a structural zero counts as one term."""
    dim = n.chart.dim
    t = torsion_expression(n)
    nm = n.matrix
    live = 0

    def count(x, y):
        nonlocal live
        live += not (is_zero(x) or is_zero(y))
        return mul(x, y)

    a = [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for m in range(dim):
            for k in range(dim):
                acc = ZERO
                for l in range(dim):
                    if l > m:
                        acc = add(acc, count(t.component(i, m, l), nm[l][k]))
                    elif l < m:
                        acc = sub(acc, count(t.component(i, l, m), nm[l][k]))
                a[i][m][k] = acc
    for j in range(dim):
        for k in range(j + 1, dim):
            tjk = t.pair(j, k).components
            inner = []
            for m in range(dim):
                acc = sub(a[m][j][k], a[m][k][j])
                live += (not is_zero(a[m][j][k])) + (not is_zero(a[m][k][j]))
                for p in range(dim):
                    acc = sub(acc, count(nm[m][p], tjk[p]))
                inner.append(acc)
            for i in range(dim):
                for m in range(dim):
                    count(nm[m][j], a[i][m][k])
                for m in range(dim):
                    count(nm[i][m], inner[m])
    return live


def dense_compose(a: Endomorphism, b: Endomorphism) -> Endomorphism:
    """fields.compose as its loop built it before it skipped products with
    a structural-zero factor."""
    dim = a.chart.dim
    rows = []
    for i in range(dim):
        row = []
        for j in range(dim):
            acc = ZERO
            for m in range(dim):
                acc = add(acc, mul(a.matrix[i][m], b.matrix[m][j]))
            row.append(acc)
        rows.append(tuple(row))
    return Endomorphism(a.chart, tuple(rows))


def dense_phi_sequence_term(n: Endomorphism, s: int) -> KForm:
    """calculus.phi_sequence_term as its loop built it before it skipped
    products with a structural-zero factor."""
    dim = n.chart.dim
    t = torsion_expression(n)
    ns = power(n, s).matrix
    comps = {}
    for j in range(dim):
        acc = ZERO
        for i in range(dim):
            for r in range(dim):
                acc = add(acc, mul(ns[i][r], t.component(r, j, i)))
        val = div(acc, constant(2.0))
        if not is_zero(val):
            comps[(j,)] = val
    return KForm(n.chart, 1, comps)


def dense_concomitant(p: Bivector, n: Endomorphism) -> dict[tuple[int, int], KForm]:
    """calculus.concomitant as its loop built it before it skipped
    products with a structural-zero factor."""
    dim = n.chart.dim
    nm = n.matrix
    pin = pi_n(p, n)[0]
    sign = [[(a < b) - (a > b) for b in range(dim)] for a in range(dim)]
    entry = [[p.component(min(a, b), max(a, b)) for b in range(dim)] for a in range(dim)]
    dp = [[[derive(e, k) for e in row] for row in entry] for k in range(dim)]
    dn = [[[derive(e, m) for e in row] for row in nm] for m in range(dim)]

    def signed(acc, s, x, y):
        if s > 0:
            return add(acc, mul(x, y))
        return sub(acc, mul(x, y)) if s < 0 else acc

    out = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            comps = {}
            for k in range(dim):
                acc = derive(pin.component(i, j), k)
                for m in range(dim):
                    acc = signed(acc, -sign[m][j], nm[i][m], dp[k][m][j])
                    acc = signed(acc, sign[j][m], entry[j][m], dn[m][i][k])
                    acc = signed(acc, sign[m][i], nm[j][m], dp[k][m][i])
                    acc = signed(acc, -sign[i][m], entry[i][m], dn[m][j][k])
                    acc = add(acc, mul(dp[m][i][j], nm[m][k]))
                comps[(k,)] = acc
            out[(i, j)] = KForm(n.chart, 1, comps)
    return out


def dense_interior_endomorphism(n: Endomorphism, omega: KForm) -> KForm:
    """fields.interior_endomorphism as its loop built it before it visited
    only omega's stored components: every key of the degree, every slot
    and every nonzero N entry."""
    k = omega.degree
    comps = {}
    for key in combinations(range(n.chart.dim), k):
        acc = ZERO
        for t in range(k):
            for l in range(n.chart.dim):
                entry = n.matrix[l][key[t]]
                if is_zero(entry):
                    continue
                idx = key[:t] + (l,) + key[t + 1:]
                acc = add(acc, mul(entry, omega.component(*idx)))
        if not is_zero(acc):
            comps[key] = acc
    return KForm(n.chart, k, comps)


def jacobiator(p: Bivector, f: Expr, g: Expr, h: Expr) -> Expr:
    """{f,{g,h}} + {g,{h,f}} + {h,{f,g}} from six nested brackets over all
    of P's entries: the reference for calculus.jacobi_sides."""
    return add(
        add(
            poisson_bracket(p, f, poisson_bracket(p, g, h)),
            poisson_bracket(p, g, poisson_bracket(p, h, f)),
        ),
        poisson_bracket(p, h, poisson_bracket(p, f, g)),
    )


def concomitant_visits(p: Bivector, n: Endomorphism) -> int:
    """The _signed_add calls of calculus.concomitant, counted on the dense
    loop: five for each (i, j, k) and m where one of the five terms has
    no structural-zero factor, and for every m where the sum starts at the
    constant -0.0."""
    dim = n.chart.dim
    nm = n.matrix
    pin = pi_n(p, n)[0]
    entry = [[p.component(min(a, b), max(a, b)) for b in range(dim)] for a in range(dim)]
    dp = [[[derive(e, k) for e in row] for row in entry] for k in range(dim)]
    dn = [[[derive(e, m) for e in row] for row in nm] for m in range(dim)]
    visits = 0
    for i, j in combinations(range(dim), 2):
        for k in range(dim):
            start = derive(pin.component(i, j), k)
            negative_zero = isinstance(start, Constant) and start.value == 0.0
            if negative_zero and math.copysign(1.0, start.value) < 0:
                visits += dim
                continue
            for m in range(dim):
                factors = ((nm[i][m], dp[k][m][j]), (entry[j][m], dn[m][i][k]),
                           (nm[j][m], dp[k][m][i]), (entry[i][m], dn[m][j][k]),
                           (dp[m][i][j], nm[m][k]))
                visits += any(not (is_zero(x) or is_zero(y)) for x, y in factors)
    return 5 * visits


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


def koszul_concomitant(
    p: Bivector,
    n: Endomorphism,
    alpha: KForm,
    beta: KForm,
    pin: Bivector | None = None,
) -> KForm:
    """The compatibility concomitant on a pair of general one-forms, from
    four brackets of one-forms: the reference for calculus.concomitant,
    which is its closed form on coordinate one-forms."""
    if pin is None:
        pin = pi_n(p, n)[0]
    t1 = bracket_p(pin, alpha, beta)
    t2 = bracket_p(p, dual_apply(n, alpha), beta)
    t3 = bracket_p(p, alpha, dual_apply(n, beta))
    t4 = dual_apply(n, bracket_p(p, alpha, beta))
    return add_kforms(sub_kforms(sub_kforms(t1, t2), t3), t4)


def topo_order(roots: list[Expr]) -> list[Expr]:
    """The distinct nodes reachable from roots, children before parents."""
    order: list[Expr] = []
    seen: set[int] = set()
    stack: list[tuple[Expr, bool]] = [(r, False) for r in roots]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for c in _children(node):
            if id(c) not in seen:
                stack.append((c, False))
    return order


def _eval_node_np(n: Expr, pts: np.ndarray, vals: dict):
    if isinstance(n, Constant):
        return np.full(pts.shape[0], n.value)
    if isinstance(n, Coord):
        return pts[:, n.index]
    if isinstance(n, Add):
        return vals[id(n.a)] + vals[id(n.b)]
    if isinstance(n, Sub):
        return vals[id(n.a)] - vals[id(n.b)]
    if isinstance(n, Mul):
        return vals[id(n.a)] * vals[id(n.b)]
    if isinstance(n, Div):
        return vals[id(n.a)] / vals[id(n.b)]
    if isinstance(n, Neg):
        return -vals[id(n.arg)]
    if isinstance(n, IntPow):
        return vals[id(n.base)] ** n.exponent
    if isinstance(n, Exp):
        return np.exp(vals[id(n.arg)])
    if isinstance(n, Log):
        return np.log(vals[id(n.arg)])
    if isinstance(n, Sin):
        return np.sin(vals[id(n.arg)])
    if isinstance(n, Cos):
        return np.cos(vals[id(n.arg)])
    if isinstance(n, Sqrt):
        return np.sqrt(vals[id(n.arg)])
    raise TypeError(f"unknown node {type(n).__name__}")


def bits(values: np.ndarray) -> np.ndarray:
    """The float64 bit patterns of values, with every nan made the same one.

    Which nan an operation on two nans returns depends on whether numpy's
    SIMD loop or its scalar tail computes that element, so only the
    position of a nan is compared, not its sign or payload."""
    return np.where(np.isnan(values), np.nan, values).view(np.uint64)


def reference_evaluate_batch(exprs: list[Expr], pts: np.ndarray) -> np.ndarray:
    """evaluate_batch one node at a time, each node one numpy call over all
    points: the reference the tape must match bit for bit."""
    out = np.empty((len(exprs), pts.shape[0]))
    vals: dict[int, np.ndarray] = {}
    with np.errstate(all="ignore"):
        for node in topo_order(list(exprs)):
            vals[id(node)] = _eval_node_np(node, pts, vals)
    for r, e in enumerate(exprs):
        out[r] = vals[id(e)]
    return out


# The smart constructors with their is_zero/is_one/isinstance tests, as
# they were before add, sub, mul, div, neg, intpow and the unary folds
# tested type(x) is Constant once: the rules those must keep.  Nodes come
# from expr's table through _reference_node, so a result compares by
# identity with what expr's constructors return.

def _reference_node(cls, *args) -> Expr:
    if cls is Constant:
        return _constant(args[0])
    if cls in (Add, Sub, Mul, Div):
        return _TABLE.get((cls, *args)) or _binary(cls, _OPCODE[cls], *args)
    return _unary((cls, *args), _OPCODE[cls], args[0], float(args[1]) if cls is IntPow else 0.0)


def reference_add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Constant) and isinstance(b, Constant):
        v = a.value + b.value
        if math.isfinite(v):
            return _reference_node(Constant, v)
    if is_zero(a):
        return b
    if is_zero(b):
        return a
    return _reference_node(Add, a, b)


def reference_sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Constant) and isinstance(b, Constant):
        v = a.value - b.value
        if math.isfinite(v):
            return _reference_node(Constant, v)
    if is_zero(b):
        return a
    if is_zero(a):
        return reference_neg(b)
    return _reference_node(Sub, a, b)


def reference_mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Constant) and isinstance(b, Constant):
        v = a.value * b.value
        if math.isfinite(v):
            return _reference_node(Constant, v)
    if is_zero(a) or is_zero(b):
        return ZERO
    if is_one(a):
        return b
    if is_one(b):
        return a
    return _reference_node(Mul, a, b)


def reference_div(a: Expr, b: Expr) -> Expr:
    if is_one(b):
        return a
    if isinstance(b, Constant) and b.value != 0.0:
        if isinstance(a, Constant):
            v = a.value / b.value
            if math.isfinite(v):
                return _reference_node(Constant, v)
        if is_zero(a):
            return ZERO
    return _reference_node(Div, a, b)


def reference_neg(a: Expr) -> Expr:
    if isinstance(a, Constant):
        return _reference_node(Constant, -a.value)
    if isinstance(a, Neg):
        return a.arg
    return _reference_node(Neg, a)


def reference_intpow(base: Expr, exponent) -> Expr:
    if not isinstance(exponent, int) or isinstance(exponent, bool) or exponent < 0:
        raise ExprError("exponent must be a non-negative integer")
    if exponent > _MAX_EXPONENT:
        raise ExprError("exponent too large")
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Constant):
        try:
            v = base.value ** exponent
        except OverflowError:  # float ** int raises where float * float gives inf
            return _reference_node(IntPow, base, exponent)
        if math.isfinite(v):
            return _reference_node(Constant, v)
    return _reference_node(IntPow, base, exponent)


def reference_fold_unary(cls, fn, a: Expr) -> Expr:
    if isinstance(a, Constant):
        try:
            v = fn(a.value)
        except (ValueError, OverflowError):
            return _reference_node(cls, a)
        if math.isfinite(v):
            return _reference_node(Constant, v)
    return _reference_node(cls, a)
