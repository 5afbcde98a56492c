"""Tensor fields on a chart and their pointwise algebra.

Conventions used throughout the package:

* Alternating forms and multivectors share one container, KForm, stored
  sparsely as a mapping from strictly increasing index tuples to
  coefficient expressions; components that would be zero are omitted.
  Looking a component up with indices in any order applies the
  permutation sign.
* The wedge of one-forms is the determinant pairing without factorials:
  (a ^ b)(X, Y) = a(X) b(Y) - a(Y) b(X).
* Interior products insert at the front: for a decomposable argument
  i_{X ^ Y} w = i_Y (i_X w) = w(X, Y, ...).
* The duality pairing fixing the star is <i_P V, Q> = <V, P ^ Q> for
  multivectors P, Q with complementary degrees.
* An endomorphism matrix entry [i][j] is the coefficient of the i-th
  coordinate vector in the image of the j-th one.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .expr import (
    _DERIVED,
    Chart,
    Expr,
    ZERO,
    ONE,
    add,
    constant,
    derive,
    div,
    is_zero,
    mul,
    neg,
    sub,
)


class DegreeError(ValueError):
    """A form or multivector degree outside what the operation admits."""


class ChartMismatch(ValueError):
    """Operands built over different charts."""


def _require_same_chart(*objs) -> Chart:
    chart = objs[0].chart
    for o in objs[1:]:
        if o.chart != chart:
            raise ChartMismatch("operands live on different charts")
    return chart


def _sorted_with_sign(idx: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Sort an index tuple, returning (permutation sign, sorted tuple).

    A repeated index gives sign 0.
    """
    lst = list(idx)
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(lst)):
        if lst[i - 1] == lst[i]:
            return 0, ()
    return sign, tuple(lst)


@functools.cache
def _passed_keys(dim: int, degree: int) -> set:
    """The keys of this degree on a chart of this dimension that have passed
    the checks, gathered as they come: C(dim, degree) may be huge."""
    return set()


def _normalize_components(chart: Chart, degree: int, components: Mapping) -> dict:
    out = {}
    passed = _passed_keys(chart.dim, degree)
    for key in sorted(components):
        k = tuple(key)
        # True == 1 and 1.0 == 1 hash alike, so a key equal to a passed one
        # is taken only if its indices are ints
        if k not in passed or not all(type(i) is int for i in k):
            if len(k) != degree:
                raise DegreeError(f"key {k} does not have {degree} indices")
            if any(not isinstance(i, int) or i < 0 or i >= chart.dim for i in k):
                raise ValueError(f"key {k} has indices outside the chart")
            if any(k[t] >= k[t + 1] for t in range(len(k) - 1)):
                raise ValueError(f"key {k} is not strictly increasing")
            passed.add(k)
        e = components[key]
        if not isinstance(e, Expr):
            raise TypeError("components must be expressions")
        if not is_zero(e):
            out[k] = e
    return out


@dataclass(frozen=True, eq=False)
class VectorField:
    chart: Chart
    components: tuple[Expr, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        if len(comps) != self.chart.dim:
            raise ValueError("component count must match the chart dimension")


@dataclass(frozen=True, eq=False)
class KForm:
    chart: Chart
    degree: int
    components: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.degree < 0 or self.degree > self.chart.dim:
            raise DegreeError(f"degree {self.degree} outside 0..{self.chart.dim}")
        object.__setattr__(
            self, "components", _normalize_components(self.chart, self.degree, self.components)
        )

    def component(self, *idx: int) -> Expr:
        sign, key = _sorted_with_sign(idx)
        if sign == 0:
            return ZERO
        e = self.components.get(key)
        if e is None:
            return ZERO
        return e if sign > 0 else neg(e)


class Bivector(KForm):
    """A KForm of degree 2, read as a bivector."""

    def __init__(self, chart: Chart, components: Mapping | None = None):
        super().__init__(chart, 2, {} if components is None else components)


@dataclass(frozen=True, eq=False)
class Endomorphism:
    chart: Chart
    matrix: tuple[tuple[Expr, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.matrix)
        object.__setattr__(self, "matrix", rows)
        d = self.chart.dim
        if len(rows) != d or any(len(r) != d for r in rows):
            raise ValueError("matrix must be square with the chart dimension")


@dataclass(frozen=True, eq=False)
class VolumeForm:
    chart: Chart
    coefficient: Expr


# Constructors and degenerate cases.

def zero_kform(chart: Chart, degree: int) -> KForm:
    return KForm(chart, degree, {})


def scalar_form(chart: Chart, e: Expr) -> KForm:
    """A function viewed as a 0-form."""
    return KForm(chart, 0, {(): e})


def basis_vector(chart: Chart, i: int) -> VectorField:
    return VectorField(chart, tuple(ONE if j == i else ZERO for j in range(chart.dim)))


def basis_oneform(chart: Chart, i: int) -> KForm:
    return KForm(chart, 1, {(i,): ONE})


def zero_vector(chart: Chart) -> VectorField:
    return VectorField(chart, (ZERO,) * chart.dim)


def identity_endomorphism(chart: Chart) -> Endomorphism:
    d = chart.dim
    return Endomorphism(chart, tuple(tuple(ONE if i == j else ZERO for j in range(d)) for i in range(d)))


def volume_kform(v: VolumeForm) -> KForm:
    return KForm(v.chart, v.chart.dim, {tuple(range(v.chart.dim)): v.coefficient})


# Linear arithmetic on each type.

def sub_vectors(x: VectorField, y: VectorField) -> VectorField:
    chart = _require_same_chart(x, y)
    return VectorField(chart, tuple(sub(a, b) for a, b in zip(x.components, y.components)))


def scale_vector(f: Expr, x: VectorField) -> VectorField:
    return VectorField(x.chart, tuple(mul(f, c) for c in x.components))


def add_kforms(a: KForm, b: KForm) -> KForm:
    chart = _require_same_chart(a, b)
    if a.degree != b.degree:
        raise DegreeError("cannot add forms of different degree")
    out = dict(a.components)
    for k, e in b.components.items():
        out[k] = add(out.get(k, ZERO), e)
    return KForm(chart, a.degree, out)


def sub_kforms(a: KForm, b: KForm) -> KForm:
    return add_kforms(a, scale_kform(constant(-1.0), b))


def scale_kform(f: Expr, a: KForm) -> KForm:
    return KForm(a.chart, a.degree, {k: mul(f, e) for k, e in a.components.items()})


def add_endomorphisms(a: Endomorphism, b: Endomorphism) -> Endomorphism:
    chart = _require_same_chart(a, b)
    return Endomorphism(
        chart,
        tuple(tuple(add(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a.matrix, b.matrix)),
    )


def sub_endomorphisms(a: Endomorphism, b: Endomorphism) -> Endomorphism:
    chart = _require_same_chart(a, b)
    return Endomorphism(
        chart,
        tuple(tuple(sub(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a.matrix, b.matrix)),
    )


def scale_endomorphism(f: Expr, a: Endomorphism) -> Endomorphism:
    return Endomorphism(a.chart, tuple(tuple(mul(f, x) for x in row) for row in a.matrix))


def per_verdict(builder):
    """Run a builder once per verdict for each argument list.

    Keyed on each argument's chart and matrix, or for a KForm its degree
    and components; the entries are hash-consed, so a rebuild would give
    the same nodes.  Kept in expr._DERIVED until clear_tables; built
    through __wrapped__, where a test may count builds.
    """

    @functools.wraps(builder)
    def memo(*args):
        key = (memo, *map(_verdict_key, args))
        got = _DERIVED.get(key)
        if got is None:
            got = _DERIVED[key] = memo.__wrapped__(*args)
        return got

    return memo


def _verdict_key(a) -> tuple:
    if isinstance(a, KForm):
        return a.chart, a.degree, tuple(a.components.items())
    return a.chart, a.matrix


def _nonzero(values) -> set[int]:
    """The positions of the values that are not structural zeros."""
    return {m for m, e in enumerate(values) if not is_zero(e)}


# Pairings and applications.

def pairing(alpha: KForm, x: VectorField) -> Expr:
    """<alpha, X> for a one-form alpha."""
    _require_same_chart(alpha, x)
    if alpha.degree != 1:
        raise DegreeError("pairing expects a one-form")
    acc = ZERO
    for (i,), e in alpha.components.items():
        acc = add(acc, mul(e, x.components[i]))
    return acc


def apply_endomorphism(n: Endomorphism, x: VectorField) -> VectorField:
    chart = _require_same_chart(n, x)
    comps = []
    for i in range(chart.dim):
        acc = ZERO
        for j in range(chart.dim):
            acc = add(acc, mul(n.matrix[i][j], x.components[j]))
        comps.append(acc)
    return VectorField(chart, tuple(comps))


def apply_form(omega: KForm, *vectors: VectorField) -> Expr:
    """Full contraction of a k-form with k vector fields."""
    if len(vectors) != omega.degree:
        raise DegreeError("wrong number of arguments for the form degree")
    w = omega
    for x in vectors:
        w = interior_mv(x, w)
    return w.components.get((), ZERO)


# Musical maps and duals.

def sharp(p: Bivector, alpha: KForm) -> VectorField:
    """P-sharp of a one-form: <beta, sharp(P, alpha)> = P(alpha, beta)."""
    chart = _require_same_chart(p, alpha)
    if alpha.degree != 1:
        raise DegreeError("sharp expects a one-form")
    comps = [ZERO] * chart.dim
    for (i, j), e in p.components.items():
        ai = alpha.components.get((i,))
        aj = alpha.components.get((j,))
        if ai is not None:
            comps[j] = add(comps[j], mul(ai, e))
        if aj is not None:
            comps[i] = sub(comps[i], mul(aj, e))
    return VectorField(chart, tuple(comps))


def flat(omega: KForm, x: VectorField) -> KForm:
    """Omega-flat of a vector: <flat(omega, X), Y> = omega(X, Y)."""
    chart = _require_same_chart(omega, x)
    if omega.degree != 2:
        raise DegreeError("flat expects a two-form")
    comps: dict[tuple[int, ...], Expr] = {}
    for (i, j), e in omega.components.items():
        comps[(j,)] = add(comps.get((j,), ZERO), mul(e, x.components[i]))
        comps[(i,)] = sub(comps.get((i,), ZERO), mul(e, x.components[j]))
    return KForm(chart, 1, comps)


def dual_apply(n: Endomorphism, alpha: KForm) -> KForm:
    """Transpose action on one-forms: <dual_apply(N, a), X> = <a, N X>."""
    chart = _require_same_chart(n, alpha)
    if alpha.degree != 1:
        raise DegreeError("dual_apply expects a one-form")
    comps: dict[tuple[int, ...], Expr] = {}
    for j in range(chart.dim):
        acc = ZERO
        for (i,), e in alpha.components.items():
            acc = add(acc, mul(e, n.matrix[i][j]))
        if not is_zero(acc):
            comps[(j,)] = acc
    return KForm(chart, 1, comps)


@per_verdict
def compose(a: Endomorphism, b: Endomorphism) -> Endomorphism:
    """The endomorphism sending X to a(b(X))."""
    chart = _require_same_chart(a, b)
    d = chart.dim
    rows = []
    for i in range(d):
        row = []
        for j in range(d):
            acc = ZERO
            for m in range(d):
                x, y = a.matrix[i][m], b.matrix[m][j]
                # add gives acc back for a zero product: acc starts at
                # ZERO and is never the constant -0.0
                if not (is_zero(x) or is_zero(y)):
                    acc = add(acc, mul(x, y))
            row.append(acc)
        rows.append(tuple(row))
    return Endomorphism(chart, tuple(rows))


def power(n: Endomorphism, k: int) -> Endomorphism:
    if k < 0:
        raise ValueError("negative powers are not defined")
    acc = identity_endomorphism(n.chart)
    for _ in range(k):
        acc = compose(acc, n)
    return acc


def trace(n: Endomorphism) -> Expr:
    acc = ZERO
    for i in range(n.chart.dim):
        acc = add(acc, n.matrix[i][i])
    return acc


def tensor_product(z: VectorField, xi: KForm) -> Endomorphism:
    """The rank-one endomorphism X -> <xi, X> Z."""
    chart = _require_same_chart(z, xi)
    if xi.degree != 1:
        raise DegreeError("tensor_product expects a one-form")
    d = chart.dim
    rows = []
    for i in range(d):
        row = []
        for j in range(d):
            row.append(mul(z.components[i], xi.component(j)))
        rows.append(tuple(row))
    return Endomorphism(chart, tuple(rows))


# Wedges.

def wedge(a: KForm, b: KForm) -> KForm:
    chart = _require_same_chart(a, b)
    degree = a.degree + b.degree
    if degree > chart.dim:
        raise DegreeError("wedge degree exceeds the chart dimension")
    comps: dict[tuple[int, ...], Expr] = {}
    for ka, ea in a.components.items():
        for kb, eb in b.components.items():
            sign, key = _sorted_with_sign(ka + kb)
            if sign == 0:
                continue
            term = mul(ea, eb)
            if sign < 0:
                term = neg(term)
            comps[key] = add(comps.get(key, ZERO), term)
    return KForm(chart, degree, comps)


def _as_multivector(p, chart: Chart) -> KForm:
    """p as a multivector in the KForm container: KForms pass through, a
    vector field has degree 1, a function degree 0, and a sequence of
    vector fields stands for their wedge."""
    if isinstance(p, KForm):
        return p
    if isinstance(p, VectorField):
        return KForm(p.chart, 1, {(i,): c for i, c in enumerate(p.components)})
    if isinstance(p, Expr):
        return scalar_form(chart, p)
    if isinstance(p, (list, tuple)):
        mv = _as_multivector(p[0], chart)
        for x in p[1:]:
            mv = wedge(mv, _as_multivector(x, chart))
        return mv
    raise TypeError(f"cannot read {type(p).__name__} as a multivector")


# Interior products.

def interior_mv(p, omega: KForm) -> KForm:
    """i_P omega, for P anything _as_multivector reads as a multivector; for
    decomposable P = X1 ^ ... ^ Xm this is i_Xm ... i_X1 applied
    front-first, i.e. (i_P omega)(...) = omega(X1, ..., Xm, ...)."""
    p = _as_multivector(p, omega.chart)
    chart = _require_same_chart(p, omega)
    if p.degree > omega.degree:
        raise DegreeError("multivector degree exceeds the form degree")
    comps: dict[tuple[int, ...], Expr] = {}
    for ki, pe in p.components.items():
        iset = set(ki)
        for kw, we in omega.components.items():
            if not iset.issubset(kw):
                continue
            rest = tuple(t for t in kw if t not in iset)
            sign, key = _sorted_with_sign(ki + rest)
            if sign == 0:
                continue
            term = mul(pe, we)
            if sign < 0:
                term = neg(term)
            comps[rest] = add(comps.get(rest, ZERO), term)
    return KForm(chart, omega.degree - p.degree, comps)


def interior_form_on_bivectorfield(eta: KForm, x: VectorField, y: VectorField) -> VectorField:
    """i_eta (X ^ Y) = <eta, X> Y - <eta, Y> X."""
    chart = _require_same_chart(eta, x, y)
    if eta.degree != 1:
        raise DegreeError("expects a one-form")
    ex = pairing(eta, x)
    ey = pairing(eta, y)
    return sub_vectors(scale_vector(ex, y), scale_vector(ey, x))


def interior_endomorphism(n: Endomorphism, omega: KForm) -> KForm:
    """Sum over slots t of inserting N into one argument of omega:
    sum over t and l of N^l_{key[t]} omega(key with l in slot t).

    Only terms with a stored component of omega and a nonzero N entry are
    built, added in (t, l) order from ZERO; the sum is never the constant
    -0.0, so a term left out, which folds to a zero constant, changes no
    node.  On 0-forms the sum is empty, so the result is zero.
    """
    chart = _require_same_chart(n, omega)
    nz = [_nonzero(row) for row in n.matrix]
    terms: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for stored in omega.components:
        for l in stored:
            rest = tuple(x for x in stored if x != l)
            for m in nz[l].difference(rest):
                key = tuple(sorted(rest + (m,)))
                terms.setdefault(key, []).append((key.index(m), l))
    comps: dict[tuple[int, ...], Expr] = {}
    for key, slots in terms.items():
        acc = ZERO
        for t, l in sorted(slots):
            idx = key[:t] + (l,) + key[t + 1:]
            acc = add(acc, mul(n.matrix[l][key[t]], omega.component(*idx)))
        comps[key] = acc
    return KForm(chart, omega.degree, comps)


# Star against a volume form, and divergence.

def star(p, v: VolumeForm) -> KForm:
    """Contraction of a multivector into the volume form.

    Defined for every degree when the chart is three dimensional; in other
    dimensions only degrees 0 and dim are supported.
    """
    p = _as_multivector(p, v.chart)
    chart = _require_same_chart(p, v)
    if chart.dim != 3 and p.degree not in (0, chart.dim):
        raise DegreeError("intermediate degrees are only supported on 3d charts")
    return interior_mv(p, volume_kform(v))


def divergence(x: VectorField, v: VolumeForm) -> Expr:
    """The function div(X) with L_X V = div(X) V."""
    chart = _require_same_chart(x, v)
    rho = v.coefficient
    acc = ZERO
    for i in range(chart.dim):
        acc = add(acc, derive(mul(rho, x.components[i]), i))
    return div(acc, rho)


def sharp_flat(p: Bivector, omega: KForm) -> Endomorphism:
    """The composite X -> sharp(P, flat(omega, X)) as a matrix."""
    chart = _require_same_chart(p, omega)
    cols = [sharp(p, flat(omega, basis_vector(chart, j))) for j in range(chart.dim)]
    d = chart.dim
    return Endomorphism(chart, tuple(tuple(cols[j].components[i] for j in range(d)) for i in range(d)))
