"""Seeded numerical verification of tensor identities.

Identities are never decided by comparing expression trees.  Both sides
are evaluated at a deterministic cloud of sample points and the check
passes when the largest scaled residual stays below the tolerance:

    residual(p) = max-norm of componentwise differences at p
    scale(p)    = max(1, largest |component| of either side at p)

Points come from a splitmix64 stream (expr.point_block), so every run
(and every conforming reimplementation) sees the same cloud.  Points where
any participating component fails to evaluate to a finite number are
replaced by further stream points, up to a per-check resample budget.
Replacement points continue the stream after every point a check has
drawn so far.

Every universally quantified identity here is tensorial in its vector
arguments, so checking it on coordinate fields at sampled points is
equivalent to checking it on arbitrary fields.

Each suite has a builder, named in _SUITE_TABLE, that takes (structure,
plan, tol, kmax) and returns the suite's batch: a list of (name, pairs,
detail) check triples and reports already decided.  run_suites is the
one entry point that settles them: it builds the suites in table order
and merges consecutive batches while the merged batch is evaluated in
one chunk of points, so a verdict's small suites share one evaluation; a
batch too large for one chunk is settled alone.  An evaluation does not
depend on which roots share it, so the grouping changes no report.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from math import comb

import numpy as np

from . import expr
from .expr import (
    Expr,
    Program,
    SamplePlan,
    ZERO,
    add,
    clear_tables,
    constant,
    derive,
    div,
    evaluate_batch,
    intpow,
    is_one,
    is_zero,
    mul,
    neg,
    point_block,
    point_stream,  # unused here; perfbench/spans.py wraps verify.point_stream
    sample_plan,  # unused here; perfbench/exact.py calls verify.sample_plan
    sub,
)
from .fields import (
    Bivector,
    Endomorphism,
    KForm,
    Structure,
    VectorField,
    add_endomorphisms,
    add_kforms,
    apply_endomorphism,
    basis_oneform,
    basis_vector,
    compose,
    divergence,
    dual_apply,
    identity_endomorphism,
    interior_endomorphism,
    interior_form_on_bivectorfield,
    interior_mv,
    pairing,
    per_verdict,
    power,
    scale_endomorphism,
    scale_kform,
    scale_vector,
    sharp,
    sharp_flat,
    star,
    sub_endomorphisms,
    sub_kforms,
    sub_vectors,
    tensor_product,
    wedge,
    zero_kform,
)
from .calculus import (
    HaantjesTensor,
    StagedTensor,
    TorsionTensor,
    concomitant,
    d,
    d_n,
    d_invariant,
    d_scalar,
    haantjes_tensor,
    jacobi_sides,
    nijenhuis_torsion,
    phi_sequence_term,
)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one sampled identity check."""

    name: str
    status: str  # "pass" | "fail" | "skipped"
    max_scaled_residual: float | None
    worst_point: tuple[float, ...] | None
    samples_used: int
    tol: float
    detail: str = ""


def _skip(name: str, tol: float, detail: str) -> CheckReport:
    return CheckReport(name, "skipped", None, None, 0, tol, detail)


def _join(a: str, b: str) -> str:
    if a and b:
        return f"{a}; {b}"
    return a or b


def run_checks(
    checks: list[tuple[str, list[tuple[Expr, Expr]], str]], plan: SamplePlan, tol: float
) -> list[CheckReport]:
    """Reports for (name, pairs, detail) checks, in order, settled in one
    evaluation pass.

    The checks may come from several suites: run_suites passes each group
    of consecutive batches that one chunk of points holds (_groups).
    The roots of every check are evaluated together at the plan's points,
    so that nodes the checks share are evaluated once, in chunks of as
    many points as keep their rows of values (the sides and _held_rows)
    within REGISTER_BUDGET floats (one point at least).  Each chunk is reduced
    at once to every check's finiteness and scaled residual per point.
    Points where a check has a component that is not finite are then
    replaced for that check alone.  An evaluation does not depend on which
    roots share it, so each report equals the one its check gives alone.

    A side may be a staged entry (calculus.StagedEntry) of a torsion or
    Haantjes tensor: its tensor's roots are evaluated with the others and
    its value is contracted from theirs."""
    # perfbench/exact.py rebinds run_pairs to capture one check's pairs, so
    # a replacement sees every check, one call each; a functools.wraps
    # wrapper of run_pairs, such as perfbench's tracer makes, does not.
    if _run_pairs_rebound():
        return [
            run_pairs(name, _expanded(pairs), plan, tol, detail)
            for name, pairs, detail in checks
        ]
    return _settle(checks, plan, tol)


def run_pairs(
    name: str,
    pairs: list[tuple[Expr, Expr]],
    plan: SamplePlan,
    tol: float,
    detail: str = "",
) -> CheckReport:
    """Evaluate lhs/rhs component pairs at the plan's points and report the
    largest scaled residual: run_checks on one check."""
    return _settle([(name, pairs, detail)], plan, tol)[0]


_RUN_PAIRS_CODE = run_pairs.__code__


def _run_pairs_rebound() -> bool:
    """Whether run_pairs is replaced by something other than a wrapper."""
    original = getattr(run_pairs, "__wrapped__", run_pairs)
    return getattr(original, "__code__", None) is not _RUN_PAIRS_CODE


def _expanded(pairs: list) -> list[tuple[Expr, Expr]]:
    """pairs with each staged entry expanded to its expression, for a
    replacement of run_pairs that walks the nodes (perfbench/exact.py
    does).  The expansion is the tensor's schedule run over nodes."""
    return [
        tuple(e if isinstance(e, Expr) else e.expand() for e in pair) for pair in pairs
    ]


def _settle(checks, plan: SamplePlan, tol: float) -> list[CheckReport]:
    """run_checks, whatever run_pairs is bound to."""
    exprs: list[Expr] = []
    starts = []  # each evaluated check's first pair
    for _, pairs, _ in checks:
        if pairs:
            starts.append(len(exprs) // 2)
            for lhs, rhs in pairs:
                exprs += (lhs, rhs)
    pts = point_block(plan, 0, plan.count)
    if starts:  # some check has pairs
        rows = zip(*_scaled_residuals(_prepared(exprs, plan.count), starts, pts))
    reports = []
    for name, pairs, detail in checks:
        if pairs:
            reports.append(_report(name, pairs, detail, plan, tol, pts, *next(rows)))
        else:
            note = _join(detail, "no components")
            reports.append(CheckReport(name, "pass", 0.0, None, 0, tol, note))
    return reports


def _report(
    name: str,
    pairs: list[tuple[Expr, Expr]],
    detail: str,
    plan: SamplePlan,
    tol: float,
    pts: np.ndarray,
    finite: np.ndarray,
    scaled: np.ndarray,
) -> CheckReport:
    """One check's report from its finiteness and scaled residuals at the
    plan's points, replacing the points where it is not finite.

    Every round evaluates the check's sides on no more points than the
    first, so the rounds share the Program the first compiles."""
    budget = plan.resample_limit
    replaced = 0
    while not finite.all() and budget > 0:
        slots = np.flatnonzero(~finite)[:budget]
        take = len(slots)
        # replacements continue the stream after every point drawn so far
        fresh = point_block(plan, plan.count + replaced, take)
        budget -= take
        if not replaced:
            pts = pts.copy()  # the batch's other checks keep the plan's points
            batch = _prepared([e for pair in pairs for e in pair], take)
        pts[slots] = fresh
        ok, value = _scaled_residuals(batch, [0], fresh)
        finite[slots], scaled[slots] = ok[0], value[0]
        replaced += take
    if not finite.all():
        dead = int((~finite).sum())
        note = _join(detail, f"resample budget exhausted with {dead} unusable points")
        return CheckReport(name, "skipped", None, None, plan.count - dead, tol, note)
    worst = int(np.argmax(scaled))
    top = float(scaled[worst])
    note = _join(detail, f"resampled {replaced} points") if replaced else detail
    return CheckReport(
        name,
        "pass" if top <= tol else "fail",
        top,
        tuple(float(c) for c in pts[worst]),
        plan.count,
        tol,
        note,
    )


def _scaled_residuals(
    batch: tuple[Program, list, int], starts: list[int], pts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per check and point: whether every component is finite, and the
    scaled residual, each of shape (len(starts), len(pts)), for a
    _prepared batch, in chunks as wide as its Program was compiled for.

    The sides alternate lhs and rhs; starts holds each check's first pair.
    The residual at a point is the largest |lhs - rhs| over the check's
    pairs and its scale is max(1, largest |lhs| or |rhs|).  Where that
    difference of finite sides overflows, the scaled residual is the
    largest |lhs/scale - rhs/scale| instead."""
    program, staged, sides = batch
    npts, width = len(pts), program.npts
    finite = np.empty((len(starts), npts), dtype=bool)
    scaled = np.empty((len(starts), npts))
    counts = np.diff(np.append(starts, sides // 2))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, npts, width):
            out = evaluate_batch(program, pts[lo:lo + width])
            vals = out[:sides]
            contracted: dict = {}  # by tensor; a Haantjes tensor reads its torsion's
            for tensor, first, dst, src in staged:
                values = out[first:first + len(tensor.roots)]
                vals[dst] = tensor.contract(values, contracted)[src]
            lhs, rhs = vals[0::2], vals[1::2]
            residual = np.maximum.reduceat(np.abs(lhs - rhs), starts, axis=0)
            # np.maximum propagates nan, so the largest |side| is finite
            # exactly where every side is
            big = np.maximum.reduceat(np.maximum(np.abs(lhs), np.abs(rhs)), starts, axis=0)
            scale = np.maximum(1.0, big)
            value = residual / scale
            over = np.isinf(residual)
            if over.any():
                s = np.repeat(scale, counts, axis=0)
                value[over] = np.maximum.reduceat(np.abs(lhs / s - rhs / s), starts, axis=0)[over]
            scaled[:, lo:lo + width] = value
            finite[:, lo:lo + width] = np.isfinite(big)
    return finite, scaled


def _held_rows(exprs: list) -> dict[int, int]:
    """Rows of values a chunk holds per point besides the sides in exprs,
    by the id of what holds them: each distinct staged tensor's roots,
    which follow the sides among the roots (_prepared), and each Haantjes
    tensor's torsion components.

    A Haantjes contraction holds arrays of d^3 rows besides the roots'
    values.  Its torsion's components count with the roots, as they did
    when they were roots, so its chunks stay about as wide as then.
    _prepared sizes the chunks by the sides plus these rows, and
    run_suites merges batches by the same count."""
    held: dict[int, int] = {}
    for e in exprs:
        if isinstance(e, Expr):
            continue
        held[id(e.tensor.roots)] = len(e.tensor.roots)
        if isinstance(e.tensor, HaantjesTensor):
            held[id(e.tensor.torsion)] = len(e.tensor.torsion.constants)
    return held


def _prepared(exprs: list, npts: int) -> tuple[Program, list, int]:
    """The sides in exprs made ready for _scaled_residuals on npts points:
    the Program of their roots, compiled for chunks of as many of the
    points as keep the sides and _held_rows within REGISTER_BUDGET floats
    (one point at least), how to fill the rows of their staged entries,
    and the number of sides.

    A staged entry's row holds ZERO among the roots and is overwritten
    after evaluation.  Each distinct list of tensor roots (the torsion and
    Haantjes tensors of one N share theirs) follows the sides once.  The
    entries come back in groups of one tensor: (tensor, its first root
    row, rows to fill, the contraction's rows they take)."""
    roots = [e if isinstance(e, Expr) else ZERO for e in exprs]
    placed: dict[int, int] = {}  # id of a root list -> its first root
    groups: dict[int, tuple] = {}
    for r, e in enumerate(exprs):
        if isinstance(e, Expr):
            continue
        if id(e.tensor.roots) not in placed:
            placed[id(e.tensor.roots)] = len(roots)
            roots.extend(e.tensor.roots)
        _, dst, src = groups.setdefault(id(e.tensor), (e.tensor, [], []))
        dst.append(r)
        src.append(e.row)
    staged = [
        (tensor, placed[id(tensor.roots)], np.array(dst), np.array(src))
        for tensor, dst, src in groups.values()
    ]
    width = max(1, expr.REGISTER_BUDGET // (len(exprs) + sum(_held_rows(exprs).values())))
    width = -(-npts // -(-npts // width))  # even chunks
    return Program(roots, width), staged, len(exprs)


def component_pairs(lhs, rhs) -> list[tuple[Expr, Expr]]:
    """Align two field objects of the same kind (rhs may be None for zero)
    into flat (lhs, rhs) expression pairs over the union of components."""
    if isinstance(lhs, Expr):
        if rhs is None:
            rhs = ZERO
        if not isinstance(rhs, Expr):
            raise TypeError("kind mismatch: expression versus " + type(rhs).__name__)
        return [(lhs, rhs)]
    if isinstance(lhs, (list, tuple)) and all(isinstance(e, Expr) for e in lhs):
        if rhs is None:
            return [(e, ZERO) for e in lhs]
        if not isinstance(rhs, (list, tuple)) or len(rhs) != len(lhs):
            raise TypeError("kind mismatch: scalar lists of different shape")
        return list(zip(lhs, rhs))
    if isinstance(lhs, VectorField):
        if rhs is None:
            return [(c, ZERO) for c in lhs.components]
        if not isinstance(rhs, VectorField) or rhs.chart != lhs.chart:
            raise TypeError("kind mismatch: vector field expected on both sides")
        return list(zip(lhs.components, rhs.components))
    if isinstance(lhs, KForm):
        if rhs is None:
            rhs = zero_kform(lhs.chart, lhs.degree)
        if not isinstance(rhs, KForm) or rhs.degree != lhs.degree or rhs.chart != lhs.chart:
            raise TypeError("kind mismatch: forms must share chart and degree")
        keys = sorted(set(lhs.components) | set(rhs.components))
        return [
            (lhs.components.get(k, ZERO), rhs.components.get(k, ZERO)) for k in keys
        ]
    if isinstance(lhs, Endomorphism):
        if rhs is not None and (
            not isinstance(rhs, Endomorphism) or rhs.chart != lhs.chart
        ):
            raise TypeError("kind mismatch: endomorphism expected on both sides")
        out = []
        dim = lhs.chart.dim
        for i in range(dim):
            for j in range(dim):
                r = ZERO if rhs is None else rhs.matrix[i][j]
                out.append((lhs.matrix[i][j], r))
        return out
    if isinstance(lhs, StagedTensor):
        if rhs is not None:
            raise TypeError("a staged tensor is compared with zero only")
        return [(e, ZERO) for e in lhs.entries()]
    raise TypeError(f"cannot compare objects of type {type(lhs).__name__}")


def check_identity(name, lhs, rhs, plan, tol, detail: str = "") -> CheckReport:
    """Sampled identity check between two field objects of matching kind;
    rhs None stands for the zero object."""
    return run_checks([(name, component_pairs(lhs, rhs), detail)], plan, tol)[0]


def _identity(name: str, lhs, rhs=None) -> tuple[str, list[tuple[Expr, Expr]], str]:
    """check_identity's check as a run_checks triple."""
    return name, component_pairs(lhs, rhs), ""


def _run_in_order(entries: list, plan: SamplePlan, tol: float) -> list[CheckReport]:
    """Reports for entries that are run_checks triples or reports already
    decided, in order, with the triples settled in one run_checks batch
    (none when there are no triples)."""
    checks = [e for e in entries if not isinstance(e, CheckReport)]
    settled = iter(run_checks(checks, plan, tol) if checks else ())
    return [e if isinstance(e, CheckReport) else next(settled) for e in entries]


def xi_form(pi: Bivector, volume: KForm) -> KForm:
    """The one-form dual to a bivector on an oriented 3d chart."""
    return star(pi, volume)


def verify_poisson(st: Structure, plan: SamplePlan, tol: float, kmax: int) -> list:
    """Jacobi identity on coordinate triples; on an oriented 3d chart also
    the integrability of the dual one-form and that the sharp map kills it."""
    pi = st.pi
    checks = [("poisson.jacobi", [(side, ZERO) for side in jacobi_sides(pi)], "")]
    if st.volume is not None and pi.chart.dim == 3:
        xi = xi_form(pi, st.volume)
        checks.append(_identity("poisson.integrability", wedge(xi, d(xi))))
        checks.append(_identity("poisson.sharp_annihilates_xi", sharp(pi, xi)))
    return checks


@per_verdict
def _compatibility_pairs(pi: Bivector, n: Endomorphism):
    """Component pairs of the two compatibility conditions shared by the
    PN and PqN bundles: N o P# is skew, and the concomitant vanishes."""
    chart = pi.chart
    c1 = []
    for j in range(chart.dim):
        dxj = basis_oneform(chart, j)
        lhs = apply_endomorphism(n, sharp(pi, dxj))
        rhs = sharp(pi, dual_apply(n, dxj))
        c1.extend(zip(lhs.components, rhs.components))
    c2 = []
    for form in concomitant(pi, n).values():
        c2.extend(component_pairs(form, None))
    return tuple(c1), tuple(c2)


def verify_pn(st: Structure, plan: SamplePlan, tol: float, kmax: int) -> list:
    """Both compatibility conditions plus a vanishing torsion check."""
    c1, c2 = _compatibility_pairs(st.pi, st.n)
    torsion = _identity("pn.torsion", nijenhuis_torsion(st.n))
    return [("pn.C1", c1, ""), ("pn.C2", c2, ""), torsion]


def verify_pqn(st: Structure, plan: SamplePlan, tol: float, kmax: int) -> list:
    """Compatibility, closedness of the 3-form under d and under the
    induced derivation, and the prescribed-torsion condition."""
    pi, n, phi = st.pi, st.n, st.phi
    chart = pi.chart
    if phi.degree != 3:
        raise ValueError("the structure form must have degree 3")
    c1, c2 = _compatibility_pairs(pi, n)
    entries = [("pqn.C1", c1, ""), ("pqn.C2", c2, "")]
    if chart.dim > 3:
        entries.append(_identity("pqn.phi_closed", d(phi)))
        entries.append(_identity("pqn.phi_n_closed", d_n(n, phi)))
    else:
        note = "top degree on a 3d chart, closed by type"
        entries.append(CheckReport("pqn.phi_closed", "pass", 0.0, None, 0, tol, note))
        entries.append(CheckReport("pqn.phi_n_closed", "pass", 0.0, None, 0, tol, note))
    t = nijenhuis_torsion(n)
    pairs = []
    for a in range(chart.dim):
        for b in range(a + 1, chart.dim):
            rhs = sharp(
                pi,
                interior_mv([basis_vector(chart, a), basis_vector(chart, b)], phi),
            )
            pairs.extend(zip(t.pair(a, b), rhs.components))
    entries.append(("pqn.torsion_prescribed", pairs, ""))
    return entries


def reconstruct_decomposition(
    n: Endomorphism, xi: KForm, plan: SamplePlan
) -> tuple[Expr, VectorField] | None:
    """Symbolic candidate (lam, Z) with N = lam I + Z (x) xi.

    Index choices are made numerically at the first plan point where xi
    does not vanish; the returned expressions are exact on the open set
    where that choice stays valid, and sampling handles the rest.  None
    when xi vanishes at every probe point.
    """
    chart = n.chart
    dim = chart.dim
    xicomp = [xi.component(i) for i in range(dim)]
    probe = evaluate_batch(xicomp, point_block(plan, 0, plan.count + plan.resample_limit))
    usable = np.isfinite(probe).all(axis=0) & (np.abs(probe).max(axis=0) > 1e-12)
    if not usable.any():
        return None
    vals = probe[:, int(np.argmax(usable))].tolist()
    j = max(range(dim), key=lambda t: (abs(vals[t]), -t))
    k = min(t for t in range(dim) if t != j)
    # e = xi_j d_k - xi_k d_j annihilates xi, so applying N to it
    # isolates lam; the j-th column then yields Z.
    lam = div(
        sub(mul(n.matrix[k][k], xicomp[j]), mul(n.matrix[k][j], xicomp[k])),
        xicomp[j],
    )
    zcomps = tuple(
        div(sub(n.matrix[i][j], lam if i == j else ZERO), xicomp[j])
        for i in range(dim)
    )
    return lam, VectorField(chart, zcomps)


def _split(
    n: Endomorphism, xi: KForm, plan: SamplePlan, lam: Expr | None, z: VectorField | None
) -> tuple[Expr, VectorField] | None:
    """(lam, Z) when both are given, else reconstructed from N and xi."""
    if lam is not None and z is not None:
        return lam, z
    return reconstruct_decomposition(n, xi, plan)


def _xi_on_pairs(xi: KForm) -> dict:
    """i_xi (d_a ^ d_b) on the coordinate pairs a < b of a 3d chart."""
    chart = xi.chart
    return {
        (a, b): interior_form_on_bivectorfield(
            xi, basis_vector(chart, a), basis_vector(chart, b)
        )
        for a, b in combinations(range(3), 2)
    }


def _torsion_closed_form_pairs(
    torsion: TorsionTensor, xi: KForm, ds: KForm, z: VectorField, zlam: Expr
) -> list[tuple[Expr, Expr]]:
    """Component pairs of the torsion of N = lam I + Z (x) xi on a 3d chart
    against its closed form

        T_N(d_a, d_b) = (xi ^ ds)(d_a, d_b) Z + Z(lam) i_xi (d_a ^ d_b),

    where ds is the differential of lam + <xi, Z> and zlam is Z(lam)."""
    chart = xi.chart
    xids = wedge(xi, ds)
    pairs = []
    for (a, b), ixi in _xi_on_pairs(xi).items():
        term1 = scale_vector(xids.component(a, b), z)
        term2 = scale_vector(zlam, ixi)
        rhs = VectorField(
            chart, tuple(add(u, v) for u, v in zip(term1.components, term2.components))
        )
        pairs.extend(zip(torsion.pair(a, b), rhs.components))
    return pairs


def verify_3d_conditions(st: Structure, plan: SamplePlan, tol: float, kmax: int) -> list:
    """Structure conditions specific to oriented 3d charts: the rank-one
    split of N, the divergence equation coupling its ingredients, the
    volume multiple giving the 3-form, and the closed form of the torsion.

    When the structure carries no lam and Z they are reconstructed from N
    and the dual one-form; all four checks are skipped if that fails.
    """
    pi, n, phi, volume = st.pi, st.n, st.phi, st.volume
    chart = pi.chart
    if chart.dim != 3:
        raise ValueError("these conditions are specific to 3d charts")
    xi = xi_form(pi, volume)
    names = (
        "3d.decomposition",
        "3d.compatibility_pde",
        "3d.phi_value",
        "3d.torsion_closed_form",
    )
    split = _split(n, xi, plan, st.lam, st.z)
    if split is None:
        note = "the dual one-form vanishes at every probe point; no split available"
        return [_skip(nm, tol, note) for nm in names]
    lam, z = split
    model = add_endomorphisms(
        scale_endomorphism(lam, identity_endomorphism(chart)), tensor_product(z, xi)
    )
    checks = [_identity(names[0], n, model)]
    ds = d_scalar(chart, add(lam, pairing(xi, z)))
    checks.append(_identity(names[1], ds, scale_kform(divergence(z, volume), xi)))
    zlam = pairing(d_scalar(chart, lam), z)
    if phi is None:
        phi = zero_kform(chart, 3)
    model_phi = KForm(chart, 3, {(0, 1, 2): neg(mul(zlam, volume.component(0, 1, 2)))})
    checks.append(_identity(names[2], phi, model_phi))
    pairs = _torsion_closed_form_pairs(nijenhuis_torsion(n), xi, ds, z, zlam)
    checks.append((names[3], pairs, ""))
    return checks


def _theta_on_torsion(theta: KForm, n: Endomorphism) -> list[tuple[Expr, Expr]]:
    """The pairs <theta, T_N(d_j, d_k)> = 0 for j < k, read from the
    expansion of N's staged torsion."""
    t = nijenhuis_torsion(n).expression()
    return [(pairing(theta, VectorField(n.chart, tuple(ti.component(j, k) for ti in t))), ZERO)
            for j, k in combinations(range(n.chart.dim), 2)]


def verify_haantjes_structure(st: Structure, plan: SamplePlan, tol: float, kmax: int) -> list:
    """The four defining conditions for a compatible pair of an
    endomorphism and a closed one-form."""
    n, theta = st.n, st.theta
    if theta.degree != 1:
        raise ValueError("the structure one-form must have degree 1")
    return [
        _identity("haantjes.H1_tensor_vanishes", haantjes_tensor(n)),
        _identity("haantjes.H2_theta_closed", d(theta)),
        _identity("haantjes.H3_theta_n_closed", d_n(n, theta)),
        ("haantjes.H4_torsion_annihilated", _theta_on_torsion(theta, n), ""),
    ]


def verify_lm_chain(st: Structure, plan: SamplePlan, tol: float, kmax: int) -> list:
    """Chain conditions for a family N_0, N_1, ... with a one-form theta:
    the family starts at the identity (and continues with the structure's
    N when it has one), every later member has vanishing Haantjes tensor,
    members commute, theta is closed for every member's derivation, and
    theta annihilates every torsion.

    Closedness of the product forms N_i* N_j* theta is reported separately
    under chain.product_closed; for a genuine chain it is a consequence of
    the conditions, not one of them.
    """
    chain, theta, n = tuple(st.chain), st.theta, st.n
    if not chain:
        raise ValueError("chain must contain at least one endomorphism")
    chart = chain[0].chart
    c0_pairs = component_pairs(chain[0], identity_endomorphism(chart))
    if n is not None and len(chain) > 1:
        c0_pairs.extend(component_pairs(chain[1], n))
    checks = [("chain.C0_first_terms", c0_pairs, "")]
    for i in range(1, len(chain)):
        checks.append(_identity(f"chain.C1_haantjes[{i}]", haantjes_tensor(chain[i])))
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            checks.append(
                _identity(
                    f"chain.C2_commute[{i},{j}]",
                    compose(chain[i], chain[j]),
                    compose(chain[j], chain[i]),
                )
            )
    for i, ni in enumerate(chain):
        checks.append(_identity(f"chain.C3_theta_closed[{i}]", d_n(ni, theta)))
    for i in range(1, len(chain)):
        pairs = _theta_on_torsion(theta, chain[i])
        checks.append((f"chain.C4_torsion_annihilated[{i}]", pairs, ""))
    for i in range(len(chain)):
        for j in range(i, len(chain)):
            theta_ij = dual_apply(chain[i], dual_apply(chain[j], theta))
            checks.append(_identity(f"chain.product_closed[{i},{j}]", d(theta_ij)))
    return checks


def verify_minpoly(st: Structure, plan: SamplePlan, tol: float, kmax: int) -> list:
    """The quadratic polynomial annihilating a scalar-plus-rank-one
    endomorphism: N^2 - (s + 2 lam) N + (lam^2 + s lam) I with
    s = <xi, Z>.  When the structure carries no lam and Z they are
    reconstructed from N and xi; the suite is skipped if that fails."""
    n = st.n
    xi = xi_form(st.pi, st.volume)
    split = _split(n, xi, plan, st.lam, st.z)
    if split is None:
        note = "no split data and reconstruction found no usable point"
        return [_skip("minpoly.skipped", tol, note)]
    lam, z = split
    chart = n.chart
    s = pairing(xi, z)
    coeff1 = add(s, mul(constant(2.0), lam))
    coeff0 = add(intpow(lam, 2), mul(s, lam))
    model = add_endomorphisms(
        sub_endomorphisms(compose(n, n), scale_endomorphism(coeff1, n)),
        scale_endomorphism(coeff0, identity_endomorphism(chart)),
    )
    return [_identity("minpoly.quadratic_annihilator", model)]


def _bracket_from_differentials(pi: Bivector, df: KForm, dg: KForm) -> Expr:
    """The bracket of two functions written on their differentials.

    Built so the two products of each summand share their factor subtrees;
    when df and dg are the same object the summands cancel exactly in
    floating point, making diagonal involutivity residuals literal zeros.
    """
    acc = ZERO
    for (a, b), p in pi.components.items():
        fa = df.components.get((a,), ZERO)
        fb = df.components.get((b,), ZERO)
        ga = dg.components.get((a,), ZERO)
        gb = dg.components.get((b,), ZERO)
        acc = add(acc, mul(p, sub(mul(fa, gb), mul(fb, ga))))
    return acc


def verify_recursion_involutivity(st: Structure, plan: SamplePlan, tol: float, kmax: int) -> list:
    """The recursion between consecutive trace invariants, the
    bracket-difference identity it implies, and one check per cell (i, j),
    i <= j, of the involutivity table of the invariants up to kmax, named
    involutivity.pair[i,j].

    With I_k = Tr(N^k)/(2k) and the one-forms of the phi sequence taken
    in the first slot of the torsion, the recursion reads

        dI_{k+1} = N* dI_k - phi_{k-1}

    for every endomorphism field N; the minus sign is forced by the
    trace computation (expand Tr(N^{k-1} i_X T_N) in coordinates and the
    two mixed derivative sums cancel).  Together with the first
    compatibility condition it yields

        {I_k, I_j} - {I_{k-1}, I_{j+1}}
            = <phi_{j-1}, pi# dI_{k-1}> + <phi_{k-2}, pi# dI_j>

    for k > j >= 1.  Both forms were cross-checked numerically on a
    compatible, non-involutive pair, where every term is nonzero.
    """
    if kmax < 2:
        raise ValueError("kmax must be at least 2")
    pi, n = st.pi, st.n
    dinv = {k: d_invariant(n, k) for k in range(1, kmax + 1)}
    phis = {s: phi_sequence_term(n, s) for s in range(kmax)}
    sharps = {k: sharp(pi, dinv[k]) for k in dinv}
    checks = []
    for k in range(1, kmax):
        model = sub_kforms(dual_apply(n, dinv[k]), phis[k - 1])
        checks.append(_identity(f"recursion.step[{k}]", dinv[k + 1], model))
    for k in range(2, kmax + 1):
        for j in range(1, k):
            lhs = sub(
                _bracket_from_differentials(pi, dinv[k], dinv[j]),
                _bracket_from_differentials(pi, dinv[k - 1], dinv[j + 1]),
            )
            rhs = add(
                pairing(phis[j - 1], sharps[k - 1]),
                pairing(phis[k - 2], sharps[j]),
            )
            checks.append((f"recursion.bracket_difference[{k},{j}]", [(lhs, rhs)], ""))
    for i in range(1, kmax + 1):
        for j in range(i, kmax + 1):
            bracket = _bracket_from_differentials(pi, dinv[i], dinv[j])
            checks.append((f"involutivity.pair[{i},{j}]", [(bracket, ZERO)], ""))
    return checks


def verify_theo_inv(st: Structure, plan: SamplePlan, tol: float, kmax: int) -> list:
    """The two sufficient involutivity conditions tied to a 2-form: the
    3-form factors through it against the differential of the first trace
    invariant, and it pairs to zero on the deficiency fields of the
    recursion up to kmax."""
    pi, n, phi, omega = st.pi, st.n, st.phi, st.omega
    if omega.degree != 2:
        raise ValueError("expected a 2-form")
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    di1 = d_invariant(n, 1)
    lhs = add_kforms(phi, scale_kform(constant(2.0), wedge(di1, omega)))
    checks = [_identity("theoinv.factorization", lhs)]
    xs = {k: sharp(pi, d_invariant(n, k)) for k in range(1, kmax + 1)}
    # the deficiency fields y_k = N^{k-1} X_1 - X_k
    ys = {
        k: sub_vectors(apply_endomorphism(power(n, k - 1), xs[1]), xs[k])
        for k in range(1, kmax + 1)
    }
    pairs = []
    for j in range(1, kmax + 1):
        for k in range(1, kmax + 1):
            val = ZERO
            for (a, b), e in omega.components.items():
                val = add(
                    val,
                    mul(
                        e,
                        sub(
                            mul(xs[j].components[a], ys[k].components[b]),
                            mul(xs[j].components[b], ys[k].components[a]),
                        ),
                    ),
                )
            pairs.append((val, ZERO))
    checks.append(("theoinv.obstruction_pairings", pairs, ""))
    return checks


@dataclass(frozen=True)
class DeformationResult:
    n_tilde: Endomorphism
    phi_tilde: KForm
    reports: list[CheckReport]
    derivative_term_sign: int | None


def deform_3d(
    pi: Bivector,
    n: Endomorphism,
    phi: KForm | None,
    omega: KForm,
    plan: SamplePlan,
    tol: float,
) -> DeformationResult:
    """Deform (pi, N, phi) by a closed 2-form on a canonically oriented 3d
    chart: the new endomorphism adds the sharp-flat composite, the new
    3-form adds the derivation of omega plus a quadratic correction that
    is only available in the normal form where the bivector is the plain
    first-two-coordinates one.  Violating that normal form, or passing a
    non-closed omega, raises ValueError.

    When N is structurally g * d_3 (x) dx_3, the sign with which the
    z-derivative of the omega coefficient enters the derivation term is
    probed numerically and reported under deform.derivative_term_sign.
    """
    chart = pi.chart
    if chart.dim != 3:
        raise ValueError("deformation in this normal form needs a 3d chart")
    if omega.degree != 2:
        raise ValueError("expected a 2-form")
    canonical = set(pi.components) == {(0, 1)} and is_one(pi.components[(0, 1)])
    if not canonical:
        raise ValueError(
            "deformation needs the bivector with single component 1 on the first coordinate pair"
        )
    closed = check_identity("deform.omega_closed", d(omega), None, plan, tol)
    if closed.status != "pass":
        raise ValueError(
            f"the 2-form is not closed (scaled residual {closed.max_scaled_residual})"
        )
    if phi is None:
        phi = zero_kform(chart, 3)
    n_tilde = add_endomorphisms(n, sharp_flat(pi, omega))
    dno = d_n(n, omega)
    o01 = omega.components.get((0, 1), ZERO)
    o02 = omega.components.get((0, 2), ZERO)
    o12 = omega.components.get((1, 2), ZERO)
    quad = add(
        sub(mul(o12, derive(o01, 0)), mul(o02, derive(o01, 1))),
        mul(o01, derive(o01, 2)),
    )
    phi_tilde = add_kforms(add_kforms(phi, dno), KForm(chart, 3, {(0, 1, 2): quad}))
    reports = [closed]
    sign: int | None = None
    rank_one_form = all(
        is_zero(n.matrix[i][j]) for i in range(3) for j in range(3) if (i, j) != (2, 2)
    )
    if rank_one_form:
        g = n.matrix[2][2]
        lhs = dno.components.get((0, 1, 2), ZERO)
        probe_plus, probe_minus = run_checks(
            [
                ("deform.sign_probe_plus", [(lhs, mul(g, derive(o01, 2)))], ""),
                ("deform.sign_probe_minus", [(lhs, neg(mul(g, derive(o01, 2))))], ""),
            ],
            plan,
            tol,
        )
        if probe_plus.status == "pass" and probe_minus.status != "pass":
            sign = 1
        elif probe_minus.status == "pass" and probe_plus.status != "pass":
            sign = -1
        if sign is not None:
            chosen = probe_plus if sign > 0 else probe_minus
            reports.append(
                CheckReport(
                    "deform.derivative_term_sign",
                    "pass",
                    chosen.max_scaled_residual,
                    chosen.worst_point,
                    chosen.samples_used,
                    tol,
                    "the z-derivative of the top omega coefficient enters the "
                    f"derivation term with sign {'+' if sign > 0 else '-'}1",
                )
            )
        elif probe_plus.status == "pass" and probe_minus.status == "pass":
            reports.append(
                _skip(
                    "deform.derivative_term_sign",
                    tol,
                    "probe indeterminate: the term vanishes on the box",
                )
            )
        else:
            reports.append(
                CheckReport(
                    "deform.derivative_term_sign",
                    "fail",
                    probe_plus.max_scaled_residual,
                    probe_plus.worst_point,
                    plan.count,
                    tol,
                    "neither sign matches the derivation term",
                )
            )
    entries = verify_pqn(Structure(chart, pi=pi, n=n_tilde, phi=phi_tilde), plan, tol, kmax=5)
    deformed = _run_in_order(entries, plan, tol)
    reports.extend(replace(r, name=f"deform.{r.name}") for r in deformed)
    return DeformationResult(n_tilde, phi_tilde, reports, sign)


def _f_poly(lam: Expr, s: Expr, k: int) -> Expr:
    """Binomial-sum coefficient turning the k-th power of a
    scalar-plus-rank-one endomorphism back into rank-one form."""
    acc = ZERO
    for l in range(k):
        acc = add(
            acc,
            mul(constant(float(comb(k, l))), mul(intpow(lam, l), intpow(s, k - l - 1))),
        )
    return acc


# The battery checks its power identities on N^1 .. N^_KPOW.
_KPOW = 5


def run_identity_battery(structure: Structure, plan: SamplePlan, tol: float, kmax: int) -> list:
    """One named check per closed-form identity of the scalar-plus-rank-one
    N = lam I + Z (x) xi on an oriented 3d chart: its powers, its torsion
    in general and compatibility form, the torsions of its powers, the
    scaling of xi as an eigenform of N and of its powers, and its phi
    sequence.  Each states something of the structure's own lam, Z and N;
    on a structure without them every check is reported as skipped."""
    chart = structure.chart
    threed_ready = (
        chart.dim == 3
        and structure.pi is not None
        and structure.volume is not None
        and structure.n is not None
        and structure.lam is not None
        and structure.z is not None
    )
    threed_names = (
        "battery.power_decomposition",
        "battery.torsion_general_form",
        "battery.torsion_compatibility_form",
        "battery.torsion_power_form",
        "battery.eigenform_scaling",
        "battery.eigenform_power_scaling",
        "battery.phi_sequence_closed_form",
    )
    if not threed_ready:
        note = "needs a 3d chart with bivector, volume, endomorphism and split data"
        return [_skip(nm, tol, note) for nm in threed_names]
    lam, z, n = structure.lam, structure.z, structure.n
    xi = xi_form(structure.pi, structure.volume)
    s = pairing(xi, z)
    zlam = pairing(d_scalar(chart, lam), z)
    entries = []

    pairs = []
    for k in range(1, _KPOW + 1):
        model = add_endomorphisms(
            scale_endomorphism(intpow(lam, k), identity_endomorphism(chart)),
            scale_endomorphism(_f_poly(lam, s, k), tensor_product(z, xi)),
        )
        pairs.extend(component_pairs(power(n, k), model))
    entries.append((threed_names[0], pairs, ""))

    ds = d_scalar(chart, add(lam, s))
    pairs = _torsion_closed_form_pairs(nijenhuis_torsion(n), xi, ds, z, zlam)
    entries.append((threed_names[1], pairs, ""))

    pairs = []
    for (a, b), ixi in _xi_on_pairs(xi).items():
        rhs = scale_vector(zlam, ixi)
        pairs.extend(zip(nijenhuis_torsion(n).pair(a, b), rhs.components))
    entries.append((threed_names[2], pairs, ""))

    pairs = []
    for k in range(1, _KPOW + 1):
        t = nijenhuis_torsion(power(n, k))
        coeff = mul(_f_poly(lam, s, k), pairing(d_scalar(chart, intpow(lam, k)), z))
        for (a, b), ixi in _xi_on_pairs(xi).items():
            rhs = scale_vector(coeff, ixi)
            pairs.extend(zip(t.pair(a, b), rhs.components))
    entries.append((threed_names[3], pairs, ""))

    eig = add(lam, s)
    entries.append(
        _identity(threed_names[4], interior_endomorphism(n, xi), scale_kform(eig, xi))
    )
    pairs = []
    for k in range(1, _KPOW + 1):
        pairs.extend(
            component_pairs(
                interior_endomorphism(power(n, k), xi), scale_kform(intpow(eig, k), xi)
            )
        )
    entries.append((threed_names[5], pairs, ""))

    pairs = []
    for k in range(_KPOW):
        lhs = phi_sequence_term(n, k)
        rhs = scale_kform(mul(zlam, intpow(lam, k)), xi)
        pairs.extend(component_pairs(lhs, rhs))
    entries.append((threed_names[6], pairs, ""))
    return entries


def _present(st: Structure, member: str):
    if member == "3d chart":
        return st.chart if st.chart.dim == 3 else None
    return getattr(st, member)


def _missing(tol: float, suite: str, members: dict) -> list[CheckReport]:
    absent = sorted(name for name, value in members.items() if value is None)
    return [_skip(f"{suite}.skipped", tol, "missing members: " + ", ".join(absent))]


# suite -> (members it needs, name of its builder).  A builder takes
# (structure, plan, tol, kmax) and returns the suite's batch: a list of
# run_checks triples and reports already decided, in report order.  A
# builder is looked up on the module when called, so one rebound there, as
# a tracer or a test rebinds it, is the one called.  "3d chart" is a
# pseudo-member, present on three-dimensional charts.
_SUITE_TABLE = {
    "poisson": (("pi",), "verify_poisson"),
    "pn": (("pi", "n"), "verify_pn"),
    "pqn": (("pi", "n", "phi"), "verify_pqn"),
    "3d": (("pi", "n", "volume", "3d chart"), "verify_3d_conditions"),
    "haantjes": (("n", "theta"), "verify_haantjes_structure"),
    "chain": (("chain", "theta"), "verify_lm_chain"),
    "recursion": (("pi", "n"), "verify_recursion_involutivity"),
    "minpoly": (("pi", "n", "volume", "3d chart"), "verify_minpoly"),
    "theoinv": (("pi", "n", "phi", "omega"), "verify_theo_inv"),
    "battery": ((), "run_identity_battery"),
}
SUITES = tuple(_SUITE_TABLE)


def _suite_batches(structure: Structure, plan: SamplePlan, tol: float, suites, kmax: int):
    """The named suites' batches in table order, each built when it is
    asked for."""
    for suite, (members, builder) in _SUITE_TABLE.items():
        if suite not in suites:
            continue
        have = {m: _present(structure, m) for m in members}
        if any(value is None for value in have.values()):
            yield _missing(tol, suite, have)
        else:
            yield globals()[builder](structure, plan, tol, kmax)


def _groups(batches, count: int):
    """Consecutive batches merged while their triples are evaluated in one
    chunk of count points: while the sides plus their _held_rows, times
    count, stay within REGISTER_BUDGET.  A batch that does not fit starts
    the next group, and a group that alone takes more than one chunk is
    given out at once.  So a group that fits is given out only after the
    batch after it is built and found not to fit."""

    def fits(sides: int, held: dict) -> bool:
        return (sides + sum(held.values())) * count <= expr.REGISTER_BUDGET

    group: list = []
    sides, held = 0, {}
    for batch in batches:
        exprs = [e for entry in batch if not isinstance(entry, CheckReport)
                 for pair in entry[1] for e in pair]
        more = _held_rows(exprs)
        if group and not fits(sides + len(exprs), {**held, **more}):
            yield group
            group, sides, held = [], 0, {}
        group += batch
        sides += len(exprs)
        held.update(more)
        if not fits(sides, held):
            yield group
            group, sides, held = [], 0, {}
    if group:
        yield group


def run_suites(
    structure: Structure,
    plan: SamplePlan,
    tol: float,
    suites=None,
    kmax: int = 5,
) -> list[CheckReport]:
    """Dispatch the named suites against whatever members the structure
    carries; a suite whose members are absent contributes one skipped
    report naming them, and an unknown suite name raises ValueError,
    which lists the available ones.

    The suites are built in table order.  Consecutive batches merge while
    the merged batch is evaluated in one chunk of the plan's points; a
    batch that does not fit settles the pending group through run_checks
    and starts the next, and a batch that alone takes more than one chunk
    is settled alone (_groups).  The grouping depends only on the batches'
    sizes and the point count, and changes no report.

    Empties the expression tables on return, so the nodes one verdict
    builds are not held for the next."""
    if suites is None:
        suites = SUITES
    unknown = [s for s in suites if s not in SUITES]
    if unknown:
        raise ValueError(
            f"unknown suites: {', '.join(sorted(unknown))}; available: {', '.join(SUITES)}"
        )
    reports: list[CheckReport] = []
    try:
        for group in _groups(_suite_batches(structure, plan, tol, suites, kmax), plan.count):
            reports += _run_in_order(group, plan, tol)
    finally:
        clear_tables()
    return reports
