"""Test-only builders and references: random inputs that no verdict needs,
and the node-at-a-time evaluator that the tape replaced."""

import numpy as np

from pqnverify.expr import (
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
    Sin,
    Sqrt,
    Sub,
    _children,
)
from pqnverify.fields import Endomorphism
from pqnverify.verify import random_polynomial


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
