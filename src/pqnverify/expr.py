"""Symbolic scalar expressions over coordinate charts.

A small fixed-function AST: enough to write the component functions that
occur in low-dimensional Poisson geometry (polynomials, rational functions,
exp/log/sin/cos/sqrt), differentiate them exactly, print and re-parse them,
and evaluate them at points. Nodes are immutable and compare by identity;
shared subtrees form a DAG and every traversal here is memoised on node
identity.

Nodes are hash-consed: every node is built through one table, `_TABLE`,
keyed on its class and its fields, with child nodes as keys by identity,
so two structurally equal nodes built since the table was last emptied
are the same object. `derive` memoises into `_DERIVED` on (node,
coordinate index), as do the builders `fields.per_verdict` wraps, on
their arguments. Both tables live for one verdict: `verify.run_suites`
empties them with `clear_tables` when it returns, so a process that
runs many verdicts holds the nodes of one at a time. A node that
outlives a clear stays valid; nodes built after it just do not share
with it.

Building a node also records it on a tape (a Wengert list), in one step:
a constructor per arity looks the node up and, on a miss, builds it and
appends its level (height above the leaves) and opcode, the tape indices
of its children, and its constant value, coordinate index or exponent to
flat `array` columns. Children are built first, so tape order is a
topological order. `clear_tables` truncates the tape to ZERO and ONE; a
node from before the clear, or built by calling its class directly, is
recorded again through the same append, children first, when used.

`evaluate_batch` runs the tape. It finds the entries its roots reach (a
walk in Python for the first few hundred, then a numpy frontier sweep),
sorts them by (level, opcode, exponent) into groups, and gives each group
a contiguous range of rows in a register array: first-fit, and given back
piece by piece after the last group that reads it, unless one register
per value fits in an eighth of `REGISTER_BUDGET`. Then, per block of
points, each group gathers its operands with one `take` each and runs one
ufunc into its rows. A block is as wide as `REGISTER_BUDGET` floats allow
for the registers and operand buffers the call needs. Every value is the
ufunc a node-at-a-time evaluation would apply, on the same operand
values, so the output is bit-identical to one whatever the grouping or
block width. The one exception is which nan an operation on two nans
returns, which depends on whether numpy's SIMD loop or its scalar tail
computes the element. `evaluate` runs the same tape on a one-row array.
A `Program` is a tuple of roots holding their schedule, compiled for
calls of up to a number of points. `evaluate_batch` runs one as it is,
so a caller that evaluates the same roots on successive chunks or rounds
of points schedules them once. It compiles other roots for the call, as
it does a Program on more points or from before the last `clear_tables`.

The points come from a `SamplePlan`: a seed, a count and a box. splitmix64
is counter based: with gamma = 0x9E3779B97F4A7C15, output k (from 0) of
the stream seeded s is mix(s + (k + 1) * gamma mod 2^64), where mix is the
generator's finaliser (two xor-shift-multiply rounds and a final
xor-shift, all mod 2^64). On a chart of dimension dim, coordinate c of
point j is output j * dim + c mapped to lo + (hi - lo) * (output / 2^64),
so `point_block` computes any point of the stream directly, without
replaying the outputs before it.
"""
from __future__ import annotations

import math
from array import array
from bisect import bisect
from dataclasses import dataclass

_RESERVED_NAMES = ("cos", "exp", "log", "sin", "sqrt")


class ExprError(ValueError):
    """Malformed expression text or invalid expression construction.

    For parse failures `offset` is the byte offset into the source string.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (offset {offset})"
        super().__init__(message)
        self.offset = offset


@dataclass(frozen=True)
class Chart:
    """An ordered tuple of coordinate names; all field objects carry one."""

    coord_names: tuple[str, ...]

    def __post_init__(self):
        names = tuple(self.coord_names)
        object.__setattr__(self, "coord_names", names)
        if not names:
            raise ExprError("chart needs at least one coordinate")
        for nm in names:
            if not isinstance(nm, str) or not nm.isidentifier():
                raise ExprError(f"coordinate name {nm!r} is not an identifier")
            if nm in _RESERVED_NAMES:
                raise ExprError(f"coordinate name {nm!r} shadows a function name")
        if len(set(names)) != len(names):
            raise ExprError("coordinate names must be pairwise distinct")

    @property
    def dim(self) -> int:
        return len(self.coord_names)

    def index(self, name: str) -> int:
        try:
            return self.coord_names.index(name)
        except ValueError:
            raise ExprError(f"unknown coordinate {name!r}") from None

    def coords(self) -> tuple["Expr", ...]:
        """The coordinate functions themselves, as expressions."""
        return tuple(coord(i) for i in range(self.dim))


class Expr:
    """Base expression node. Arithmetic operators build new nodes."""

    __slots__ = ("_slot",)  # set when the node is recorded on the tape

    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, exponent):
        return intpow(self, exponent)


@dataclass(frozen=True, eq=False, slots=True)
class Constant(Expr):
    value: float


@dataclass(frozen=True, eq=False, slots=True)
class Coord(Expr):
    index: int


@dataclass(frozen=True, eq=False, slots=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True, eq=False, slots=True)
class Add(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True, eq=False, slots=True)
class Sub(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True, eq=False, slots=True)
class Mul(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True, eq=False, slots=True)
class Div(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True, eq=False, slots=True)
class IntPow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True, eq=False, slots=True)
class Exp(Expr):
    arg: Expr


@dataclass(frozen=True, eq=False, slots=True)
class Log(Expr):
    arg: Expr


@dataclass(frozen=True, eq=False, slots=True)
class Sin(Expr):
    arg: Expr


@dataclass(frozen=True, eq=False, slots=True)
class Cos(Expr):
    arg: Expr


@dataclass(frozen=True, eq=False, slots=True)
class Sqrt(Expr):
    arg: Expr


# The hash-consing table: (class, *fields) -> node, with a Constant keyed
# on (value, sign of value) alone so that 0.0 and -0.0 stay distinct.
_TABLE: dict[tuple, Expr] = {}
# The memo of derive and of the builders fields.per_verdict wraps.
_DERIVED: dict[tuple, object] = {}

# The tape: one entry per node, appended as the node is built.
# _TAPE_KEY holds level << 4 | opcode, the level being the height above
# the leaves, so that sorting by key groups entries by level, then
# opcode.  Opcodes are ordered so that one at or above _OP_NEG has a child
# and one at or above _OP_ADD a second child.  _TAPE_KIDS holds two tape
# indices per entry: leaves repeat their own and unary nodes their one
# child's, so both are always indices.  _TAPE_VAL holds a constant's
# value, a coordinate's index or an integer power's exponent.
(_OP_CONST, _OP_COORD, _OP_NEG, _OP_EXP, _OP_LOG, _OP_SIN, _OP_COS, _OP_SQRT,
 _OP_POW, _OP_ADD, _OP_SUB, _OP_MUL, _OP_DIV) = range(13)
_OPCODE = {
    Constant: _OP_CONST, Coord: _OP_COORD, Neg: _OP_NEG, Exp: _OP_EXP, Log: _OP_LOG,
    Sin: _OP_SIN, Cos: _OP_COS, Sqrt: _OP_SQRT, IntPow: _OP_POW, Add: _OP_ADD,
    Sub: _OP_SUB, Mul: _OP_MUL, Div: _OP_DIV,
}
_TAPE_KEY = array("i")
_TAPE_KIDS = array("i")
_TAPE_VAL = array("d")
_TAPE = (_TAPE_KEY, _TAPE_KIDS, _TAPE_VAL)
_push_key, _push_kid, _push_val = (column.append for column in _TAPE)
_set_slot = object.__setattr__
_copysign = math.copysign
# A node's _slot is _BASE plus its index on the tape.  clear_tables moves
# _BASE past every slot handed out so far, so a slot below _BASE belongs
# to an earlier epoch and its node is recorded again before use.
_BASE = 0


# The constructors per arity.  add, sub, mul and div look their node up
# themselves and call _binary only on a miss.

def _constant(v: float) -> Constant:
    key = (v, _copysign(1.0, v))
    got = _TABLE.get(key)
    if got is None:
        got = _TABLE[key] = Constant(v)
        s = len(_TAPE_KEY)
        _append(got, _OP_CONST, s, s, float(v))
    return got


def _unary(key: tuple, op: int, a: Expr, value: float = 0.0) -> Expr:
    """The node of key, (class, a) or (IntPow, a, exponent), built if new."""
    got = _TABLE.get(key)
    if got is None:
        got = _TABLE[key] = key[0](*key[1:])
        i = _index(a)
        _append(got, ((_TAPE_KEY[i] >> 4) + 1) << 4 | op, i, i, value)
    return got


def _binary(cls, op: int, a: Expr, b: Expr) -> Expr:
    """Build cls(a, b), which is not in _TABLE."""
    got = _TABLE[(cls, a, b)] = cls(a, b)
    i, j = _index(a), _index(b)
    level = _TAPE_KEY[i]
    if _TAPE_KEY[j] > level:
        level = _TAPE_KEY[j]
    _append(got, ((level >> 4) + 1) << 4 | op, i, j, 0.0)
    return got


def _append(n: Expr, key: int, a: int, b: int, value: float) -> None:
    """Give n the next tape slot and write its entry there."""
    _set_slot(n, "_slot", _BASE + len(_TAPE_KEY))
    _push_key(key)
    _push_kid(a)
    _push_kid(b)
    _push_val(value)


def _index(n: Expr) -> int:
    """n's index on the current tape, recording n first if it is not on it."""
    try:
        i = n._slot - _BASE
    except AttributeError:  # built by calling its class directly
        return _rerecord(n)
    return i if i >= 0 else _rerecord(n)


def _tape_index(n: Expr) -> int:
    """n's index on the current tape; negative if it is not on it."""
    try:
        return n._slot - _BASE
    except AttributeError:  # built by calling its class directly
        return -1


def _rerecord(root: Expr) -> int:
    """Record a node that is not on the current tape (built before the last
    clear_tables, or by calling its class directly), children first, and
    return its tape index."""
    stack = [root]
    while stack:
        n = stack[-1]
        if _tape_index(n) >= 0:
            stack.pop()
            continue
        kids = _children(n)
        stale = [c for c in kids if _tape_index(c) < 0]
        if stale:
            stack.extend(stale)
            continue
        stack.pop()
        cls = type(n)
        if kids:
            i, j = _tape_index(kids[0]), _tape_index(kids[-1])
            key = ((max(_TAPE_KEY[i], _TAPE_KEY[j]) >> 4) + 1) << 4 | _OPCODE[cls]
            value = n.exponent if cls is IntPow else 0.0
        else:
            i = j = len(_TAPE_KEY)
            key = _OPCODE[cls]
            value = n.value if cls is Constant else n.index
        _append(n, key, i, j, float(value))
    return _tape_index(root)


ZERO = _constant(0.0)
ONE = _constant(1.0)
_PINNED = dict(_TABLE)  # ZERO and ONE live as long as the module
_PINNED_TAPE = [len(column) for column in _TAPE]


def clear_tables() -> None:
    """Empty the node table and the per-verdict memo and truncate the tape,
    keeping ZERO and ONE."""
    global _BASE
    _TABLE.clear()
    _DERIVED.clear()
    _TABLE.update(_PINNED)
    _BASE += len(_TAPE_KEY)
    for column, length in zip(_TAPE, _PINNED_TAPE):
        del column[length:]
    for s, n in enumerate(_PINNED.values()):
        _set_slot(n, "_slot", _BASE + s)


def constant(value) -> Constant:
    v = float(value)
    if not math.isfinite(v):
        raise ExprError("constants must be finite")
    return _constant(v)


def coord(index: int) -> Coord:
    """The coordinate function with this index."""
    key = (Coord, index)
    got = _TABLE.get(key)
    if got is None:
        got = _TABLE[key] = Coord(index)
        s = len(_TAPE_KEY)
        _append(got, _OP_COORD, s, s, float(index))
    return got


def _coerce(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)):
        return constant(value)
    raise TypeError(f"cannot use {type(value).__name__} as an expression")


def is_zero(e: Expr) -> bool:
    return isinstance(e, Constant) and e.value == 0.0


def is_one(e: Expr) -> bool:
    return isinstance(e, Constant) and e.value == 1.0


# Smart constructors. They fold finite constants and strip additive and
# multiplicative identities, nothing deeper; derivatives of sparse inputs
# stay sparse without a real simplifier.  The rules, in order: fold two
# constants if the result is finite, then strip a zero or one operand.

def add(a: Expr, b: Expr) -> Expr:
    if type(a) is Constant:
        if type(b) is Constant:
            v = a.value + b.value
            if math.isfinite(v):
                return _constant(v)
        if a.value == 0.0:
            return b
    if type(b) is Constant and b.value == 0.0:
        return a
    return _TABLE.get((Add, a, b)) or _binary(Add, _OP_ADD, a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if type(b) is Constant:
        if type(a) is Constant:
            v = a.value - b.value
            if math.isfinite(v):
                return _constant(v)
        if b.value == 0.0:
            return a
    if type(a) is Constant and a.value == 0.0:
        return neg(b)
    return _TABLE.get((Sub, a, b)) or _binary(Sub, _OP_SUB, a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if type(a) is Constant:
        if type(b) is Constant:
            v = a.value * b.value
            if math.isfinite(v):
                return _constant(v)
            if b.value == 0.0:
                return ZERO
        if a.value == 0.0:
            return ZERO
        if a.value == 1.0:
            return b
        if type(b) is Constant and b.value == 1.0:
            return a
    elif type(b) is Constant:
        if b.value == 0.0:
            return ZERO
        if b.value == 1.0:
            return a
    return _TABLE.get((Mul, a, b)) or _binary(Mul, _OP_MUL, a, b)


def div(a: Expr, b: Expr) -> Expr:
    if type(b) is Constant:
        y = b.value
        if y == 1.0:
            return a
        if y != 0.0 and type(a) is Constant:
            v = a.value / y
            if math.isfinite(v):
                return _constant(v)
            if a.value == 0.0:
                return ZERO
    return _TABLE.get((Div, a, b)) or _binary(Div, _OP_DIV, a, b)


def neg(a: Expr) -> Expr:
    if type(a) is Constant:
        return _constant(-a.value)
    if type(a) is Neg:
        return a.arg
    return _unary((Neg, a), _OP_NEG, a)


def intpow(base: Expr, exponent) -> Expr:
    if not isinstance(exponent, int) or isinstance(exponent, bool) or exponent < 0:
        raise ExprError("exponent must be a non-negative integer")
    if exponent > _MAX_EXPONENT:
        raise ExprError("exponent too large")
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if type(base) is Constant:
        try:
            v = base.value ** exponent
        except OverflowError:  # float ** int raises where float * float gives inf
            v = math.inf
        if math.isfinite(v):
            return _constant(v)
    return _unary((IntPow, base, exponent), _OP_POW, base, float(exponent))


_MAX_EXPONENT = 2**1023  # the tape stores exponents as floats
_MAX_EXPONENT_DIGITS = len(str(_MAX_EXPONENT))


def _fold_unary(cls, op: int, fn, a: Expr) -> Expr:
    if type(a) is Constant:
        try:
            v = fn(a.value)
        except (ValueError, OverflowError):
            v = math.inf
        if math.isfinite(v):
            return _constant(v)
    return _unary((cls, a), op, a)


def exp(a) -> Expr:
    return _fold_unary(Exp, _OP_EXP, math.exp, _coerce(a))


def log(a) -> Expr:
    return _fold_unary(Log, _OP_LOG, math.log, _coerce(a))


def sin(a) -> Expr:
    return _fold_unary(Sin, _OP_SIN, math.sin, _coerce(a))


def cos(a) -> Expr:
    return _fold_unary(Cos, _OP_COS, math.cos, _coerce(a))


def sqrt(a) -> Expr:
    return _fold_unary(Sqrt, _OP_SQRT, math.sqrt, _coerce(a))


def _children(e: Expr) -> tuple[Expr, ...]:
    if isinstance(e, (Add, Sub, Mul, Div)):
        return (e.a, e.b)
    if isinstance(e, (Neg, Exp, Log, Sin, Cos, Sqrt)):
        return (e.arg,)
    if isinstance(e, IntPow):
        return (e.base,)
    return ()


def derive(e: Expr, i: int) -> Expr:
    """Exact partial derivative with respect to coordinate index i."""
    got = _DERIVED.get((e, i))
    if got is not None:
        return got
    if type(e) is Constant:
        return ZERO

    def go(n: Expr) -> Expr:
        got = _DERIVED.get((n, i))
        if got is not None:
            return got
        if isinstance(n, Constant):
            r = ZERO
        elif isinstance(n, Coord):
            r = ONE if n.index == i else ZERO
        elif isinstance(n, Neg):
            r = neg(go(n.arg))
        elif isinstance(n, Add):
            r = add(go(n.a), go(n.b))
        elif isinstance(n, Sub):
            r = sub(go(n.a), go(n.b))
        elif isinstance(n, Mul):
            r = add(mul(go(n.a), n.b), mul(n.a, go(n.b)))
        elif isinstance(n, Div):
            r = div(sub(mul(go(n.a), n.b), mul(n.a, go(n.b))), intpow(n.b, 2))
        elif isinstance(n, IntPow):
            r = mul(mul(constant(n.exponent), intpow(n.base, n.exponent - 1)), go(n.base))
        elif isinstance(n, Exp):
            r = mul(n, go(n.arg))
        elif isinstance(n, Log):
            r = div(go(n.arg), n.arg)
        elif isinstance(n, Sin):
            r = mul(_unary((Cos, n.arg), _OP_COS, n.arg), go(n.arg))
        elif isinstance(n, Cos):
            r = neg(mul(_unary((Sin, n.arg), _OP_SIN, n.arg), go(n.arg)))
        elif isinstance(n, Sqrt):
            r = div(go(n.arg), mul(constant(2.0), n))
        else:
            raise TypeError(f"unknown node {type(n).__name__}")
        _DERIVED[(n, i)] = r
        return r

    return go(e)


def used_coords(e: Expr) -> frozenset[int]:
    """Indices of the coordinates the expression actually mentions."""
    seen: set[int] = set()
    out: set[int] = set()
    stack = [e]
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        if isinstance(n, Coord):
            out.add(n.index)
        else:
            stack.extend(_children(n))
    return frozenset(out)


# Floats held by the registers and operand buffers of one call (1 MB).
REGISTER_BUDGET = 1 << 17

# the numpy ufunc of each opcode, by name
_UFUNC = {
    _OP_NEG: "negative", _OP_EXP: "exp", _OP_LOG: "log", _OP_SIN: "sin", _OP_COS: "cos",
    _OP_SQRT: "sqrt", _OP_ADD: "add", _OP_SUB: "subtract", _OP_MUL: "multiply",
    _OP_DIV: "true_divide",
}

# The functions below import numpy where they run. `import pqnverify`
# loads numpy either way, through `verify`; importing it at the top of
# this module, before the package's other modules, left a larger heap
# (about 2 MB more peak RSS on the benchmark's `recipes` workload).


def evaluate(e: Expr, point) -> float:
    """Value at a point (sequence of floats, one per coordinate).

    Runs the same tape as evaluate_batch on a one-row array, so the two
    agree bit for bit. Total: domain failures (division by zero, log of a
    non-positive value, overflow in exp) come back as nan or inf, never as
    an exception.
    """
    import numpy as np

    return float(_run([e], np.asarray(point, dtype=float).reshape(1, -1))[0, 0])


class Program(tuple):
    """Root expressions with the schedule _compile built for them, for
    calls of up to npts points, and base, the tape epoch it was built in.
    A schedule built for fewer points may hold a register per value,
    which would leave room for only a few points per block.  No roots
    need no schedule: _run returns before it reads one."""

    def __new__(cls, roots, npts: int):
        self = super().__new__(cls, roots)
        self.npts, self.base, self.schedule = npts, _BASE, _compile(self, npts) if self else None
        return self


def evaluate_batch(exprs: list[Expr] | Program, pts: np.ndarray) -> np.ndarray:
    """Evaluate expressions at points; result shape (len(exprs), npts).

    Domain failures surface as nan or inf entries, as in evaluate().
    """
    return _run(exprs, pts)


def _run(roots: list[Expr] | Program, pts: np.ndarray) -> np.ndarray:
    import numpy as np

    pts = np.asarray(pts, dtype=float)
    npts, dim = pts.shape
    out = np.empty((len(roots), npts))
    if not roots or not npts:
        return out
    if not (isinstance(roots, Program) and roots.npts >= npts and roots.base == _BASE):
        roots = Program(roots, npts)
    registers, widest, steps, const, coords, rows = roots.schedule
    if coords is not None and int(coords[2].max()) >= dim:
        raise IndexError(f"points have {dim} coordinates, fewer than the expressions use")
    width = min(npts, max(1, REGISTER_BUDGET // (registers + 2 * widest)))
    width = -(-npts // -(-npts // width))  # even blocks
    reg = np.empty((registers, width))
    ta, tb = np.empty((widest, width)), np.empty((widest, width))
    program = [
        (fn, reg[lo:hi], ia, ta[:hi - lo], ib, None if ib is None else tb[:hi - lo])
        for fn, lo, hi, ia, ib in steps
    ]
    take = reg.take
    with np.errstate(all="ignore"):
        if const is not None:
            reg[const[0]:const[1]] = const[2][:, None]
        for lo in range(0, npts, width):
            hi = min(lo + width, npts)
            if coords is not None:
                # a short last block leaves stale columns, which no
                # output row reads
                pts[lo:hi].T.take(coords[2], 0, reg[coords[0]:coords[1], :hi - lo], "clip")
            for fn, r, ia, a, ib, b in program:
                take(ia, 0, a, "clip")
                if ib is None:
                    fn(a, r)
                else:
                    take(ib, 0, b, "clip")
                    fn(a, b, r)
            out[:, lo:hi] = reg[rows, :hi - lo]
    return out


def _compile(roots, npts: int):
    """Registers, operand buffer rows and steps for the roots' groups.

    Each step is (ufunc, first register, end register, operand registers,
    second operand registers or None).  Constants and coordinates come
    back apart, as (first register, end register, values or indices), and
    rows are the roots' registers."""
    import numpy as np

    op, val, kids, starts, rootpos = _schedule(np.array([_index(r) for r in roots], dtype=np.intp))
    ngroups = len(starts) - 1
    nodes = len(op)
    if nodes * npts <= REGISTER_BUDGET // 8:
        # a register per value fits in an eighth of the budget: placing
        # ranges for reuse would cost more than it saves
        registers, base, reg_of = nodes, starts[:-1].tolist(), None
    else:
        sizes = np.diff(starts)
        gid = np.repeat(np.arange(ngroups), sizes)
        # The last group reading each value; roots and constants are read
        # at the end, so constants are written once per call.
        last = gid.copy()
        np.maximum.at(last, kids.ravel(), np.repeat(gid, 2))
        last[rootpos] = ngroups
        last[op == _OP_CONST] = ngroups
        # Longest-lived first within each group, so that the members a
        # group reads for the last time form a suffix of their range,
        # given back before that group is placed.
        order = np.lexsort((-last, gid))
        moved = np.empty_like(order)
        moved[order] = np.arange(nodes)
        op, val, last = op[order], val[order], last[order]
        kids, rootpos = moved[kids[order]], moved[rootpos]
        pieces = np.concatenate(([0], np.flatnonzero(np.diff(gid) | np.diff(last)) + 1))
        base, registers = _allocate(
            sizes.tolist(),
            zip(
                last[pieces].tolist(),
                gid[pieces].tolist(),
                (pieces - starts[gid[pieces]]).tolist(),
                np.diff(np.append(pieces, nodes)).tolist(),
            ),
        )
        reg_of = np.asarray(base)[gid] + (np.arange(nodes) - starts[gid])
    operands = kids.T if reg_of is None else reg_of[kids.T]
    steps = []
    const = coords = None
    widest = 0
    bounds = starts.tolist()
    for g, code in enumerate(op[starts[:-1]].tolist()):
        start, stop = bounds[g], bounds[g + 1]
        lo, hi = base[g], base[g] + stop - start
        if code == _OP_CONST:
            const = (lo, hi, val[start:stop])
            continue
        if code == _OP_COORD:
            coords = (lo, hi, val[start:stop].astype(np.intp))
            continue
        if code == _OP_POW:
            k = int(val[start])
            # the ufunc that x ** k calls: numpy squares for k = 2
            fn = np.square if k == 2 else lambda x, out, k=k: np.power(x, k, out)
        else:
            fn = getattr(np, _UFUNC[code])
        ib = operands[1, start:stop] if code >= _OP_ADD else None
        steps.append((fn, lo, hi, operands[0, start:stop], ib))
        widest = max(widest, stop - start)
    return registers, widest, steps, const, coords, rootpos if reg_of is None else reg_of[rootpos]


def _schedule(roots: np.ndarray):
    """The tape entries the roots reach, sorted into groups.

    Returns, per reached entry in group order, its opcode, its value and
    the positions of its two operands (one row each), then the group
    starts with the total appended, and the positions of the roots."""
    import numpy as np

    n = len(_TAPE_KEY)
    seen, rest = _walk(roots.tolist())
    key = np.frombuffer(_TAPE_KEY, dtype=np.int32)
    children = np.frombuffer(_TAPE_KIDS, dtype=np.int32).reshape(n, 2)
    val = np.frombuffer(_TAPE_VAL)
    try:
        reached = np.zeros(n, dtype=bool)
        reached[list(seen)] = True
        stamp = np.empty(n, dtype=np.intp)
        front = np.array(rest, dtype=np.intp)
        while front.size:
            kids = children[front].ravel()
            kids = kids[~reached[kids]]
            reached[kids] = True
            seq = np.arange(kids.size)
            stamp[kids] = seq  # one survivor per slot
            front = kids[stamp[kids] == seq]
        nodes = np.flatnonzero(reached)
        nkey, nval = key[nodes], val[nodes]
        nop = nkey & 15
        power = np.where(nop == _OP_POW, nval, 0.0)
        order = np.lexsort((power, nkey))
        nodes, nkey, nop, nval, power = nodes[order], nkey[order], nop[order], nval[order], power[order]
        new = (nkey[1:] != nkey[:-1]) | (power[1:] != power[:-1])
        starts = np.concatenate(([0], np.flatnonzero(new) + 1, [len(nodes)]))
        rank = stamp  # reused: tape index -> position in group order
        rank[nodes] = np.arange(len(nodes))
        return nop, nval, rank[children[nodes]], starts, rank[roots]
    finally:
        del key, children, val  # views pin the tape's size while alive


# Entries a reachability walk visits one at a time before it hands the
# rest to numpy, which pays a dozen calls per level of the DAG instead.
_WALK_LIMIT = 256


def _walk(roots: list[int]) -> tuple[set[int], list[int]]:
    """Tape indices reachable from roots, found one at a time until more
    than _WALK_LIMIT are found; returns them and those of them whose
    children are still to be visited."""
    kids = _TAPE_KIDS
    seen = set(roots)
    stack = list(seen)
    while stack and len(seen) <= _WALK_LIMIT:
        s = 2 * stack.pop()
        for c in (kids[s], kids[s + 1]):
            if c not in seen:
                seen.add(c)
                stack.append(c)
    return seen, stack


def _allocate(sizes: list[int], pieces) -> tuple[list[int], int]:
    """A contiguous register range per group, taken first-fit.  Each piece
    (t, g, offset, size) of group g's range is given back when group t
    runs.  Returns the range starts and the number of registers used."""
    ngroups = len(sizes)
    release: list[list[tuple[int, int, int]]] = [[] for _ in range(ngroups)]
    for t, g, offset, size in pieces:
        if t < ngroups:
            release[t].append((g, offset, size))
    base = [0] * ngroups
    free: list[tuple[int, int]] = []  # (start, size), sorted, never adjacent
    top = 0
    for g, size in enumerate(sizes):
        # g gathers its operands before it writes, so it may reuse them
        for h, offset, piece in release[g]:
            _give_back(free, base[h] + offset, piece)
        for i, (s, room) in enumerate(free):
            if room >= size:
                if room == size:
                    del free[i]
                else:
                    free[i] = (s + size, room - size)
                break
        else:
            s = free.pop()[0] if free and sum(free[-1]) == top else top
            top = s + size
        base[g] = s
    return base, top


def _give_back(free: list[tuple[int, int]], start: int, size: int) -> None:
    i = bisect(free, (start,))
    if i < len(free) and start + size == free[i][0]:
        size += free.pop(i)[1]
    if i > 0 and sum(free[i - 1]) == start:
        start, size = free[i - 1][0], free[i - 1][1] + size
        i -= 1
        del free[i]
    free.insert(i, (start, size))


# The point sampler whose points evaluate_batch runs on; see the module
# docstring.

_MASK = (1 << 64) - 1
_TWO64 = 2.0 ** 64
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def splitmix64(seed: int):
    """The splitmix64 generator as an endless iterator of uint64 values."""
    state = seed & _MASK
    while True:
        state = (state + _GAMMA) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        yield z ^ (z >> 31)


@dataclass(frozen=True)
class SamplePlan:
    """Where and how densely a check samples.

    box holds one closed interval per coordinate, with finite bounds and a
    finite width hi - lo; the j-th point uses stream outputs
    j*dim .. j*dim+dim-1 mapped affinely into the box.
    """

    seed: int
    count: int
    box: tuple[tuple[float, float], ...]
    resample_limit: int = 1024

    def __post_init__(self):
        box = tuple((float(lo), float(hi)) for lo, hi in self.box)
        object.__setattr__(self, "box", box)
        if self.count < 1:
            raise ValueError("a plan needs at least one sample point")
        if self.resample_limit < 0:
            raise ValueError("resample_limit must be non-negative")
        for lo, hi in box:
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"box bounds must be finite, got [{lo}, {hi}]")
            if not (lo < hi):
                raise ValueError(f"empty box interval [{lo}, {hi}]")
            if not math.isfinite(hi - lo):
                raise ValueError(f"box interval [{lo}, {hi}] is wider than a float holds")


def sample_plan(
    chart: Chart,
    box=(-1.0, 1.0),
    count: int = 64,
    seed: int = 42,
    resample_limit: int = 1024,
) -> SamplePlan:
    """A plan over the chart; a single (lo, hi) pair is broadcast to every
    coordinate."""
    if len(box) == 2 and all(isinstance(v, (int, float)) for v in box):
        intervals = tuple((float(box[0]), float(box[1])) for _ in range(chart.dim))
    else:
        intervals = tuple((float(lo), float(hi)) for lo, hi in box)
        if len(intervals) != chart.dim:
            raise ValueError("box must give one interval per coordinate")
    return SamplePlan(seed, count, intervals, resample_limit)


def point_block(plan: SamplePlan, start: int, count: int) -> np.ndarray:
    """Points start .. start+count-1 of the plan's stream as a (count, dim)
    float64 array, equal bit for bit to the scalar splitmix64 draw.

    uint64 arithmetic wraps mod 2^64, so the counter form of the generator
    is evaluated for every coordinate at once."""
    import numpy as np

    dim = len(plan.box)
    k = np.arange(start * dim + 1, (start + count) * dim + 1, dtype=np.uint64)
    z = np.uint64(plan.seed & _MASK) + k * np.uint64(_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    u = z.reshape(count, dim).astype(np.float64) / _TWO64
    lo, hi = np.array(plan.box).T
    return lo + (hi - lo) * u


def point_stream(plan: SamplePlan):
    """The plan's points as an endless iterator of tuples, drawn a block of
    plan.count points at a time."""
    start = 0
    while True:
        for row in point_block(plan, start, plan.count).tolist():
            yield tuple(row)
        start += plan.count


# Printing. Levels mirror the grammar: sum < product < signed factor <
# power < atom. An operand is parenthesised when its level is below what
# its position requires, so the printed string re-parses to a tree that
# evaluates identically (operand order and grouping are preserved exactly).

_ADD, _MUL, _FACTOR, _POWER, _ATOM = 0, 1, 2, 3, 4

_FUNC_NAMES = {Exp: "exp", Log: "log", Sin: "sin", Cos: "cos", Sqrt: "sqrt"}


def _level(n: Expr) -> int:
    if isinstance(n, (Add, Sub)):
        return _ADD
    if isinstance(n, (Mul, Div)):
        return _MUL
    if isinstance(n, Neg):
        return _FACTOR
    if isinstance(n, Constant):
        return _FACTOR if n.value < 0 else _ATOM
    if isinstance(n, IntPow):
        return _POWER
    return _ATOM


def _format_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def to_string(e: Expr, chart: Chart) -> str:
    """Render to the concrete syntax accepted by parse."""

    def fmt(n: Expr, minlevel: int) -> str:
        s = raw(n)
        return f"({s})" if _level(n) < minlevel else s

    def raw(n: Expr) -> str:
        if isinstance(n, Constant):
            return _format_number(n.value)
        if isinstance(n, Coord):
            return chart.coord_names[n.index]
        if isinstance(n, Add):
            return f"{fmt(n.a, _ADD)} + {fmt(n.b, _MUL)}"
        if isinstance(n, Sub):
            return f"{fmt(n.a, _ADD)} - {fmt(n.b, _MUL)}"
        if isinstance(n, Mul):
            return f"{fmt(n.a, _MUL)}*{fmt(n.b, _FACTOR)}"
        if isinstance(n, Div):
            return f"{fmt(n.a, _MUL)}/{fmt(n.b, _FACTOR)}"
        if isinstance(n, Neg):
            return f"-{fmt(n.arg, _POWER)}"
        if isinstance(n, IntPow):
            return f"{fmt(n.base, _ATOM)}^{n.exponent}"
        name = _FUNC_NAMES.get(type(n))
        if name is not None:
            return f"{name}({fmt(n.arg, _ADD)})"
        raise TypeError(f"unknown node {type(n).__name__}")

    return raw(e)


# Parsing: recursive descent over the grammar
#   expr   := term {("+"|"-") term}
#   term   := factor {("*"|"/") factor}
#   factor := ["-"] power
#   power  := atom ["^" integer]
#   atom   := number | coord | func "(" expr ")" | "(" expr ")"
# Each level of parentheses or function call costs five frames, so the
# depth is bounded here, well inside the default recursion limit of 1,000.

_MAX_NESTING = 150

_FUNC_CTORS = {"exp": exp, "log": log, "sin": sin, "cos": cos, "sqrt": sqrt}


class _Token:
    __slots__ = ("kind", "text", "offset")

    def __init__(self, kind, text, offset):
        self.kind = kind
        self.text = text
        self.offset = offset


_DIGITS = "0123456789"  # str.isdigit() also takes digits int() and float() refuse


def _tokenize(text: str) -> list[_Token]:
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _DIGITS:
            start = i
            while i < n and text[i] in _DIGITS:
                i += 1
            if i < n and text[i] == ".":
                i += 1
                if i >= n or text[i] not in _DIGITS:
                    raise ExprError("malformed number: digits required after '.'", start)
                while i < n and text[i] in _DIGITS:
                    i += 1
            if i < n and text[i] in "eE":
                i += 1
                if i < n and text[i] in "+-":
                    i += 1
                if i >= n or text[i] not in _DIGITS:
                    raise ExprError("malformed number: digits required in exponent", start)
                while i < n and text[i] in _DIGITS:
                    i += 1
            toks.append(_Token("num", text[start:i], start))
            continue
        if c.isalpha() or c == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            toks.append(_Token("ident", text[start:i], start))
            continue
        if c in "+-*/^()":
            toks.append(_Token(c, c, i))
            i += 1
            continue
        raise ExprError(f"unexpected character {c!r}", i)
    toks.append(_Token("end", "", n))
    return toks


class _Parser:
    def __init__(self, text: str, chart: Chart):
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.chart = chart

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def advance(self) -> _Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str) -> _Token:
        t = self.peek()
        if t.kind != kind:
            raise ExprError(f"expected {kind!r}", t.offset)
        return self.advance()

    def parse_expr(self) -> Expr:
        e = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.parse_term()
            e = add(e, rhs) if op == "+" else sub(e, rhs)
        return e

    def parse_term(self) -> Expr:
        e = self.parse_factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            rhs = self.parse_factor()
            e = mul(e, rhs) if op == "*" else div(e, rhs)
        return e

    def parse_factor(self) -> Expr:
        if self.peek().kind == "-":
            self.advance()
            return neg(self.parse_power())
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.peek().kind == "^":
            self.advance()
            t = self.peek()
            if t.kind != "num" or not t.text.isdigit():
                raise ExprError("exponent must be a non-negative integer", t.offset)
            digits = t.text.lstrip("0") or "0"
            if len(digits) > _MAX_EXPONENT_DIGITS:  # int() refuses over 4,300
                raise ExprError("exponent too large", t.offset)
            self.advance()
            return intpow(base, int(digits))
        return base

    def parse_group(self) -> Expr:
        """A parenthesised expression, one level deeper; past _MAX_NESTING
        levels a RecursionError, whatever the interpreter's own limit."""
        self.expect("(")
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise RecursionError(f"input nested more than {_MAX_NESTING} deep")
        inner = self.parse_expr()
        self.expect(")")
        self.depth -= 1
        return inner

    def parse_atom(self) -> Expr:
        t = self.peek()
        if t.kind == "num":
            self.advance()
            return constant(float(t.text))
        if t.kind == "ident":
            self.advance()
            ctor = _FUNC_CTORS.get(t.text)
            if ctor is not None:
                return ctor(self.parse_group())
            if t.text in self.chart.coord_names:
                return coord(self.chart.coord_names.index(t.text))
            raise ExprError(f"unknown identifier {t.text!r}", t.offset)
        if t.kind == "(":
            return self.parse_group()
        raise ExprError(f"unexpected token {t.text!r}" if t.kind != "end" else "unexpected end of input", t.offset)


def parse(text: str, chart: Chart) -> Expr:
    """Parse concrete syntax into an expression over the chart's coordinates.
    Parentheses and function calls nested more than _MAX_NESTING deep raise
    RecursionError."""
    p = _Parser(text, chart)
    e = p.parse_expr()
    t = p.peek()
    if t.kind != "end":
        raise ExprError(f"unexpected trailing input {t.text!r}", t.offset)
    return e
