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
are the same object. `derive` memoises into one table, `_DERIVED`, keyed
on (node, coordinate index). Both tables live for one verdict:
`verify.run_suites` empties them with `clear_tables` when it returns, so
a process that runs many verdicts holds the nodes of one at a time. A
node that outlives a clear stays valid; nodes built after it just do not
share with it.
"""
from __future__ import annotations

import math
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

    __slots__ = ()

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
# on (value, sign of value) so that 0.0 and -0.0 stay distinct.
_TABLE: dict[tuple, Expr] = {}
# derive's memo: (node, coordinate index) -> derivative.
_DERIVED: dict[tuple[Expr, int], Expr] = {}


def _node(cls, *args) -> Expr:
    """The one node of this class and these fields, built if new."""
    key = (cls, *args, math.copysign(1.0, args[0])) if cls is Constant else (cls, *args)
    got = _TABLE.get(key)
    if got is None:
        got = _TABLE[key] = cls(*args)
    return got


ZERO = _node(Constant, 0.0)
ONE = _node(Constant, 1.0)
_PINNED = dict(_TABLE)  # ZERO and ONE live as long as the module


def clear_tables() -> None:
    """Empty the node table and derive's memo, keeping ZERO and ONE."""
    _TABLE.clear()
    _DERIVED.clear()
    _TABLE.update(_PINNED)


def constant(value) -> Constant:
    v = float(value)
    if not math.isfinite(v):
        raise ExprError("constants must be finite")
    return _node(Constant, v)


def coord(index: int) -> Coord:
    """The coordinate function with this index."""
    return _node(Coord, index)


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
# stay sparse without a real simplifier.

def add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Constant) and isinstance(b, Constant):
        v = a.value + b.value
        if math.isfinite(v):
            return _node(Constant, v)
    if is_zero(a):
        return b
    if is_zero(b):
        return a
    return _node(Add, a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Constant) and isinstance(b, Constant):
        v = a.value - b.value
        if math.isfinite(v):
            return _node(Constant, v)
    if is_zero(b):
        return a
    if is_zero(a):
        return neg(b)
    return _node(Sub, a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Constant) and isinstance(b, Constant):
        v = a.value * b.value
        if math.isfinite(v):
            return _node(Constant, v)
    if is_zero(a) or is_zero(b):
        return ZERO
    if is_one(a):
        return b
    if is_one(b):
        return a
    return _node(Mul, a, b)


def div(a: Expr, b: Expr) -> Expr:
    if is_one(b):
        return a
    if isinstance(b, Constant) and b.value != 0.0:
        if isinstance(a, Constant):
            v = a.value / b.value
            if math.isfinite(v):
                return _node(Constant, v)
        if is_zero(a):
            return ZERO
    return _node(Div, a, b)


def neg(a: Expr) -> Expr:
    if isinstance(a, Constant):
        return _node(Constant, -a.value)
    if isinstance(a, Neg):
        return a.arg
    return _node(Neg, a)


def intpow(base: Expr, exponent) -> Expr:
    if not isinstance(exponent, int) or isinstance(exponent, bool) or exponent < 0:
        raise ExprError("exponent must be a non-negative integer")
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Constant):
        try:
            v = base.value ** exponent
        except OverflowError:  # float ** int raises where float * float gives inf
            return _node(IntPow, base, exponent)
        if math.isfinite(v):
            return _node(Constant, v)
    return _node(IntPow, base, exponent)


def _fold_unary(cls, fn, a: Expr) -> Expr:
    if isinstance(a, Constant):
        try:
            v = fn(a.value)
        except (ValueError, OverflowError):
            return _node(cls, a)
        if math.isfinite(v):
            return _node(Constant, v)
    return _node(cls, a)


def exp(a) -> Expr:
    return _fold_unary(Exp, math.exp, _coerce(a))


def log(a) -> Expr:
    return _fold_unary(Log, math.log, _coerce(a))


def sin(a) -> Expr:
    return _fold_unary(Sin, math.sin, _coerce(a))


def cos(a) -> Expr:
    return _fold_unary(Cos, math.cos, _coerce(a))


def sqrt(a) -> Expr:
    return _fold_unary(Sqrt, math.sqrt, _coerce(a))


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
            r = mul(_node(Cos, n.arg), go(n.arg))
        elif isinstance(n, Cos):
            r = neg(mul(_node(Sin, n.arg), go(n.arg)))
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


def evaluate(e: Expr, point) -> float:
    """Value at a point (sequence of floats, one per coordinate).

    Total: domain failures (division by zero, log of a non-positive value,
    overflow in exp) come back as nan or inf, never as an exception.
    Iterative so deep trees cannot hit the recursion limit.
    """
    memo: dict[int, float] = {}
    stack = [e]
    while stack:
        n = stack[-1]
        if id(n) in memo:
            stack.pop()
            continue
        kids = _children(n)
        pending = [k for k in kids if id(k) not in memo]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        memo[id(n)] = _eval_node(n, point, memo)
    return memo[id(e)]


def _eval_node(n: Expr, point, memo) -> float:
    try:
        if isinstance(n, Constant):
            return n.value
        if isinstance(n, Coord):
            return float(point[n.index])
        if isinstance(n, Neg):
            return -memo[id(n.arg)]
        if isinstance(n, Add):
            return memo[id(n.a)] + memo[id(n.b)]
        if isinstance(n, Sub):
            return memo[id(n.a)] - memo[id(n.b)]
        if isinstance(n, Mul):
            return memo[id(n.a)] * memo[id(n.b)]
        if isinstance(n, Div):
            return memo[id(n.a)] / memo[id(n.b)]
        if isinstance(n, IntPow):
            return memo[id(n.base)] ** n.exponent
        if isinstance(n, Exp):
            return math.exp(memo[id(n.arg)])
        if isinstance(n, Log):
            return math.log(memo[id(n.arg)])
        if isinstance(n, Sin):
            return math.sin(memo[id(n.arg)])
        if isinstance(n, Cos):
            return math.cos(memo[id(n.arg)])
        if isinstance(n, Sqrt):
            return math.sqrt(memo[id(n.arg)])
    except (ZeroDivisionError, ValueError, OverflowError):
        return math.nan
    raise TypeError(f"unknown node {type(n).__name__}")


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

_FUNC_CTORS = {"exp": exp, "log": log, "sin": sin, "cos": cos, "sqrt": sqrt}


class _Token:
    __slots__ = ("kind", "text", "offset")

    def __init__(self, kind, text, offset):
        self.kind = kind
        self.text = text
        self.offset = offset


def _tokenize(text: str) -> list[_Token]:
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            start = i
            while i < n and text[i].isdigit():
                i += 1
            if i < n and text[i] == ".":
                i += 1
                if i >= n or not text[i].isdigit():
                    raise ExprError("malformed number: digits required after '.'", start)
                while i < n and text[i].isdigit():
                    i += 1
            if i < n and text[i] in "eE":
                i += 1
                if i < n and text[i] in "+-":
                    i += 1
                if i >= n or not text[i].isdigit():
                    raise ExprError("malformed number: digits required in exponent", start)
                while i < n and text[i].isdigit():
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
            self.advance()
            return intpow(base, int(t.text))
        return base

    def parse_atom(self) -> Expr:
        t = self.peek()
        if t.kind == "num":
            self.advance()
            return constant(float(t.text))
        if t.kind == "ident":
            self.advance()
            ctor = _FUNC_CTORS.get(t.text)
            if ctor is not None:
                self.expect("(")
                inner = self.parse_expr()
                self.expect(")")
                return ctor(inner)
            if t.text in self.chart.coord_names:
                return coord(self.chart.coord_names.index(t.text))
            raise ExprError(f"unknown identifier {t.text!r}", t.offset)
        if t.kind == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        raise ExprError(f"unexpected token {t.text!r}" if t.kind != "end" else "unexpected end of input", t.offset)


def parse(text: str, chart: Chart) -> Expr:
    """Parse concrete syntax into an expression over the chart's coordinates."""
    p = _Parser(text, chart)
    e = p.parse_expr()
    t = p.peek()
    if t.kind != "end":
        raise ExprError(f"unexpected trailing input {t.text!r}", t.offset)
    return e
