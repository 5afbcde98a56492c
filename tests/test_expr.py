"""Grammar, symbolic differentiation, and evaluation of the expression kernel."""

import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

import pqnverify.expr as ex
from builders import (
    bits,
    reference_add,
    reference_div,
    reference_fold_unary,
    reference_evaluate_batch,
    reference_intpow,
    reference_mul,
    reference_neg,
    reference_sub,
    topo_order,
)
from pqnverify.expr import (
    ONE,
    Add,
    Chart,
    Constant,
    Coord,
    Div,
    Exp,
    Expr,
    ExprError,
    IntPow,
    Log,
    Mul,
    Neg,
    Sqrt,
    Sub,
    add,
    clear_tables,
    constant,
    coord,
    cos,
    derive,
    div,
    evaluate,
    exp,
    intpow,
    log,
    mul,
    neg,
    parse,
    sin,
    sqrt,
    sub,
    to_string,
)
from pqnverify.verify import evaluate_batch

CHART = Chart(("x", "y", "z"))
X, Y, Z = Coord(0), Coord(1), Coord(2)


def test_parse_builds_the_expected_tree():
    e = parse("x*y + exp(z)", CHART)
    assert isinstance(e, Add)
    assert isinstance(e.a, Mul)
    assert isinstance(e.b, Exp)
    assert e.b.arg.index == 2


def test_parse_resolves_identifiers_by_chart_position():
    e = parse("q1-q2", Chart(("p1", "p2", "q1", "q2")))
    assert isinstance(e, Sub)
    assert (e.a.index, e.b.index) == (2, 3)


def test_negative_exponent_is_a_syntax_error():
    with pytest.raises(ExprError) as err:
        parse("x^-1", CHART)
    assert err.value.offset == 2


@pytest.mark.parametrize(
    "text,offset,fragment",
    [
        ("1 + * z", 4, "unexpected token '*'"),
        ("x + foo", 4, "unknown identifier"),
        ("2..5", 0, "malformed number"),
        ("1e+ x", 0, "exponent"),
        ("(x", 2, "expected ')'"),
    ],
)
def test_errors_carry_byte_offsets(text, offset, fragment):
    with pytest.raises(ExprError) as err:
        parse(text, CHART)
    assert err.value.offset == offset
    assert fragment in str(err.value)


def test_chart_rejects_bad_coordinate_names():
    with pytest.raises(ExprError):
        Chart(("x", "sin"))
    with pytest.raises(ExprError):
        Chart(("x", "x"))
    with pytest.raises(ExprError):
        Chart(("x", "2y"))


def test_chart_lookup():
    assert CHART.dim == 3
    assert CHART.index("z") == 2


def test_power_binds_tighter_than_unary_minus():
    assert evaluate(parse("-x^2", CHART), (2.0, 0.0, 0.0)) == -4.0


def test_whitespace_is_insignificant():
    a = parse("x * y+ exp( z )", CHART)
    b = parse("x*y+exp(z)", CHART)
    p = (0.3, -1.2, 0.5)
    assert evaluate(a, p) == evaluate(b, p)


def test_product_rule():
    assert evaluate(derive(mul(X, Y), 0), (5.0, 7.0, 0.0)) == 7.0


def test_chain_rule_through_exp():
    lattice = Chart(("p1", "p2", "q1", "q2"))
    e = parse("exp(q1-q2)", lattice)
    p = (0.0, 0.0, 0.4, -0.3)
    assert evaluate(derive(e, 3), p) == pytest.approx(-math.exp(0.7), rel=1e-12)


def test_power_rule():
    assert evaluate(derive(intpow(X, 3), 0), (2.0, 0.0, 0.0)) == 12.0


def test_evaluate_basics():
    assert evaluate(parse("x*y+1", CHART), (2.0, 3.0, 0.0)) == 7.0
    assert evaluate(parse("exp(x-y)", CHART), (0.0, 0.0, 0.0)) == 1.0


def test_domain_failures_become_nan():
    # as in every verdict: numpy gives inf for 1/0
    assert evaluate(parse("1/x", CHART), (0.0, 0.0, 0.0)) == math.inf
    assert math.isnan(evaluate(parse("log(x)", CHART), (-1.0, 0.0, 0.0)))
    assert math.isnan(evaluate(parse("sqrt(x)", CHART), (-4.0, 0.0, 0.0)))


def _polynomials():
    base = st.one_of(
        st.integers(-2, 2).map(lambda v: constant(float(v))),
        st.integers(0, CHART.dim - 1).map(Coord),
    )

    def compound(children):
        two = st.tuples(children, children)
        return st.one_of(
            two.map(lambda t: add(*t)),
            two.map(lambda t: sub(*t)),
            two.map(lambda t: mul(*t)),
            children.map(neg),
            st.tuples(children, st.integers(0, 2)).map(lambda t: intpow(*t)),
        )

    return st.recursive(base, compound, max_leaves=6)


_points = st.tuples(
    st.floats(-1, 1, allow_nan=False),
    st.floats(-1, 1, allow_nan=False),
    st.floats(-1, 1, allow_nan=False),
)


@given(_polynomials(), _points, st.integers(0, 2))
def test_derivative_matches_central_differences(e, p, i):
    h = 1e-5
    up = list(p)
    dn = list(p)
    up[i] += h
    dn[i] -= h
    fd = (evaluate(e, tuple(up)) - evaluate(e, tuple(dn))) / (2 * h)
    exact = evaluate(derive(e, i), p)
    assert abs(exact - fd) <= 1e-6 * (1 + abs(exact))


@given(_polynomials(), _points, st.integers(0, 2), st.integers(0, 2))
def test_mixed_partials_commute(e, p, i, j):
    """Schwarz symmetry holds exactly up to float roundoff."""
    a = evaluate(derive(derive(e, i), j), p)
    b = evaluate(derive(derive(e, j), i), p)
    assert abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


@given(_polynomials(), _points)
def test_print_parse_round_trip(e, p):
    text = to_string(e, CHART)
    assert evaluate(parse(text, CHART), p) == evaluate(e, p)


@given(_points)
def test_printed_functions_round_trip(p):
    e = parse("exp(x) + sin(y)*cos(z) - sqrt(x^2 + 1)", CHART)
    again = parse(to_string(e, CHART), CHART)
    assert evaluate(again, p) == evaluate(e, p)


def test_equal_text_parses_to_one_object():
    text = "x*y + exp(z) - sin(x)/2"
    assert parse(text, CHART) is parse(text, CHART)
    assert parse("x", CHART) is coord(0) is CHART.coords()[0]
    assert constant(2) is constant(2.0)
    assert add(coord(0), coord(1)) is not add(coord(1), coord(0))


def test_signed_zero_constants_stay_distinct():
    pos, neg_zero = constant(0.0), constant(-0.0)
    assert pos is not neg_zero
    assert neg(pos) is neg_zero
    assert math.copysign(1.0, neg_zero.value) == -1.0
    values = evaluate_batch([div(ONE, pos), div(ONE, neg_zero)], np.zeros((1, 3)))
    assert values[0, 0] == math.inf
    assert values[1, 0] == -math.inf


def test_overflowing_constant_powers_stay_unfolded():
    e = parse("((2.5)^21)^37", CHART)
    assert not isinstance(e, Constant)
    assert evaluate_batch([e], np.zeros((1, 3)))[0, 0] == math.inf
    assert intpow(constant(2.5), 21) is constant(2.5**21)


def test_exponents_beyond_float_range_are_rejected():
    assert isinstance(intpow(X, 2**1023), Expr)
    with pytest.raises(ExprError, match="exponent too large"):
        intpow(X, 2**1023 + 1)
    with pytest.raises(ExprError, match="exponent too large"):
        parse("x^" + "9" * 400, CHART)


def test_derivatives_are_shared():
    e = parse("x*y^3 + exp(x*z)/cos(y)", CHART)
    for i in range(3):
        assert derive(e, i) is derive(e, i)
        assert derive(e, i) is derive(parse(to_string(e, CHART), CHART), i)


def _operand_pool() -> list:
    """Hash-consed constants, constants built by calling the class,
    coordinates and compound nodes."""
    x, y = coord(0), coord(1)
    return [
        constant(0.0), constant(-0.0), constant(1.0), constant(-1.0), constant(1e308),
        constant(-1e308), constant(0.5),
        Constant(0.0), Constant(1.0), Constant(-0.0), Constant(math.inf),
        x, y, Coord(2), add(x, y), mul(x, y), neg(x), intpow(y, 3), exp(x), Neg(Coord(2)),
    ]


# (constructor, the reference with the old rules), by arity
_BINARY = [(add, reference_add), (sub, reference_sub), (mul, reference_mul), (div, reference_div)]
_UNARY = [
    (neg, reference_neg),
    (exp, lambda a: reference_fold_unary(Exp, math.exp, a)),
    (log, lambda a: reference_fold_unary(Log, math.log, a)),
    (sqrt, lambda a: reference_fold_unary(Sqrt, math.sqrt, a)),
]
_EXPONENTS = (0, 1, 2, 3, 40)


def test_constructors_match_the_reference_on_every_pool_pair():
    pool = _operand_pool()
    for a in pool:
        for fn, ref in _UNARY:
            assert fn(a) is ref(a)
        for k in _EXPONENTS:
            assert intpow(a, k) is reference_intpow(a, k)
        for b in pool:
            for fn, ref in _BINARY:
                assert fn(a, b) is ref(a, b)


@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 99), st.integers(0, 99)), max_size=40))
def test_constructors_keep_the_reference_rules(steps):
    # Each step applies a constructor to pool members and adds the result
    # to the pool, so later steps also see the nodes the constructors made.
    pool = _operand_pool()
    for op, i, j in steps:
        a, b = pool[i % len(pool)], pool[j % len(pool)]
        if op < len(_BINARY):
            fn, ref = _BINARY[op]
            got, want = fn(a, b), ref(a, b)
        elif op < len(_BINARY) + len(_UNARY):
            fn, ref = _UNARY[op - len(_BINARY)]
            got, want = fn(a), ref(a)
        else:
            k = _EXPONENTS[j % len(_EXPONENTS)]
            got, want = intpow(a, k), reference_intpow(a, k)
        assert got is want
        pool.append(got)


def test_folds_that_overflow_stay_unfolded():
    big, small = constant(1e308), constant(0.5)
    cases = [
        (add, reference_add, (big, big), Add),
        (sub, reference_sub, (big, constant(-1e308)), Sub),
        (mul, reference_mul, (big, big), Mul),
        (div, reference_div, (big, small), Div),
        (intpow, reference_intpow, (big, 2), IntPow),
        (exp, lambda a: reference_fold_unary(Exp, math.exp, a), (constant(1000.0),), Exp),
    ]
    for fn, ref, args, cls in cases:
        got = fn(*args)
        assert type(got) is cls
        assert got is ref(*args)


def _tape_entries(nodes: list) -> list:
    """Each node's tape entry, with its children as nodes."""
    by_index = {ex._tape_index(n): n for n in nodes}
    out = []
    for n in nodes:
        i = ex._tape_index(n)
        assert i >= 0
        kids = (by_index[ex._TAPE_KIDS[2 * i]], by_index[ex._TAPE_KIDS[2 * i + 1]])
        out.append((ex._TAPE_KEY[i], kids, ex._TAPE_VAL[i]))
    return out


def test_recording_matches_rerecording():
    x, y, z = coord(0), coord(1), coord(2)
    roots = [
        div(sub(mul(x, y), neg(z)), add(intpow(x, 2), constant(2.0))),
        add(exp(sin(x)), log(add(constant(3.0), cos(y)))),
        sqrt(add(intpow(z, 3), ONE)),
    ]
    nodes = topo_order(roots)
    built = _tape_entries(nodes)
    assert {key & 15 for key, _, _ in built} == set(range(13))  # every opcode
    pts = np.linspace(0.1, 1.7, 27).reshape(9, 3)
    clear_tables()
    assert all(ex._tape_index(n) < 0 for n in nodes if n is not ONE)
    got = evaluate_batch(roots, pts)
    assert _tape_entries(nodes) == built
    assert np.array_equal(bits(got), bits(reference_evaluate_batch(roots, pts)))
    # A new node over a node from before the clear and one built by calling
    # its class records both first, then sits one level above the higher.
    old, direct = roots[2], Coord(1)
    clear_tables()
    top = mul(old, direct)
    key, kids, _ = _tape_entries(topo_order([top]))[-1]  # the root comes last
    assert kids == (old, direct)
    assert key == (((ex._TAPE_KEY[ex._tape_index(old)] >> 4) + 1) << 4 | ex._OP_MUL)
