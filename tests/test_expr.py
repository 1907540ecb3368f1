import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from martprop.errors import EvalDomain, ExprSyntaxError, UnknownIdentifier
from martprop.expr import CoefficientExpr, parse


# --- precedence and evaluation ------------------------------------------

CASES = [
    ("2+3*4", 14.0),
    ("(2+3)*4", 20.0),
    ("2^3^2", 512.0),          # right-associative power
    ("-2^2", -4.0),            # unary minus binds looser than power
    ("2^-3", 0.125),
    ("1-2-3", -4.0),           # left-associative subtraction
    ("12/4/3", 1.0),
    ("min(3, 2)", 2.0),
    ("max(-1, -5)", -1.0),
    ("abs(-2.5)", 2.5),
    ("exp(0)", 1.0),
    ("sqrt(9)", 3.0),
    ("tanh(0)", 0.0),
]


@pytest.mark.parametrize("text,value", CASES)
def test_constant_evaluation(text, value):
    assert parse(text)(0.0, 0.0) == pytest.approx(value, rel=1e-15)


def test_variables():
    e = parse("t + 2*x")
    assert e(1.5, 2.0) == 5.5
    assert e.free_variables() == frozenset({"t", "x"})
    assert e.depends_on_time()
    assert not parse("x^2").depends_on_time()


def test_eval_array_matches_scalar():
    e = parse("sin(x) + x^3 - exp(-x^2)")
    xs = np.linspace(-3, 3, 101)
    arr = e.eval_array(0.0, xs)
    for xv, av in zip(xs, arr):
        assert av == pytest.approx(e(0.0, float(xv)), rel=1e-14)


# --- error reporting ------------------------------------------------------

def test_syntax_error_carries_position():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("1 + * 2")
    assert exc.value.position == 4
    assert exc.value.expected


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifier):
        parse("foo(2)")
    with pytest.raises(UnknownIdentifier):
        parse("y + 1")


def test_wrong_arity():
    with pytest.raises(ExprSyntaxError):
        parse("min(1)")
    with pytest.raises(ExprSyntaxError):
        parse("exp(1, 2)")


def test_domain_errors_raise_on_call_but_not_eval_raw():
    e = parse("log(x)")
    with pytest.raises(EvalDomain):
        e(0.0, -1.0)
    assert math.isnan(e.eval_raw(0.0, -1.0))
    assert parse("1/x").eval_raw(0.0, 0.0) in (math.inf, -math.inf) or \
        math.isnan(parse("1/x").eval_raw(0.0, 0.0))


# --- edge semantics: non-finite values stay in-band -----------------------

EDGES = [
    ("1/x", 0.0, math.inf),
    ("1/x", -0.0, -math.inf),
    ("0/0", 0.0, math.nan),
    ("0^-1", 0.0, math.inf),
    ("(-8)^(1/3)", 0.0, math.nan),
    ("(-2)^3", 0.0, -8.0),
    ("log(0)", 0.0, -math.inf),
    ("log(-1)", 0.0, math.nan),
    ("exp(1000)", 0.0, math.inf),
    ("min(x, 1)", math.nan, math.nan),
    ("min(1, x)", math.nan, math.nan),
    ("max(x, 1)", math.nan, math.nan),
    ("max(1, x)", math.nan, math.nan),
]


@pytest.mark.parametrize("text,xv,expected", EDGES)
def test_edge_values_at_a_point_and_over_an_array(text, xv, expected):
    e = parse(text)
    for value in (e.eval_raw(0.0, xv),
                  float(e.eval_array(0.0, np.array([xv]))[0])):
        if math.isnan(expected):
            assert math.isnan(value)
        else:
            assert value == expected


# --- purity: same inputs, same outputs ------------------------------------

def test_purity():
    e = parse("exp(x) * sin(t)")
    vals = {e(0.3, 0.7) for _ in range(50)}
    assert len(vals) == 1


# --- round trip: render then parse is the identity -------------------------

_leaf = st.one_of(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
              allow_infinity=False).map(lambda v: str(v)),
    st.sampled_from(["x", "t"]))


def _exprs(depth):
    if depth == 0:
        return _leaf
    sub = _exprs(depth - 1)
    return st.one_of(
        _leaf,
        st.tuples(st.sampled_from("+-*/^"), sub, sub).map(
            lambda p: f"({p[1]}) {p[0]} ({p[2]})"),
        st.tuples(st.sampled_from(["exp", "sin", "cos", "tanh", "abs",
                                   "sqrt", "log"]), sub).map(
            lambda p: f"{p[0]}({p[1]})"),
        st.tuples(st.sampled_from(["min", "max"]), sub, sub).map(
            lambda p: f"{p[0]}({p[1]}, {p[2]})"),
        sub.map(lambda s: f"-({s})"))


@settings(max_examples=300, deadline=None)
@given(_exprs(3))
def test_render_parse_round_trip(text):
    e = parse(text)
    rendered = e.render()
    e2 = parse(rendered)
    assert e2.render() == rendered  # canonical form is a fixed point
    for tv in (0.0, 0.5, 2.0):
        for xv in (-1.5, 0.0, 0.25, 3.0):
            a, b = e.eval_raw(tv, xv), e2.eval_raw(tv, xv)
            if math.isnan(a):
                assert math.isnan(b)
            else:
                assert a == b


@settings(max_examples=200, deadline=None)
@given(_exprs(2), st.floats(-2, 2, allow_nan=False),
       st.floats(-2, 2, allow_nan=False))
def test_eval_array_consistent_with_scalar_random(text, tv, xv):
    e = parse(text)
    arr = e.eval_array(tv, np.array([xv]))
    raw = e.eval_raw(tv, xv)
    if math.isnan(raw):
        assert math.isnan(arr[0])
    else:
        assert arr[0] == pytest.approx(raw, rel=1e-12, abs=1e-300) or \
            arr[0] == raw


# --- algebra helpers -------------------------------------------------------

def test_algebra_helpers():
    x = parse("x")
    combined = x * 2.0 + parse("1")
    assert combined(0.0, 3.0) == 7.0
    assert CoefficientExpr.constant(0.0).is_zero()
    assert not parse("x").is_zero()
