import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from martprop.errors import (EvalDomain, ExprSyntaxError, UnknownIdentifier,
                             ValidationError)
from martprop.expr import CoefficientExpr, as_expr, parse


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
        assert arr[0] == raw


# --- algebra helpers -------------------------------------------------------

def test_algebra_helpers():
    x = parse("x")
    combined = x * 2.0 + parse("1")
    assert combined(0.0, 3.0) == 7.0
    assert CoefficientExpr.constant(0.0).is_zero()
    assert not parse("x").is_zero()


def test_as_expr_takes_an_expression_a_string_or_a_number():
    x = parse("x")
    assert as_expr(x, "b") is x
    assert as_expr("x", "b") == x
    assert as_expr(-2, "b") == CoefficientExpr.constant(-2.0)
    # a bool is not a number here, as JSON's true is not
    for value in (None, True, ["x"]):
        with pytest.raises(ValidationError, match="^b: cannot interpret"):
            as_expr(value, "b")


# --- a constant evaluates as t at its value ---------------------------------

# numpy's power loop computes x*x, sqrt(x) and 1/x for a scalar exponent of
# 2, 0.5 and -1, and those round differently from its vector pow of two
# arrays: handing a constant to a ufunc as a scalar, not as an array of x's
# shape, can change the last bit.  _XS holds special values, and values
# where those results differ.
_XS = np.array([-3.5, -1.0, -0.25, -0.0, 0.0, 1e-310, 0.5, 1.0, 2.0, 7.25,
                1e300, math.inf, -math.inf, math.nan,
                0.5212566847213388, 0.9801291582249824, 0.32021132522164103,
                0.7290103417684793, 0.12489268577933342, 0.3065615681682899])

# (expression, the same with one constant written as t, that constant)
_SMALL = (("2", 2.0), ("0.5", 0.5), ("0", 0.0), ("3", 3.0))
_CONSTANTS = [(f"{c} {op} x", f"t {op} x", v)
              for op in "+-*/^" for c, v in _SMALL]
_CONSTANTS += [(f"x {op} {c}", f"x {op} t", v)
               for op in "+-*/^" for c, v in _SMALL]
_CONSTANTS += [
    ("x ^ -1", "x ^ -t", 1.0),
    ("log(0) * x", "log(t) * x", 0.0),
    ("1 / 0 + x", "1 / t + x", 0.0),
    ("-0 * x", "-t * x", 0.0),
    ("exp(1) * x", "exp(t) * x", 1.0),
    ("min(1, 2) * x", "min(t, 2) * x", 1.0),
    ("max(x, 1 - 3)", "max(x, t - 3)", 1.0),
    ("sqrt(2) * sin(3) - x", "sqrt(t) * sin(3) - x", 2.0),
    ("0.8175242299741904 * 0.8175242299741904 * x ^ 3",
     "t * 0.8175242299741904 * x ^ 3", 0.8175242299741904),
]


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


@pytest.mark.parametrize("text,reference,t", _CONSTANTS)
def test_a_constant_evaluates_as_t_at_its_value(text, reference, t):
    e, ref = parse(text), parse(reference)
    assert "t" not in e.free_variables()
    values = e.eval_array(t, _XS)
    assert _same_bits(values, ref.eval_array(t, _XS))
    for xv, v in zip(_XS, values):
        assert _same_bits(e.eval_raw(t, xv), ref.eval_raw(t, xv))
        # a point has the bits of the same point in an array
        assert _same_bits(e.eval_raw(t, xv), v)
