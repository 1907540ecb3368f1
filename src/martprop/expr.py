"""Scalar coefficient expressions in the variables t and x.

Drift, dispersion and exponent fields are supplied as text like
``"2*t + exp(-x^2)"`` and parsed into a small immutable AST, which is
compiled once into a closure over numpy arrays.  Evaluation is a pure
function of (t, x), at a point or over an array of points; non-finite
results (division by zero, log of a non-positive number, overflow) are
kept in-band as inf/nan with numpy's semantics and only turned into
:class:`EvalDomain` errors by callers that need finiteness.

Grammar: numbers, ``t``, ``x``, ``+ - * / ^`` with unary minus, and the
function catalog exp, log, sqrt, abs, sin, cos, tanh, min, max.
Precedence ``^`` > unary minus > ``* /`` > ``+ -``; ``^`` is
right-associative, everything else left-associative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (EvalDomain, ExprSyntaxError, UnknownIdentifier,
                     ValidationError)

VARIABLES = ("t", "x")

_FUNCTIONS_1 = {
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "sin": np.sin,
    "cos": np.cos,
    "tanh": np.tanh,
}
_FUNCTIONS_2 = {
    "min": np.minimum,
    "max": np.maximum,
}
FUNCTION_NAMES = frozenset(_FUNCTIONS_1) | frozenset(_FUNCTIONS_2)


# --- AST ---------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str  # only "-"
    operand: object


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple


# --- tokenizer ---------------------------------------------------------

_OPERATORS = "+-*/^(),"


def _tokenize(text):
    """Yield (kind, value, position) triples; kind in {num, name, op, end}."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = seen_exp = False
            while j < n:
                c = text[j]
                if c.isdigit():
                    j += 1
                elif c == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    j += 1
                elif c in "eE" and not seen_exp and j > i:
                    # exponent must be followed by digits (optionally signed)
                    k = j + 1
                    if k < n and text[k] in "+-":
                        k += 1
                    if k < n and text[k].isdigit():
                        seen_exp = True
                        j = k + 1
                    else:
                        break
                else:
                    break
            tokens.append(("num", float(text[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if ch in _OPERATORS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i,
                              {"number", "identifier", "operator"})
    tokens.append(("end", None, n))
    return tokens


# --- Pratt parser ------------------------------------------------------

_BIN_PRECEDENCE = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 40}
_UNARY_PRECEDENCE = 30
_RIGHT_ASSOC = {"^"}


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    @property
    def current(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, value, position = self.current
        if kind != "op" or value != op:
            raise ExprSyntaxError(f"expected {op!r}", position, {op})
        self.advance()

    def parse_expression(self, min_bp=0):
        node = self.parse_prefix()
        while True:
            kind, value, _ = self.current
            if kind != "op" or value not in _BIN_PRECEDENCE:
                break
            bp = _BIN_PRECEDENCE[value]
            if bp <= min_bp:
                break
            self.advance()
            rhs_bp = bp - 1 if value in _RIGHT_ASSOC else bp
            right = self.parse_expression(rhs_bp)
            node = Bin(value, node, right)
        return node

    def parse_prefix(self):
        kind, value, position = self.advance()
        if kind == "num":
            return Num(value)
        if kind == "name":
            if value in FUNCTION_NAMES:
                self.expect_op("(")
                args = [self.parse_expression()]
                while self.current[:2] == ("op", ","):
                    self.advance()
                    args.append(self.parse_expression())
                self.expect_op(")")
                want = 2 if value in _FUNCTIONS_2 else 1
                if len(args) != want:
                    raise ExprSyntaxError(
                        f"{value} takes {want} argument(s), got {len(args)}",
                        position, {"argument"})
                return Call(value, tuple(args))
            if value in VARIABLES:
                return Var(value)
            raise UnknownIdentifier(value, position)
        if kind == "op" and value == "-":
            return Unary("-", self.parse_expression(_UNARY_PRECEDENCE))
        if kind == "op" and value == "(":
            node = self.parse_expression()
            self.expect_op(")")
            return node
        raise ExprSyntaxError("expected an operand", position,
                              {"number", "identifier", "(", "-"})


# --- compilation -------------------------------------------------------


def _compile_array(node):
    """Compile an AST into a closure over numpy arrays (t scalar or array)."""
    if isinstance(node, Num):
        v = node.value
        return lambda t, x: np.full(np.shape(x), v, dtype=np.float64)
    if isinstance(node, Var):
        if node.name == "x":
            return lambda t, x: np.asarray(x, dtype=np.float64)
        return lambda t, x: np.broadcast_to(
            np.asarray(t, dtype=np.float64), np.shape(x)).copy()
    if isinstance(node, Unary):
        f = _compile_array(node.operand)
        return lambda t, x: -f(t, x)
    if isinstance(node, Bin):
        fl = _compile_array(node.left)
        fr = _compile_array(node.right)
        op = node.op
        if op == "+":
            return lambda t, x: fl(t, x) + fr(t, x)
        if op == "-":
            return lambda t, x: fl(t, x) - fr(t, x)
        if op == "*":
            return lambda t, x: fl(t, x) * fr(t, x)
        if op == "/":
            return lambda t, x: fl(t, x) / fr(t, x)
        return lambda t, x: fl(t, x) ** fr(t, x)
    fns = [_compile_array(arg) for arg in node.args]
    np_fn = _FUNCTIONS_1.get(node.name) or _FUNCTIONS_2[node.name]
    if len(fns) == 1:
        f0 = fns[0]
        return lambda t, x: np_fn(f0(t, x))
    f0, f1 = fns
    return lambda t, x: np_fn(f0(t, x), f1(t, x))


# --- rendering ---------------------------------------------------------


def _render(node, parent_bp=0):
    if isinstance(node, Num):
        v = node.value
        if v == int(v) and abs(v) < 1e16:
            s = str(int(v))
        else:
            s = repr(v)
        return s
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Unary):
        inner = _render(node.operand, _UNARY_PRECEDENCE)
        s = f"-{inner}"
        # unary minus binds looser than ^, so parenthesize under * / ^ lhs
        if parent_bp >= _UNARY_PRECEDENCE:
            return f"({s})"
        return s
    if isinstance(node, Bin):
        bp = _BIN_PRECEDENCE[node.op]
        left = _render(node.left, bp if node.op in _RIGHT_ASSOC else bp - 1)
        right = _render(node.right, bp - 1 if node.op in _RIGHT_ASSOC else bp)
        s = f"{left} {node.op} {right}"
        if bp <= parent_bp:
            return f"({s})"
        return s
    args = ", ".join(_render(a) for a in node.args)
    return f"{node.name}({args})"


def _free_vars(node, acc):
    if isinstance(node, Var):
        acc.add(node.name)
    elif isinstance(node, Unary):
        _free_vars(node.operand, acc)
    elif isinstance(node, Bin):
        _free_vars(node.left, acc)
        _free_vars(node.right, acc)
    elif isinstance(node, Call):
        for a in node.args:
            _free_vars(a, acc)


# --- public type -------------------------------------------------------


class CoefficientExpr:
    """Immutable scalar field f(t, x).

    Instances are safe to share between workers; evaluation has no state.
    """

    __slots__ = ("ast", "__dict__")

    def __init__(self, ast):
        self.ast = ast

    @classmethod
    def parse(cls, text: str) -> "CoefficientExpr":
        if not text or not text.strip():
            raise ExprSyntaxError("empty expression", 0,
                                  {"number", "identifier", "(", "-"})
        parser = _Parser(_tokenize(text))
        node = parser.parse_expression()
        kind, _, position = parser.current
        if kind != "end":
            raise ExprSyntaxError("trailing input", position, {"end"})
        return cls(node)

    @classmethod
    def constant(cls, value: float) -> "CoefficientExpr":
        if value < 0:
            return cls(Unary("-", Num(-value)))
        return cls(Num(value))

    def eval_raw(self, t: float, x: float) -> float:
        """Evaluate at one point; returns inf/nan in-band, never raises.

        The point is a one-element array, so numpy takes the same loops
        as over any array and the value matches `eval_array` bit for bit
        (on 0-d arrays its power takes scalar paths that round
        differently)."""
        return float(self.eval_array(float(t), np.array([float(x)]))[0])

    def __call__(self, t: float, x: float) -> float:
        """Evaluate, requiring a finite result."""
        value = self.eval_raw(t, x)
        if not math.isfinite(value):
            raise EvalDomain(
                f"{self.render()} is not finite at (t={t}, x={x})")
        return value

    @cached_property
    def _array_fn(self):
        return _compile_array(self.ast)

    def eval_array(self, t, x: np.ndarray) -> np.ndarray:
        """Vectorized evaluation over x (and matching t); inf/nan in-band."""
        with np.errstate(all="ignore"):
            return self._array_fn(t, np.asarray(x, dtype=np.float64))

    def render(self) -> str:
        """Canonical text form; re-parsing it evaluates identically."""
        return _render(self.ast)

    def free_variables(self) -> frozenset:
        acc = set()
        _free_vars(self.ast, acc)
        return frozenset(acc)

    def depends_on_time(self) -> bool:
        return "t" in self.free_variables()

    # small algebra used to build modified drifts and quadratic exponents
    def __add__(self, other):
        return CoefficientExpr(Bin("+", self.ast, as_expr(other).ast))

    def __sub__(self, other):
        return CoefficientExpr(Bin("-", self.ast, as_expr(other).ast))

    def __mul__(self, other):
        return CoefficientExpr(Bin("*", self.ast, as_expr(other).ast))

    def is_zero(self) -> bool:
        return isinstance(self.ast, Num) and self.ast.value == 0.0

    def __repr__(self):
        return f"CoefficientExpr({self.render()!r})"

    def __eq__(self, other):
        return isinstance(other, CoefficientExpr) and self.ast == other.ast

    def __hash__(self):
        return hash(self.ast)


def as_expr(value, what="operand") -> CoefficientExpr:
    """`value` as an expression: an expression as is, a string parsed,
    a finite number (not a bool) as a constant; anything else raises
    ValidationError naming `what`."""
    if isinstance(value, CoefficientExpr):
        return value
    if isinstance(value, str):
        return CoefficientExpr.parse(value)
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value)):
        return CoefficientExpr.constant(float(value))
    raise ValidationError(f"{what}: cannot interpret {value!r} as a "
                          "coefficient expression")


def parse(text: str) -> CoefficientExpr:
    """Parse an expression string; see module docstring for the grammar."""
    return CoefficientExpr.parse(text)


ZERO = CoefficientExpr.constant(0.0)
