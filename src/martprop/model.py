"""Diffusion data model, Girsanov drift modification, localization plans.

A :class:`DiffusionSpec` holds the SDE dX = b(t,X)dt + sigma(t,X)dW on a
per-coordinate state interval.  Multi-dimensional coefficients are arrays of
scalar expressions; by convention the variable ``x`` inside entry i (or
(i, j)) refers to coordinate i of the state.  An :class:`ExponentSpec` holds
the exponent field beta of the candidate stochastic exponential
Z = E(beta(X) . X^c).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

from .errors import DimensionMismatch, PreconditionViolated, ValidationError
from .expr import ZERO, CoefficientExpr, Num, as_expr

INF = math.inf


def _as_expr_tuple(items, what):
    return tuple(as_expr(item, what) for item in items)


def _is_one(e):
    return isinstance(e.ast, Num) and e.ast.value == 1.0


def _sum_exprs(exprs):
    acc = None
    for e in exprs:
        if e.is_zero():
            continue
        acc = e if acc is None else acc + e
    return ZERO if acc is None else acc


def _prod_exprs(exprs):
    acc = None
    for e in exprs:
        if e.is_zero():
            return ZERO
        if _is_one(e):
            continue
        acc = e if acc is None else acc * e
    if acc is None:
        return CoefficientExpr.constant(1.0)
    return acc


@dataclass(frozen=True)
class DiffusionSpec:
    """SDE coefficients with state space and start point.

    intervals: one (l, r) pair per coordinate, -inf/inf allowed.
    b: drift, one expression per coordinate; dim is len(b).
    sigma: dispersion matrix of expressions, dim x dim.
    """

    intervals: tuple
    b: tuple
    sigma: tuple
    x0: tuple

    def __post_init__(self):
        object.__setattr__(self, "b", _as_expr_tuple(self.b, "b"))
        if not self.b:
            raise ValidationError("b must have at least one entry")
        object.__setattr__(self, "sigma",
                           tuple(_as_expr_tuple(row, "sigma")
                                 for row in self.sigma))
        object.__setattr__(self, "intervals",
                           tuple((float(l), float(r))
                                 for (l, r) in self.intervals))
        object.__setattr__(self, "x0", tuple(float(v) for v in self.x0))
        if len(self.intervals) != self.dim:
            raise DimensionMismatch(
                f"expected {self.dim} intervals, got {len(self.intervals)}")
        if len(self.sigma) != self.dim or any(len(row) != self.dim
                                              for row in self.sigma):
            raise DimensionMismatch(
                f"sigma must be {self.dim}x{self.dim}")
        if len(self.x0) != self.dim:
            raise DimensionMismatch(
                f"expected {self.dim} start coordinates, got {len(self.x0)}")
        for i, ((l, r), v) in enumerate(zip(self.intervals, self.x0)):
            if not l < r:
                raise ValidationError(
                    f"interval {i}: need l < r, got ({l}, {r})")
            if not (l < v < r):
                raise ValidationError(
                    f"x0[{i}]={v} is not strictly inside ({l}, {r})")

    @property
    def dim(self):
        return len(self.b)

    @property
    def homogeneous(self):
        """True iff no coefficient references t."""
        exprs = list(self.b) + [e for row in self.sigma for e in row]
        return not any(e.depends_on_time() for e in exprs)

    def c_expr(self, i, j):
        """Entry (i, j) of c = sigma . sigma^T as an expression."""
        return _sum_exprs([_prod_exprs([self.sigma[i][k], self.sigma[j][k]])
                           for k in range(self.dim)])

    @classmethod
    def scalar(cls, b, sigma, x0=0.0, interval=(-INF, INF)):
        """Convenience constructor for the 1-d case."""
        return cls(intervals=(interval,), b=(b,), sigma=((sigma,),),
                   x0=(x0,))


@dataclass(frozen=True)
class ExponentSpec:
    """Exponent field beta of Z = E(beta(X) . X^c)."""

    beta: tuple

    def __post_init__(self):
        object.__setattr__(self, "beta", _as_expr_tuple(self.beta, "beta"))
        if not self.beta:
            raise ValidationError("beta must have at least one entry")

    @property
    def dim(self):
        return len(self.beta)

    def is_zero(self):
        return all(e.is_zero() for e in self.beta)

    @classmethod
    def scalar(cls, beta):
        return cls(beta=(beta,))


@dataclass(frozen=True)
class LocalizationPlan:
    """Schedule of first-passage levels m_1 < ... < m_N and time caps."""

    levels: tuple
    time_caps: tuple

    def __post_init__(self):
        object.__setattr__(self, "levels",
                           tuple(float(v) for v in self.levels))
        object.__setattr__(self, "time_caps",
                           tuple(float(v) for v in self.time_caps))
        if len(self.levels) < 2:
            raise ValidationError("a plan needs at least two levels")
        if len(self.time_caps) != len(self.levels):
            raise ValidationError("levels and time_caps must match in length")
        if self.levels[0] <= 0:
            raise ValidationError("levels must be positive")
        for a, bb in zip(self.levels, self.levels[1:]):
            if not a < bb:
                raise ValidationError("levels must be strictly increasing")
        for a, bb in zip(self.time_caps, self.time_caps[1:]):
            if a > bb:
                raise ValidationError("time caps must be nondecreasing")
        if not all(c > 0 for c in self.time_caps):
            raise ValidationError("time caps must be positive")

    @classmethod
    def geometric(cls, first=8.0, count=4, horizon=1.0):
        """Doubling levels with time caps horizon + 1, horizon + 2, ...:
        a cap at or below the horizon would make a level's survival 0."""
        levels = tuple(first * 2 ** k for k in range(count))
        caps = tuple(horizon + k + 1.0 for k in range(count))
        return cls(levels=levels, time_caps=caps)


class Classification(str, enum.Enum):
    TRUE_MARTINGALE = "TrueMartingale"
    STRICT_LOCAL = "StrictLocal"
    INCONCLUSIVE = "Inconclusive"


@dataclass
class MartingaleVerdict:
    classification: Classification
    feller_original: object = None   # FellerReport
    feller_modified: object = None   # FellerReport
    notes: list = field(default_factory=list)

    def to_dict(self):
        """The fields but an absent Feller report."""
        return {k: v for k, v in vars(self).items() if v is not None}


def _check_compatible(spec, exp):
    if exp.dim != spec.dim:
        raise DimensionMismatch(
            f"exponent has dim {exp.dim}, diffusion has dim {spec.dim}")


def modified_drift(spec: DiffusionSpec, exp: ExponentSpec) -> DiffusionSpec:
    """Girsanov-modified dynamics: drift b~ = b + c beta, c = sigma sigma^T.
    Entry i reads `x` as coordinate i, so it refuses a c_ij beta_j, i != j,
    that reads `x`."""
    _check_compatible(spec, exp)
    new_b = []
    for i in range(spec.dim):
        terms = [_prod_exprs([spec.c_expr(i, j), exp.beta[j]])
                 for j in range(spec.dim)]
        for j, term in enumerate(terms):
            if j != i and "x" in term.free_variables():
                raise ValidationError(
                    f"c[{i}][{j}] * beta[{j}] reads x, which drift entry {i} "
                    f"reads as coordinate {i}: use a diagonal sigma")
        correction = _sum_exprs(terms)
        if correction.is_zero():
            new_b.append(spec.b[i])
        elif spec.b[i].is_zero():
            new_b.append(correction)
        else:
            new_b.append(spec.b[i] + correction)
    return replace(spec, b=tuple(new_b))


def require_scalar_homogeneous(spec: DiffusionSpec, context: str):
    """Gate for tooling restricted to 1-d time-homogeneous diffusions."""
    if spec.dim != 1:
        raise PreconditionViolated(
            f"{context} requires a 1-d diffusion, got dim={spec.dim}; "
            "use the Monte Carlo estimators instead")
    if not spec.homogeneous:
        raise PreconditionViolated(
            f"{context} requires time-homogeneous coefficients; "
            "use the Monte Carlo estimators instead")
