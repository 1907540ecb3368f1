"""Feller's test for explosion of a 1-d homogeneous diffusion.

For dX = b(X)dt + sigma(X)dW on (l, r) with c = sigma^2, the scale density
is s'(x) = exp(-int_xi^x 2b/c dz) and the explosion functional is

    v(e) = int_xi^e s'(y) int_xi^y [2 / (c(z) s'(z))] dz dy.

The diffusion is non-explosive iff v = infinity at both endpoints.  The
improper limits are probed along a geometric sequence toward the endpoint
and declared infinite/finite from the partial-integral behavior (see
feller_v).

The nested integral is never formed.  In the distance coordinate u >= 0
(z = xi + d u, d = +-1) with g' = d 2b/c, its inner factor

    J(u) = exp(-g(u)) int_0^u 2 exp(g(w)) / c(w) dw

solves the linear ODE J' = 2/c - g' J, J(0) = 0, and v is the integral of
J.  One left-to-right sweep solves that ODE by Chebyshev collocation on
panels, with the coefficients evaluated as arrays, and integrates J with
Clenshaw-Curtis weights (spectral integration on panels: Greengard,
SIAM J. Numer. Anal. 28, 1991).  J is carried as exp(s) K with a running
log scale s, so neither exp(+-g) nor a fast-growing J leaves the range of
double precision, and v is accumulated in the log domain.

Combined with the Girsanov modification this yields the martingale verdict
for Z = E(beta(X).X^c): Z is a true martingale iff the modified diffusion
(drift b + c beta) is non-explosive, provided the original one is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateDiffusion, MartpropError, PreconditionViolated,
                     QuadratureFailure)
from .model import (Classification, DiffusionSpec, ExponentSpec,
                    MartingaleVerdict, modified_drift,
                    require_scalar_homogeneous)

DIVERGENCE_THRESHOLD = 1e12
_LOG_DIVERGENCE = math.log(DIVERGENCE_THRESHOLD)
PROBE_REL_TOL = 1e-3
_LOG_PROBE_REL_TOL = math.log(PROBE_REL_TOL)
# increments of a doubling-probe partial integral that shrink no faster
# than this ratio over three consecutive probes indicate (at least)
# logarithmic divergence
FLAT_RATIO = 0.999
# increments that shrink at least this fast over three consecutive probes
# bound the rest of the integral by the geometric series dv rho / (1 - rho)
GEOMETRIC_RATIO = 0.75
_LOG_GEOMETRIC_REST = math.log(GEOMETRIC_RATIO / (1.0 - GEOMETRIC_RATIO))
MAX_PROBES_INFINITE = 42
MAX_PROBES_FINITE_ENDPOINT = 48

# Collocation panels: 20 Chebyshev points of the second kind on [-1, 1]
_NODES = 20
_T = -np.cos(np.pi * np.arange(_NODES) / (_NODES - 1))


def _collocation_tables(t):
    """(values -> Chebyshev coefficients, Clenshaw-Curtis weights,
    differentiation matrix) at the Chebyshev points t."""
    n = t.size
    to_coeffs = np.linalg.inv(np.cos(np.outer(np.arccos(t), np.arange(n))))
    moments = np.array([2.0 / (1.0 - k * k) if k % 2 == 0 else 0.0
                        for k in range(n)])
    w = np.where((np.arange(n) == 0) | (np.arange(n) == n - 1), 2.0, 1.0)
    w *= (-1.0) ** np.arange(n)
    d = np.outer(w, 1.0 / w) / (t[:, None] - t[None, :] + np.eye(n))
    return to_coeffs, moments @ to_coeffs, d - np.diag(d.sum(axis=1))


_TO_COEFFS, _WEIGHTS, _DIFF = _collocation_tables(_T)
# the diagonal of a panel's system, the rows and columns of u > a
_DIAG_INNER = np.diag_indices(_NODES - 1)
# A panel is resolved when the highest Chebyshev coefficients of g' times
# the half-width, an absolute bound on the error of g, are below
# _G_TAIL_TOL (a relative test never resolves the kink of |x|^p at 0) or
# at the rounding floor of the largest |g'|, and when those of K are below
# _K_TAIL_TOL times max |K|.
_G_TAIL_TOL = 1e-10
_G_TAIL_FLOOR = 64.0 * np.finfo(float).eps
_K_TAIL_TOL = 1e-11
MAX_PANEL_BISECTIONS = 512
# A panel that exhausts the bisections where c is below _C_VANISH c(xi)
# is stuck on 2/c blowing up: c vanishes there
_C_VANISH = 1e-8


@dataclass
class VSide:
    """Verdict for one endpoint of the v-integral."""

    status: str                 # "finite" | "infinite" | "failed"
    value: float = math.nan     # finite value when status == "finite"
    reason: str = ""
    probes_used: int = 0

    def to_dict(self):
        d = {"status": self.status, "probes_used": self.probes_used}
        if self.status == "finite":
            d["value"] = self.value
        if self.reason:
            d["reason"] = self.reason
        return d


@dataclass
class FellerReport:
    v_left: VSide
    v_right: VSide
    xi: float
    conclusion: str = ""        # "Explosive" | "NonExplosive" | "Unknown"
    diagnostics: list = field(default_factory=list)

    def __post_init__(self):
        if not self.conclusion:
            if (self.v_left.status == "failed"
                    or self.v_right.status == "failed"):
                self.conclusion = "Unknown"
            elif (self.v_left.status == "infinite"
                    and self.v_right.status == "infinite"):
                self.conclusion = "NonExplosive"
            else:
                self.conclusion = "Explosive"


def _require_positive_c(zs, values):
    """Raise DegenerateDiffusion at the first z where c is not positive
    and finite."""
    bad = ~(values > 0.0) | ~np.isfinite(values)
    if bad.any():
        i = int(np.argmax(bad))
        z, value = float(zs[i]), float(values[i])
        if not value > 0.0:
            raise DegenerateDiffusion(f"c({z}) = {value} is not positive")
        raise DegenerateDiffusion(f"c({z}) is not finite")


def scale_density(spec: DiffusionSpec, x: float, xi: float) -> float:
    """s'(x) = exp(-int_xi^x 2 b/c dz) for a 1-d homogeneous spec."""
    require_scalar_homogeneous(spec, "scale_density")
    return math.exp(log_scale_density(spec, x, xi))


def log_scale_density(spec: DiffusionSpec, x: float, xi: float) -> float:
    b_expr, c_expr = spec.b[0], spec.c_expr(0, 0)

    def drift_ratio(zs):
        cs = c_expr.eval_array(0.0, zs)
        _require_positive_c(zs, cs)
        return 2.0 * b_expr.eval_array(0.0, zs) / cs

    return -integrate(drift_ratio, xi, x)


def _logaddexp(a, b):
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    return np.logaddexp(a, b)


def _tail(values):
    """Largest of the three highest Chebyshev coefficients."""
    return np.abs((_TO_COEFFS @ values)[-3:]).max()


def _unresolved(values, half):
    """Whether values on a panel of half-width half fail the resolution
    test: their Chebyshev tail times half is above _G_TAIL_TOL and above
    the rounding floor of their largest magnitude."""
    tail = _tail(values)
    return (tail * half > _G_TAIL_TOL
            and tail > _G_TAIL_FLOOR * np.abs(values).max())


def integrate(f, a, b):
    """int_a^b f on Chebyshev panels, halved until each passes the sweep's
    resolution test; f maps an array of points to values.  Raises
    QuadratureFailure on a non-finite value or after MAX_PANEL_BISECTIONS
    halvings."""
    total = 0.0
    ends = [b]
    bisections = 0
    while ends:
        half = 0.5 * (ends[-1] - a)
        mid = 0.5 * (a + ends[-1])
        fs = f(mid + half * _T)
        if not np.isfinite(fs).all():
            raise QuadratureFailure(
                f"non-finite integrand value on [{a!r}, {ends[-1]!r}]")
        if not _unresolved(fs, abs(half)):
            total += half * float(_WEIGHTS @ fs)
            a = ends.pop()
            continue
        bisections += 1
        if bisections > MAX_PANEL_BISECTIONS:
            raise QuadratureFailure(
                f"integrate: tolerance not met after {bisections - 1} "
                f"panel bisections on [{a!r}, {b!r}]")
        ends.append(mid)
    return total


class _Sweep:
    """Left-to-right collocation sweep of J' = 2/c - g' J along one probe
    path, carrying log J at the current point."""

    def __init__(self, spec, xi, direction):
        self.b_expr = spec.b[0]
        self.c_expr = spec.c_expr(0, 0)
        self.xi = xi
        self.direction = direction
        self.log_j = -math.inf

    def advance(self, a, b, log_v):
        """log int_a^b J du.  Returns early, with the partial integral so
        far, once v = exp(log_v) plus it exceeds DIVERGENCE_THRESHOLD: v
        only grows, so the verdict at b is fixed there."""
        log_int = -math.inf
        ends = [b]
        bisections = 0
        while ends and not _logaddexp(log_v, log_int) > _LOG_DIVERGENCE:
            panel = self._panel(a, ends[-1])
            if panel is not None:
                log_panel, self.log_j = panel
                log_int = _logaddexp(log_int, log_panel)
                a = ends.pop()
                continue
            mid = 0.5 * (a + ends[-1])
            if not a < mid < ends[-1]:
                raise QuadratureFailure(
                    f"feller sweep: panel too small at u={a!r} "
                    f"(z={self.xi + self.direction * a!r})")
            bisections += 1
            if bisections > MAX_PANEL_BISECTIONS:
                self._require_c_not_vanishing(a, ends[-1])
                raise QuadratureFailure(
                    f"feller sweep: tolerance not met after {bisections - 1}"
                    f" panel bisections on u in [{a!r}, {b!r}]")
            ends.append(mid)
        return log_int

    def _require_c_not_vanishing(self, a, b):
        """Raise DegenerateDiffusion, naming z, when c on the panel [a, b]
        falls below _C_VANISH c(xi)."""
        zs = self.xi + self.direction * (0.5 * (a + b) + 0.5 * (b - a) * _T)
        cs = self.c_expr.eval_array(0.0, zs)
        c_xi = float(self.c_expr.eval_array(0.0, np.array([self.xi]))[0])
        i = int(np.argmin(cs))
        if cs[i] < _C_VANISH * c_xi:
            raise DegenerateDiffusion(
                f"c({float(zs[i])!r}) = {float(cs[i]):.3g} falls toward 0 "
                f"(c({self.xi!r}) = {c_xi:.3g}): 2/c is not resolved after "
                f"{MAX_PANEL_BISECTIONS} panel bisections")

    def _panel(self, a, b):
        """(log int_a^b J, log J(b)) on one panel, or None when g' or the
        solution is not resolved there."""
        half = 0.5 * (b - a)
        zs = self.xi + self.direction * (0.5 * (a + b) + half * _T)
        cs = self.c_expr.eval_array(0.0, zs)
        bs = self.b_expr.eval_array(0.0, zs)
        with np.errstate(all="ignore"):
            # log c is finite where 0 < c < inf
            log_cs = np.log(cs)
            if not np.isfinite(log_cs).all():
                _require_positive_c(zs, cs)
            gp = self.direction * 2.0 * bs / cs
            if not np.isfinite(gp).all():
                raise QuadratureFailure(
                    f"non-finite drift ratio 2b/c on z in "
                    f"[{min(zs[0], zs[-1])!r}, {max(zs[0], zs[-1])!r}]")
            if _unresolved(gp, half):
                return None
            # J = exp(s) K on the panel; solve (D / half + diag(g')) K =
            # 2/c e^-s with K(a) = J(a) e^-s eliminated rather than kept as
            # an equation: beside rows of size |g'| it would only hold to
            # eps * max |g'|
            s, k_a = ((0.0, 0.0) if self.log_j == -math.inf
                      else (self.log_j, 1.0))
            system = _DIFF[1:, 1:] / half
            system[_DIAG_INNER] += gp[1:]
            k = np.empty(_NODES)
            k[0] = k_a
            try:
                k[1:] = np.linalg.solve(
                    system, 2.0 * np.exp(-s - log_cs[1:])
                    - _DIFF[1:, 0] * (k_a / half))
            except np.linalg.LinAlgError:
                return None
            area = half * (_WEIGHTS @ k)
            if not (np.isfinite(k).all() and area > 0.0 and k[-1] > 0.0):
                return None
            if _tail(k) > _K_TAIL_TOL * np.abs(k).max():
                return None
        return s + math.log(area), s + math.log(k[-1])


def feller_v(spec: DiffusionSpec, endpoint: str, xi: float) -> VSide:
    """Evaluate v at one endpoint ("left"/"right") of the state interval.

    Probe points march geometrically toward the endpoint; the partial
    integral is declared infinite once it exceeds DIVERGENCE_THRESHOLD or
    its per-probe increments stop decaying, and finite once the increments
    fall below PROBE_REL_TOL * value while decaying (or decay
    geometrically with a remainder below PROBE_REL_TOL * value).  Raises
    QuadratureFailure when the probes are exhausted undecided.
    """
    require_scalar_homogeneous(spec, "feller_v")
    l, r = spec.intervals[0]
    if endpoint == "right":
        direction, bound = 1.0, r
    elif endpoint == "left":
        direction, bound = -1.0, l
    else:
        raise ValueError(f"endpoint must be 'left' or 'right', got {endpoint!r}")
    if not l < xi < r:
        raise PreconditionViolated(
            f"reference point xi={xi} outside the state interval ({l}, {r})")

    # probe sequence in the distance coordinate u >= 0
    if math.isinf(bound):
        step = max(1.0, abs(xi))
        probes = [step * 2.0 ** k for k in range(MAX_PROBES_INFINITE)]
    else:
        span = abs(bound - xi)
        probes = [span * (1.0 - 2.0 ** -(k + 1))
                  for k in range(MAX_PROBES_FINITE_ENDPOINT)]

    # fail fast on a degenerate diffusion coefficient: c must be positive
    # and finite along the probe path before any quadrature is attempted
    us = np.array([0.0] + [frac * u_k for u_k in probes[:8]
                           for frac in (0.25, 0.5, 0.75, 1.0)])
    zs = xi + direction * us
    _require_positive_c(zs, spec.c_expr(0, 0).eval_array(0.0, zs))

    sweep = _Sweep(spec, xi, direction)
    log_v = -math.inf
    prev_increments = []  # log of per-probe increments
    u_prev = 0.0
    for k, u_k in enumerate(probes):
        log_dv = sweep.advance(u_prev, u_k, log_v)
        log_v = _logaddexp(log_v, log_dv)
        u_prev = u_k
        prev_increments.append(log_dv)

        if log_v > _LOG_DIVERGENCE:
            return VSide("infinite", reason="partial integral exceeded "
                         "divergence threshold", probes_used=k + 1)
        ratios = []
        if len(prev_increments) >= 4:
            ratios = [prev_increments[-i] - prev_increments[-i - 1]
                      for i in (1, 2, 3)]
            if all(rho >= math.log(FLAT_RATIO) for rho in ratios):
                return VSide("infinite", reason="non-decaying probe "
                             "increments (divergent tail)", probes_used=k + 1)
        if (len(prev_increments) >= 2
                and log_dv < log_v + _LOG_PROBE_REL_TOL
                and log_dv < prev_increments[-2] + math.log(0.5)):
            return VSide("finite", value=math.exp(log_v), probes_used=k + 1)
        if (ratios and max(ratios) <= math.log(GEOMETRIC_RATIO)
                and log_dv + _LOG_GEOMETRIC_REST < log_v + _LOG_PROBE_REL_TOL):
            return VSide("finite", value=math.exp(log_v), probes_used=k + 1)

    raise QuadratureFailure(
        f"feller_v undecided after {len(probes)} probes toward the "
        f"{endpoint} endpoint (log partial = {log_v:.3g})")


def classify_explosion(spec: DiffusionSpec, xi: float = None) -> FellerReport:
    """Run Feller's test at both endpoints and combine into a report."""
    require_scalar_homogeneous(spec, "classify_explosion")
    if xi is None:
        xi = spec.x0[0]
    sides = {}
    diagnostics = []
    for endpoint in ("left", "right"):
        try:
            sides[endpoint] = feller_v(spec, endpoint, xi)
        except MartpropError as exc:
            sides[endpoint] = VSide("failed", reason=str(exc))
            diagnostics.append(f"{endpoint}: {exc}")
    return FellerReport(v_left=sides["left"], v_right=sides["right"],
                        xi=xi, diagnostics=diagnostics)


def _grid_check_bounded(exprs, lo, hi, n_points=201):
    """Empirical boundedness check on [lo, hi]; returns failure strings."""
    failures = []
    pad = (hi - lo) * 1e-9
    xs = np.linspace(lo + pad, hi - pad, n_points)
    for e in exprs:
        values = e.eval_array(0.0, xs)
        if not np.all(np.isfinite(values)):
            bad = xs[~np.isfinite(values)][0]
            failures.append(
                f"{e.render()} is non-finite near x={bad:g}")
    return failures


def martingale_verdict(spec: DiffusionSpec, exp: ExponentSpec,
                       xi: float = None) -> MartingaleVerdict:
    """Classify Z = E(beta(X).X^c) via Feller's test on both dynamics.

    Raises PreconditionViolated when c <= 0 on the validation grid, and
    answers Inconclusive when b or beta is non-finite on it.
    """
    require_scalar_homogeneous(spec, "martingale_verdict")
    notes = []
    # hard check: c > 0 on a validation grid
    (l, r) = spec.intervals[0]
    lo = l if math.isfinite(l) else -50.0
    hi = r if math.isfinite(r) else 50.0
    n = 201
    zs = lo + (hi - lo) * (np.arange(n) + 0.5) / n
    try:
        _require_positive_c(zs, spec.c_expr(0, 0).eval_array(0.0, zs))
    except DegenerateDiffusion as exc:
        raise PreconditionViolated(str(exc)) from None
    soft = _grid_check_bounded(list(spec.b) + list(exp.beta), lo, hi)
    if soft:
        notes.extend(soft)
        notes.append("coefficient boundedness check failed; "
                     "verdict downgraded to Inconclusive")
        return MartingaleVerdict(Classification.INCONCLUSIVE, notes=notes)

    report_orig = classify_explosion(spec, xi=xi)
    modified = modified_drift(spec, exp)
    # a zero Girsanov correction keeps the drift: the same test, once
    report_mod = (report_orig if modified.b == spec.b
                  else classify_explosion(modified, xi=xi))
    notes.append("uniqueness of the semimartingale problem is assumed, "
                 "not verified")

    if report_orig.conclusion == "NonExplosive":
        if report_mod.conclusion == "NonExplosive":
            classification = Classification.TRUE_MARTINGALE
        elif report_mod.conclusion == "Explosive":
            classification = Classification.STRICT_LOCAL
        else:
            classification = Classification.INCONCLUSIVE
            notes.append("modified dynamics: Feller test inconclusive")
    else:
        classification = Classification.INCONCLUSIVE
        if report_orig.conclusion == "Explosive":
            notes.append(
                "original dynamics explosive: outside the scope of the "
                "Feller pipeline; use the localized deficit estimator "
                "restricted to [0, explosion)")
        else:
            notes.append("original dynamics: Feller test inconclusive")
    return MartingaleVerdict(classification, report_orig, report_mod,
                             notes=notes)
