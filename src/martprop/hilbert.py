"""Truncated Hilbert-space Brownian motion and path-functional exponents.

A Q-Brownian motion with nuclear covariance Q is realized by spectral
truncation: K independent scalar Brownian modes with variances given by
Q's eigenvalues.  The exponent phi may look at the whole past of the path
(predictably, through sup over times strictly before t); the flagship
example is the running supremum W* = sup_{s<.} W_s, for which
Z = E(phi(W).W) is a true martingale even though Novikov's condition
fails for large horizons.

Every finite truncation is itself a legitimate instance of the underlying
existence/uniqueness theorem, so desk-scale verification on truncations is
faithful; convergence in the number of modes is reported, not proven.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EvalDomain, ValidationError
from .expr import as_expr
from .mc import (MCEstimate, Passages, SimConfig, fixed_grid, map_chunks,
                 novikov_mean, survival_curve)
from .model import LocalizationPlan
from .rng import normal_block

# a row holds a path's (T - 1) * K normals, so chunks are smaller than
# the diffusion engine's
CHUNK_SIZE = 512


@dataclass(frozen=True)
class CovarianceSpec:
    """Spectrum of the covariance operator: diag(eigenvalues), one
    eigenvalue per mode."""

    eigenvalues: tuple

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues",
                           tuple(float(v) for v in self.eigenvalues))
        if not self.eigenvalues:
            raise ValidationError("need at least one eigenvalue")
        if not all(0 < v < math.inf for v in self.eigenvalues):
            raise ValidationError("eigenvalues must be positive and finite")
        for a, b in zip(self.eigenvalues, self.eigenvalues[1:]):
            if b > a:
                raise ValidationError("eigenvalues must be nonincreasing")

    @property
    def modes(self):
        return len(self.eigenvalues)

    @classmethod
    def dyadic(cls, modes):
        return cls(eigenvalues=tuple(2.0 ** -(k + 1) for k in range(modes)))


@dataclass(frozen=True)
class FunctionalSpec:
    """The exponent phi: (t, path up to t) -> H.

    kind "pointwise": one expression per mode, phi_k = expr_k(t, W_k(t-)).
    kind "running_sup": phi(t) = sup_{s<t}(weights . W(s)) * direction.
    """

    kind: str
    exprs: tuple = ()
    weights: tuple = ()
    direction: tuple = ()
    claimed_lipschitz: float = None
    claimed_growth: float = None

    def __post_init__(self):
        if self.kind == "pointwise":
            object.__setattr__(self, "exprs", tuple(
                as_expr(e, "phi") for e in self.exprs))
            if not self.exprs:
                raise ValidationError("pointwise phi needs expressions")
        elif self.kind == "running_sup":
            w = np.asarray(self.weights, dtype=np.float64)
            d = np.asarray(self.direction, dtype=np.float64)
            if w.size == 0 or d.size == 0:
                raise ValidationError(
                    "running_sup needs weights and direction")
            for name, v in (("weights", w), ("direction", d)):
                nrm = float(np.linalg.norm(v))
                if not abs(nrm - 1.0) <= 1e-9:
                    raise ValidationError(
                        f"{name} must have unit norm, got {nrm}")
            object.__setattr__(self, "weights", tuple(w.tolist()))
            object.__setattr__(self, "direction", tuple(d.tolist()))
        else:
            raise ValidationError(
                f"unknown functional kind {self.kind!r}")
        for name in ("claimed_lipschitz", "claimed_growth"):
            v = getattr(self, name)
            if v is not None and (isinstance(v, bool) or not isinstance(
                    v, (int, float)) or not math.isfinite(v)):
                raise ValidationError(f"{name} must be a finite number, "
                                      f"got {v!r}")

    def check_modes(self, modes):
        n = len(self.exprs) if self.kind == "pointwise" \
            else len(self.weights)
        if n != modes:
            raise ValidationError(
                f"functional spans {n} modes, covariance has {modes}")
        if self.kind == "running_sup" and len(self.direction) != modes:
            raise ValidationError("direction length must equal modes")

    @classmethod
    def running_sup(cls, modes, mode_index=0, claimed_lipschitz=1.0,
                    claimed_growth=1.0):
        w = [0.0] * modes
        w[mode_index] = 1.0
        return cls(kind="running_sup", weights=tuple(w), direction=tuple(w),
                   claimed_lipschitz=claimed_lipschitz,
                   claimed_growth=claimed_growth)


def _phi(phi, t, x, sup_before):
    """phi at time t on states x of shape (rows, K); a running_sup phi
    is each row's sup_before, the running sup of weights . x that the
    caller keeps, along direction.  A non-finite value raises EvalDomain
    naming the mode, the time and the state."""
    if phi.kind == "running_sup":
        direction = np.asarray(phi.direction)
        # a product is finite where sup_before times the largest |entry|
        # of direction is; one that is not raises below
        with np.errstate(over="ignore", invalid="ignore"):
            out = sup_before[:, None] * direction[None, :]
            finite = np.isfinite(sup_before * np.abs(direction).max()).all()
    else:
        out = np.empty(x.shape)
        for k, e in enumerate(phi.exprs):
            out[:, k] = e.eval_array(t, x[:, k])
        finite = np.isfinite(out).all()
    if not finite:
        bad = ~np.isfinite(out)
        r, k = np.argwhere(bad)[0]
        raise EvalDomain(f"phi is not finite in mode {k} at t={t:.6g}, "
                         f"x={x[r].tolist()}")
    return out


def phi_values(phi: FunctionalSpec, cov: CovarianceSpec, times,
               states) -> np.ndarray:
    """phi along recorded paths that start at 0; states has shape
    (..., T, K).

    Predictable convention: at grid index i the running sup is taken over
    indices strictly before i (empty sup = 0), so phi(0) = phi(., 0).
    """
    phi.check_modes(cov.modes)
    states = np.asarray(states, dtype=np.float64)
    single = states.ndim == 2
    if single:
        states = states[None]
    w = np.asarray(phi.weights)
    out = np.empty(states.shape)
    sup_before = np.zeros(len(states))
    for i, t in enumerate(times):
        out[:, i] = _phi(phi, t, states[:, i], sup_before)
        if phi.kind == "running_sup":
            sup_before = np.maximum(sup_before, states[:, i] @ w)
    return out[0] if single else out


def _normals(cov, config, indices, grid):
    """(n, T-1, K) main-stream normals: path p's step i, mode k is
    draw i*K + k of its stream."""
    shape = (len(indices), len(grid) - 1, cov.modes)
    return normal_block(config.seed, indices,
                        shape[1] * shape[2]).reshape(shape)


def _run_hilbert(cov, phi, config, levels=(), threads=1):
    """(logz, nov) at the horizon under the original dynamics and, per
    level, passage_times under the modified dynamics, one row per path.

    A chunk draws its normals once, scales them in place to the
    increments dW, and steps both dynamics in one pass on the same dW:
    its state holds the original rows W first and, when there are
    levels, the modified rows W + int Q phi ds after them.  A modified
    row is dropped once it passes the largest level: no output reads it,
    and it may explode.  A running_sup phi is s * direction, with s each
    row's running sup, so its step works on the vector s alone.
    """
    phi.check_modes(cov.modes)
    grid = fixed_grid(config.horizon, config.dt_max)
    lam = np.asarray(cov.eigenvalues)
    scale = np.sqrt(np.diff(grid))[:, None] * np.sqrt(lam)[None, :]
    w, d = np.asarray(phi.weights), np.asarray(phi.direction)
    sup = phi.kind == "running_sup"
    if sup:
        # ||Q^{1/2} phi||^2 = a s^2; phi is finite where s max|d_k| is
        a, dmax = float(np.sum(lam * d * d)), np.abs(d).max()

    def work(indices):
        normals = _normals(cov, config, indices, grid)
        normals *= scale
        n = len(indices)
        logz, nov = np.zeros(n), np.zeros(n)
        passages = Passages(n, levels)
        # `rows` maps the modified rows still held to their paths
        rows = np.arange(n if levels else 0)
        count = np.zeros(rows.size, dtype=np.intp)
        x = np.zeros((n + rows.size, cov.modes))
        sup_before = np.zeros(len(x))
        for i in range(1, len(grid)):
            t0, dt = grid[i - 1], grid[i] - grid[i - 1]
            dW = normals[:, i - 1]
            if sup:
                with np.errstate(over="ignore"):
                    finite = np.isfinite(sup_before * dmax).all()
                if not finite:
                    _phi(phi, t0, x, sup_before)    # raises EvalDomain
                s = sup_before[:n]
                qphi2 = (a * s) * s
                logz += s * (dW @ d) - 0.5 * qphi2 * dt
            else:
                phi_now = _phi(phi, t0, x, sup_before)
                orig = phi_now[:n]
                qphi2 = np.sum(lam * orig * orig, axis=1)
                logz += np.sum(orig * dW, axis=1) - 0.5 * qphi2 * dt
            nov += qphi2 * dt
            x[:n] += dW
            # dW[rows] is dW itself while no modified row has left; a running
            # sup's drift goes into this step's normals, read by no later step
            dW = dW if len(rows) == n else dW[rows]
            for k in np.flatnonzero(d):
                dW[:, k] += lam[k] * (sup_before[n:] * d[k]) * dt
            x[n:] += dW if sup else dW + lam * phi_now[n:] * dt
            # the next step reads the running sup through x(t_i)
            if sup:
                sup_before = np.maximum(sup_before, x @ w)
            xm = x[n:]
            passages.cross(count, rows, np.sqrt(np.sum(xm * xm, axis=1)),
                           grid[i])
            going = count < len(levels)
            if not going.all():
                keep = np.concatenate([np.ones(n, dtype=bool), going])
                x, sup_before = x[keep], sup_before[keep]
                count, rows = count[going], rows[going]
        return logz, nov, passages.times

    return map_chunks(work, config.n_paths, CHUNK_SIZE, threads)


def sample_path_array(cov: CovarianceSpec, config: SimConfig, n: int):
    """(times, states) with states of shape (n, T, modes); desk scale.
    Paths start at 0 and read the same streams as the simulation."""
    grid = fixed_grid(config.horizon, config.dt_max)
    sqrt_lam = np.sqrt(np.asarray(cov.eigenvalues))
    sqrt_dt = np.sqrt(np.diff(grid))
    out = np.zeros((n, len(grid), cov.modes))
    for start in range(0, n, CHUNK_SIZE):
        rows = np.arange(start, min(start + CHUNK_SIZE, n))
        increments = (_normals(cov, config, rows, grid) * sqrt_lam
                      * sqrt_dt[:, None])
        out[rows, 1:] = np.cumsum(increments, axis=1)
    return grid, out


@dataclass
class ConditionsReport:
    lipschitz_hat: float
    growth_hat: float
    claimed_lipschitz: float
    claimed_growth: float
    lipschitz_passed: bool
    growth_passed: bool
    n_paths: int
    notes: list = field(default_factory=list)

    @property
    def passed(self):
        return self.lipschitz_passed and self.growth_passed

    def to_dict(self):
        return {**vars(self), "passed": self.passed}


def check_conditions(phi: FunctionalSpec, cov: CovarianceSpec, times,
                     states) -> ConditionsReport:
    """Empirical local-Lipschitz and linear-growth checks.

    Over sampled path pairs and grid times, estimates
    L_hat = max ||Q phi(t,w) - Q phi(t,w*)|| / sup_{s<t} ||w - w*|| and
    growth_hat = max ||Q^{1/2} phi(t,w)||^2 / (1 + sup_{s<t} ||w||^2).
    Passes when the claimed constants dominate; report-only.
    """
    phi.check_modes(cov.modes)
    states = np.asarray(states, dtype=np.float64)
    n, T, K = states.shape
    lam = np.asarray(cov.eigenvalues)
    phis = phi_values(phi, cov, times, states)          # (n, T, K)
    notes = []
    if phi.kind == "pointwise":
        p0 = phi_values(phi, cov, times, np.zeros((1, T, K)))
        if float(np.max(np.abs(np.diff(p0[0], axis=0)))) > 1e-12:
            notes.append("phi(., 0) is not constant in time; proceeding "
                         "(uniqueness is assumed, not verified)")

    norms = np.sqrt(np.sum(states * states, axis=2))    # (n, T)
    run_norm = np.maximum.accumulate(norms, axis=1)
    sup_norm_before = np.concatenate(
        [np.zeros((n, 1)), run_norm[:, :-1]], axis=1)
    qphi2 = np.sum(lam[None, None, :] * phis * phis, axis=2)
    growth_hat = float(np.max(qphi2 / (1.0 + sup_norm_before ** 2)))

    # consecutive path pairs (a, a + 1), all at once
    diff_phi = np.sqrt(np.sum(
        (lam * (phis[:-1] - phis[1:])) ** 2, axis=2))      # (n-1, T)
    diff_path = np.sqrt(np.sum((states[:-1] - states[1:]) ** 2, axis=2))
    # at grid index 0 the sup over earlier times is empty: the ratio is 0
    sup_before = np.maximum.accumulate(diff_path, axis=1)[:, :-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(sup_before > 0, diff_phi[:, 1:] / sup_before, 0.0)
    lips = float(np.max(ratio, initial=0.0))

    cl = phi.claimed_lipschitz
    cg = phi.claimed_growth
    return ConditionsReport(
        lipschitz_hat=lips, growth_hat=growth_hat,
        claimed_lipschitz=cl if cl is not None else math.nan,
        claimed_growth=cg if cg is not None else math.nan,
        lipschitz_passed=(cl is None or lips <= cl + 1e-9),
        growth_passed=(cg is None or growth_hat <= cg + 1e-9),
        n_paths=n, notes=notes)


def estimate_hilbert_expectation(phi: FunctionalSpec, cov: CovarianceSpec,
                                 t: float, plan: LocalizationPlan,
                                 config: SimConfig, threads=1,
                                 conditions: ConditionsReport = None):
    """Direct mean of Z_t plus the localized deficit curve.

    Z = E(phi(W).W) with log Z = sum_k int phi_k dW^k - 0.5 int
    ||Q^{1/2} phi||^2 ds.  The deficit simulates the modified dynamics
    (drift Q phi) and measures survival below each plan level.
    """
    config.check_plan(plan)
    notes = []
    if conditions is not None and not conditions.passed:
        notes.append("conditions report failed; estimates are not "
                     "certified")
    logz, _, passage = _run_hilbert(cov, phi, config.until(t),
                                    levels=plan.levels, threads=threads)
    direct = MCEstimate.from_samples(np.exp(logz), notes=notes)
    return direct, survival_curve(passage, plan, t)


def hilbert_novikov_estimate(phi: FunctionalSpec, cov: CovarianceSpec,
                             t: float, config: SimConfig,
                             threads=1) -> MCEstimate:
    """Sample mean of exp(0.5 int ||Q^{1/2} phi||^2 ds) under the
    original dynamics; the running-sup example makes this diverge for
    large t while Z stays a true martingale."""
    _, nov, _ = _run_hilbert(cov, phi, config.until(t), threads=threads)
    return novikov_mean(nov)
