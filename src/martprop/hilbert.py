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
from .expr import CoefficientExpr
from .mc import (MCEstimate, Passages, SimConfig, fixed_grid, map_chunks,
                 survival_curve)
from .model import LocalizationPlan
from .rng import normal_block

# a row holds a path's (T - 1) * K normals, so chunks are smaller than
# the diffusion engine's
CHUNK_SIZE = 512


@dataclass(frozen=True)
class CovarianceSpec:
    """Spectrum of the covariance operator: diag(eigenvalues)."""

    modes: int
    eigenvalues: tuple

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues",
                           tuple(float(v) for v in self.eigenvalues))
        if self.modes < 1:
            raise ValidationError("modes must be positive")
        if len(self.eigenvalues) != self.modes:
            raise ValidationError(
                f"expected {self.modes} eigenvalues, "
                f"got {len(self.eigenvalues)}")
        if any(v <= 0 for v in self.eigenvalues):
            raise ValidationError("eigenvalues must be positive")
        for a, b in zip(self.eigenvalues, self.eigenvalues[1:]):
            if b > a:
                raise ValidationError("eigenvalues must be nonincreasing")

    @classmethod
    def dyadic(cls, modes):
        return cls(modes=modes,
                   eigenvalues=tuple(2.0 ** -(k + 1) for k in range(modes)))


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
            exprs = []
            for e in self.exprs:
                exprs.append(e if isinstance(e, CoefficientExpr)
                             else CoefficientExpr.parse(str(e)))
            object.__setattr__(self, "exprs", tuple(exprs))
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
                if abs(nrm - 1.0) > 1e-9:
                    raise ValidationError(
                        f"{name} must have unit norm, got {nrm}")
            object.__setattr__(self, "weights", tuple(w.tolist()))
            object.__setattr__(self, "direction", tuple(d.tolist()))
        else:
            raise ValidationError(
                f"unknown functional kind {self.kind!r}")

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
        out = sup_before[:, None] * np.asarray(phi.direction)[None, :]
    else:
        out = np.empty(x.shape)
        for k, e in enumerate(phi.exprs):
            out[:, k] = e.eval_array(t, x[:, k])
    bad = ~np.isfinite(out)
    if bad.any():
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


def _run_hilbert(cov, phi, config, levels=(), eval_times=None, threads=1):
    """(logz_evals, nov_evals) under the original dynamics and, per
    level, passage_times under the modified dynamics, one row per path.

    A chunk draws its normals once and steps both dynamics in one pass
    on the same dW: its state holds the original rows W first and, when
    there are levels, the modified rows W + int Q phi ds after them.  A
    modified row is dropped once it passes the largest level: no output
    reads it, and it may explode.
    """
    phi.check_modes(cov.modes)
    if eval_times is None:
        eval_times = (config.horizon,)
    eval_times = tuple(sorted(set(float(t) for t in eval_times)))
    eval_lookup = {t: j for j, t in enumerate(eval_times)}
    grid = fixed_grid(config.horizon, config.dt_max, eval_times)
    lam = np.asarray(cov.eigenvalues)
    sqrt_lam = np.sqrt(lam)
    w = np.asarray(phi.weights)

    def work(indices):
        normals = _normals(cov, config, indices, grid)
        n = len(indices)
        logz, nov = np.zeros(n), np.zeros(n)
        logz_evals = np.full((n, len(eval_times)), math.nan)
        nov_evals = np.full((n, len(eval_times)), math.nan)
        passages = Passages(n, levels)
        # `rows` maps the modified rows still held to their paths
        rows = np.arange(n if levels else 0)
        count = np.zeros(rows.size, dtype=np.intp)
        x = np.zeros((n + rows.size, cov.modes))
        sup_before = np.zeros(len(x))
        for i in range(1, len(grid)):
            t0, dt = grid[i - 1], grid[i] - grid[i - 1]
            phi_now = _phi(phi, t0, x, sup_before)
            dW = normals[:, i - 1, :] * (sqrt_lam * math.sqrt(dt))[None, :]
            orig = phi_now[:n]
            qphi2 = np.sum(lam[None, :] * orig * orig, axis=1)
            logz += np.sum(orig * dW, axis=1) - 0.5 * qphi2 * dt
            nov += qphi2 * dt
            x[:n] += dW
            x[n:] += dW[rows] + lam[None, :] * phi_now[n:] * dt
            # the next step reads the running sup through x(t_i)
            if phi.kind == "running_sup":
                sup_before = np.maximum(sup_before, x @ w)
            xm = x[n:]
            passages.cross(count, rows, np.sqrt(np.sum(xm * xm, axis=1)),
                           grid[i])
            going = count < len(levels)
            if not going.all():
                keep = np.concatenate([np.ones(n, dtype=bool), going])
                x, sup_before = x[keep], sup_before[keep]
                count, rows = count[going], rows[going]
            j = eval_lookup.get(float(grid[i]))
            if j is not None:
                logz_evals[:, j] = logz
                nov_evals[:, j] = nov
        return logz_evals, nov_evals, passages.times

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
        return {"lipschitz_hat": self.lipschitz_hat,
                "growth_hat": self.growth_hat,
                "claimed_lipschitz": self.claimed_lipschitz,
                "claimed_growth": self.claimed_growth,
                "lipschitz_passed": self.lipschitz_passed,
                "growth_passed": self.growth_passed,
                "passed": self.passed, "n_paths": self.n_paths,
                "notes": list(self.notes)}


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

    lips = 0.0
    for a in range(n - 1):
        b = a + 1
        diff_phi = np.sqrt(np.sum(
            (lam[None, :] * (phis[a] - phis[b])) ** 2, axis=1))   # (T,)
        diff_path = np.sqrt(np.sum((states[a] - states[b]) ** 2, axis=1))
        run_diff = np.maximum.accumulate(diff_path)
        sup_before = np.concatenate([[0.0], run_diff[:-1]])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(sup_before > 0, diff_phi / sup_before, 0.0)
        lips = max(lips, float(np.max(ratio)))

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
                     "certified (verdict Inconclusive)")
    logz, _, passage = _run_hilbert(cov, phi, config.until(t),
                                    levels=plan.levels, eval_times=(t,),
                                    threads=threads)
    direct = MCEstimate.from_samples(np.exp(logz[:, 0]), notes=notes)
    return direct, survival_curve(passage, plan, t, notes)


def hilbert_novikov_estimate(phi: FunctionalSpec, cov: CovarianceSpec,
                             t: float, config: SimConfig,
                             threads=1) -> MCEstimate:
    """Sample mean of exp(0.5 int ||Q^{1/2} phi||^2 ds) under the
    original dynamics; the running-sup example makes this diverge for
    large t while Z stays a true martingale."""
    _, nov, _ = _run_hilbert(cov, phi, config.until(t), eval_times=(t,),
                             threads=threads)
    with np.errstate(over="ignore"):
        samples = np.exp(0.5 * nov[:, 0])
    notes = []
    if np.any(np.isinf(samples)):
        notes.append("overflowing samples clipped to 1e308")
        samples = np.minimum(samples, 1e308)
    return MCEstimate.from_samples(samples, notes=notes)
