"""Monte Carlo engine: path simulation, stochastic exponentials, and the
two estimators of E[Z_t].

The direct estimator averages Z_t under the original dynamics; it is
downward-biased in practice for strict local martingales because the lost
mass hides in rare huge samples (flagged by the heavy-tail diagnostic).
The localized estimator simulates the Girsanov-MODIFIED dynamics and uses
E[Z_t] = lim_n Q(rho_n > t), where rho_n is the first passage of the path
norm over level m_n capped at cap_n: the deficit 1 - E[Z_t] is the
limiting modified-measure probability of early exit.

Determinism contract: every path is a pure function of (spec, config,
path_index) via a counter-based stream, and ensembles are reduced in
path-index order, so results are bit-identical for any worker count.
"""

from __future__ import annotations

import math
import os
from concurrent import futures
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import (EvalDomain, PlanTooCoarse, UnboundedOnCompact,
                     ValidationError)
from .model import (DiffusionSpec, ExponentSpec, LocalizationPlan,
                    modified_drift, quadratic_exponent)
from .rng import BRIDGE_STREAM, normal_block, path_generator

CHUNK_SIZE = 4096
_SNAP_EPS = 1e-12
# the first normal buffer holds at most horizon * _FIRST_LOAD_CAP / dt_max
# steps per path, whatever the adaptive load at x0; longer paths grow it
_FIRST_LOAD_CAP = 4.0


@dataclass(frozen=True)
class SimConfig:
    n_paths: int
    dt_max: float
    horizon: float
    seed: int = 0
    adaptive: bool = True
    bridge_correction: bool = False
    explosion_guard: float = 1e6

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValidationError("n_paths must be positive")
        if not 0 < self.dt_max <= self.horizon:
            raise ValidationError("need 0 < dt_max <= horizon")
        if self.explosion_guard <= 0:
            raise ValidationError("explosion_guard must be positive")

    @property
    def dt_min(self):
        return self.dt_max * 1e-6

    def check_plan(self, plan: LocalizationPlan):
        if plan.levels[-1] >= self.explosion_guard:
            raise ValidationError(
                f"largest level {plan.levels[-1]} must stay below the "
                f"explosion guard {self.explosion_guard}")


@dataclass
class MCEstimate:
    mean: float
    std_error: float
    n_effective: int
    heavy_tail_flag: bool
    max_sample_share: float
    notes: list = field(default_factory=list)

    @classmethod
    def from_samples(cls, samples, notes=()):
        samples = np.asarray(samples, dtype=np.float64)
        n = samples.size
        mean = float(np.mean(samples)) if n else math.nan
        se = float(np.std(samples, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        total = float(np.sum(np.abs(samples)))
        share = float(np.max(np.abs(samples)) / total) if total > 0 else 0.0
        return cls(mean=mean, std_error=se, n_effective=n,
                   heavy_tail_flag=share > 0.5, max_sample_share=share,
                   notes=list(notes))


@dataclass
class DeficitCurve:
    # entries: (level m_n, cap, Q_hat(rho_n > t), std_error)
    entries: list
    extrapolated_expectation: float
    converged: bool
    notes: list = field(default_factory=list)

    @property
    def deficit(self):
        return 1.0 - self.extrapolated_expectation


class EnsembleResult(NamedTuple):
    """Per-path outputs, in path-index order."""

    status: np.ndarray          # int8: 0 horizon, 1 guard, 2 dt floor, 3 level
    end_time: np.ndarray
    final_state: np.ndarray     # (n, dim)
    final_logz: np.ndarray
    passage_times: np.ndarray   # (n, L) first time ||X|| >= level, inf if never
    logz_at_passage: np.ndarray
    logz_evals: np.ndarray      # (n, E), nan where the path ended earlier
    nov_evals: np.ndarray       # (n, E) accumulated integral of q


def map_chunks(work, n, chunk_size, threads=1):
    """Map `work` over the index chunks [0, chunk_size), [chunk_size,
    2 chunk_size), ... of range(n) and concatenate, in index order, each
    of the per-path arrays that `work` returns as a tuple.

    Chunk boundaries do not depend on `threads`, so neither does the
    output.  Chunks hold the interpreter lock between numpy calls:
    threads beyond the core count only trade it back and forth, so no
    more run than there are chunks or cores.
    """
    chunks = [np.arange(i, min(i + chunk_size, n))
              for i in range(0, n, chunk_size)]
    workers = min(threads, len(chunks), os.cpu_count() or 1)
    if workers > 1:
        with futures.ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(work, chunks))
    else:
        parts = [work(c) for c in chunks]
    return [np.concatenate(column) for column in zip(*parts)]


def _eval_matrix(exprs_by_coord, t, x):
    """Evaluate per-coordinate expressions; x has shape (n, d)."""
    n, d = x.shape
    out = np.empty((n, d))
    for i, e in enumerate(exprs_by_coord):
        out[:, i] = e.eval_array(t, x[:, i])
    return out


def _run_chunk(spec, config, indices, levels, eval_times, beta, q_expr,
               stop_at_largest_level):
    d = spec.dim
    n = len(indices)
    L = len(levels)
    E = len(eval_times)
    levels = np.asarray(levels, dtype=np.float64)
    eval_times = np.asarray(eval_times, dtype=np.float64)
    guard = config.explosion_guard
    dt_max, dt_min = config.dt_max, config.dt_min

    bridge_gens = None
    if config.bridge_correction and d == 1 and L:
        bridge_gens = [path_generator(config.seed, int(i), BRIDGE_STREAM)
                       for i in indices]

    # main-stream normals of the live paths: row slot[r] of `normals` holds
    # the start of path r's stream, drawn in one batch
    normals = np.empty((0, 0))
    slot = np.zeros(n, dtype=np.intp)

    x = np.tile(np.asarray(spec.x0, dtype=np.float64), (n, 1))
    tcur = np.zeros(n)
    logz = np.zeros(n)
    nov = np.zeros(n)
    alive = np.ones(n, dtype=bool)
    status = np.zeros(n, dtype=np.int8)
    end_time = np.full(n, math.nan)
    eval_idx = np.zeros(n, dtype=np.int64)
    passage = np.full((n, L), math.inf)
    logz_pass = np.full((n, L), math.nan)
    crossed = np.zeros((n, L), dtype=bool)
    logz_evals = np.full((n, E), math.nan)
    nov_evals = np.full((n, E), math.nan)

    track_z = beta is not None
    k = 0
    while np.any(alive):
        ia = np.nonzero(alive)[0]
        xa = x[ia]
        ta = tcur[ia]

        b_mat = _eval_matrix(spec.b, ta, xa)
        sig = np.empty((len(ia), d, d))
        for i in range(d):
            for j in range(d):
                sig[:, i, j] = spec.sigma[i][j].eval_array(ta, xa[:, i])
        if not (np.all(np.isfinite(b_mat)) and np.all(np.isfinite(sig))):
            bad = ia[~(np.all(np.isfinite(b_mat), axis=1)
                       & np.all(np.isfinite(sig), axis=(1, 2)))][0]
            raise EvalDomain(
                f"non-finite coefficient on path {int(indices[bad])} "
                f"at t={tcur[bad]:.6g}, x={x[bad].tolist()}")

        if config.adaptive:
            load = (np.sqrt(np.sum(b_mat * b_mat, axis=1))
                    + np.sum(sig * sig, axis=(1, 2)) + 1.0)
            dt = np.minimum(dt_max, dt_max / load)
        else:
            dt = np.full(len(ia), dt_max)

        # hard floor: terminate as numerical explosion (checked pre-clip)
        floored = dt < dt_min
        if np.any(floored):
            rows = ia[floored]
            status[rows] = 2
            end_time[rows] = tcur[rows]
            if L:
                unc = ~crossed[rows]
                passage[rows] = np.where(unc, tcur[rows][:, None],
                                         passage[rows])
                logz_pass[rows] = np.where(unc, logz[rows][:, None],
                                           logz_pass[rows])
                crossed[rows] = True
            alive[rows] = False
            keep = ~floored
            if not np.any(keep):
                k += 1
                continue
            ia, xa, ta = ia[keep], xa[keep], ta[keep]
            b_mat, sig, dt = b_mat[keep], sig[keep], dt[keep]

        next_eval = eval_times[eval_idx[ia]]
        dt = np.minimum(dt, next_eval - ta)

        if (k + 1) * d > normals.shape[1]:
            if k == 0:
                # every row is at x0: size the draw from the step there
                steps = int(math.ceil(config.horizon / max(
                    float(dt[0]), dt_max / _FIRST_LOAD_CAP))) + E + 8
            else:
                steps = 2 * k
            # live rows draw their streams from the start, so a grown
            # buffer continues each stream where the old one ended
            live = np.nonzero(alive)[0]
            normals = normal_block(config.seed, indices[live], steps * d)
            slot[live] = np.arange(live.size)

        dW = normals[slot[ia], k * d:(k + 1) * d] * np.sqrt(dt)[:, None]
        dx = b_mat * dt[:, None] + np.einsum("nij,nj->ni", sig, dW)

        if track_z:
            beta_mat = _eval_matrix(beta, ta, xa)
            q = q_expr.eval_array(ta, xa[:, 0]) if d == 1 else np.einsum(
                "ni,nij,nj->n", beta_mat,
                np.einsum("nik,njk->nij", sig, sig), beta_mat)
            if not (np.all(np.isfinite(beta_mat)) and np.all(np.isfinite(q))):
                raise EvalDomain("non-finite exponent coefficient")
            # beta integrates against the martingale part X^c only
            dx_mart = dx - b_mat * dt[:, None]
            logz[ia] += np.sum(beta_mat * dx_mart, axis=1) - 0.5 * q * dt
            nov[ia] += q * dt

        x_old_sup = None
        if bridge_gens is not None:
            x_old_sup = xa[:, 0].copy()
        x[ia] += dx
        tnew = ta + dt
        hit = tnew >= next_eval - _SNAP_EPS
        tnew = np.where(hit, next_eval, tnew)
        tcur[ia] = tnew

        norm = np.sqrt(np.sum(x[ia] * x[ia], axis=1))

        if L:
            newly = (~crossed[ia]) & (norm[:, None] >= levels[None, :])
            if bridge_gens is not None:
                # Brownian-bridge intra-step crossing for the nearest
                # uncrossed level (scalar case only)
                c_diag = sig[:, 0, 0] ** 2
                u = np.array([bridge_gens[row].random() for row in ia])
                for col in range(L):
                    m = levels[col]
                    cand = (~crossed[ia, col]) & (~newly[:, col]) \
                        & (x_old_sup < m) & (x[ia][:, 0] < m) & (c_diag > 0)
                    if np.any(cand):
                        p = np.exp(-2.0 * (m - x_old_sup[cand])
                                   * (m - x[ia][cand, 0])
                                   / (c_diag[cand] * dt[cand]))
                        newly[np.nonzero(cand)[0], col] |= u[cand] < p
                    break  # nearest uncrossed level only
            if np.any(newly):
                rows, cols = np.nonzero(newly)
                passage[ia[rows], cols] = tnew[rows]
                logz_pass[ia[rows], cols] = logz[ia[rows]]
                crossed[ia[rows], cols] = True

        # guard crossing: numerical explosion proxy
        blown = norm >= guard
        if np.any(blown):
            rows = ia[blown]
            status[rows] = 1
            end_time[rows] = tnew[blown]
            if L:
                unc = ~crossed[rows]
                passage[rows] = np.where(unc, tnew[blown][:, None],
                                         passage[rows])
                logz_pass[rows] = np.where(unc, logz[rows][:, None],
                                           logz_pass[rows])
                crossed[rows] = True
            alive[rows] = False

        if stop_at_largest_level and L:
            stopped = crossed[ia, L - 1] & alive[ia]
            if np.any(stopped):
                rows = ia[stopped]
                status[rows] = 3
                end_time[rows] = passage[rows, L - 1]
                alive[rows] = False

        if np.any(hit):
            rows = ia[hit & alive[ia]]
            if rows.size:
                cols = eval_idx[rows]
                logz_evals[rows, cols] = logz[rows]
                nov_evals[rows, cols] = nov[rows]
                eval_idx[rows] = cols + 1
                done = rows[eval_idx[rows] >= E]
                if done.size:
                    status[done] = 0
                    end_time[done] = tcur[done]
                    alive[done] = False
        k += 1

    return EnsembleResult(status, end_time, x, logz, passage, logz_pass,
                          logz_evals, nov_evals)


def run_ensemble(spec: DiffusionSpec, config: SimConfig, *,
                 exp: ExponentSpec = None, levels=(), eval_times=None,
                 stop_at_largest_level=False,
                 threads=1) -> EnsembleResult:
    """Simulate an ensemble; the workhorse behind every estimator.

    eval_times defaults to (horizon,); it must be sorted, positive and end
    at the horizon.  Paths run in chunks of CHUNK_SIZE (`map_chunks`), so
    `threads` never changes the output.
    """
    if eval_times is None:
        eval_times = (config.horizon,)
    eval_times = tuple(float(t) for t in eval_times)
    if list(eval_times) != sorted(set(eval_times)):
        raise ValidationError("eval_times must be strictly increasing")
    if eval_times[0] <= 0 or eval_times[-1] != config.horizon:
        raise ValidationError(
            "eval_times must be positive and end at the horizon")
    levels = tuple(float(m) for m in levels)
    if list(levels) != sorted(levels):
        raise ValidationError("levels must be increasing")

    beta = q_expr = None
    if exp is not None:
        beta = exp.beta
        q_expr = quadratic_exponent(spec, exp)

    def work(indices):
        return _run_chunk(spec, config, indices, levels, eval_times, beta,
                          q_expr, stop_at_largest_level)

    return EnsembleResult(*map_chunks(work, config.n_paths, CHUNK_SIZE,
                                      threads))


def estimate_mean_direct(spec: DiffusionSpec, exp: ExponentSpec, t: float,
                         config: SimConfig, threads=1) -> MCEstimate:
    """Sample mean of Z_t under the ORIGINAL dynamics.

    Downward-biased for strict local martingales: the missing mass sits in
    rare huge samples, which the heavy-tail diagnostic flags.
    """
    if t > config.horizon:
        raise ValidationError("t must not exceed the horizon")
    cfg = replace(config, dt_max=min(config.dt_max, t), horizon=t)
    result = run_ensemble(spec, cfg, exp=exp, eval_times=(t,),
                          threads=threads)
    logs = result.logz_evals[:, 0]
    incomplete = np.isnan(logs)
    notes = []
    if np.any(incomplete):
        notes.append(f"{int(np.sum(incomplete))} path(s) ended in "
                     "NumericalExplosion before t; their last Z value "
                     "was used")
        logs = np.where(incomplete, result.final_logz, logs)
    est = MCEstimate.from_samples(np.exp(logs), notes=notes)
    est.n_effective = int(np.sum(~incomplete))
    return est


def novikov_estimate(spec: DiffusionSpec, exp: ExponentSpec, t: float,
                     config: SimConfig, threads=1) -> MCEstimate:
    """Sample mean of exp(0.5 int_0^t q(s, X_s) ds) under the original
    dynamics; divergence shows up as heavy_tail_flag plus a sample mean
    that keeps growing with n_paths (reported, not proven)."""
    if t > config.horizon:
        raise ValidationError("t must not exceed the horizon")
    cfg = replace(config, dt_max=min(config.dt_max, t), horizon=t)
    result = run_ensemble(spec, cfg, exp=exp, eval_times=(t,),
                          threads=threads)
    nov = result.nov_evals[:, 0]
    notes = []
    incomplete = np.isnan(nov)
    if np.any(incomplete):
        notes.append(f"{int(np.sum(incomplete))} incomplete path(s)")
        nov = nov[~incomplete]
    with np.errstate(over="ignore"):
        samples = np.exp(0.5 * nov)
    if np.any(np.isinf(samples)):
        notes.append("overflowing samples clipped to 1e308")
        samples = np.minimum(samples, 1e308)
    return MCEstimate.from_samples(samples, notes=notes)


def survival_curve(passage_times, plan: LocalizationPlan, t: float,
                   notes=()) -> DeficitCurve:
    """Survival Q_hat(rho_n > t) per plan level from first-passage times
    (one row per path, one column per level); a level whose time cap is
    at most t survives with probability 0 by construction.  Converged
    when the last two levels agree within twice the summed standard
    errors."""
    n = len(passage_times)
    entries = []
    for j, (m, cap) in enumerate(zip(plan.levels, plan.time_caps)):
        if cap <= t:
            q_hat, se = 0.0, 0.0
        else:
            q_hat = float(np.mean(passage_times[:, j] > t))
            se = math.sqrt(q_hat * (1.0 - q_hat) / n)
        entries.append((m, cap, q_hat, se))
    (_, _, q_prev, se_prev), (_, _, q_last, se_last) = entries[-2:]
    return DeficitCurve(
        entries=entries, extrapolated_expectation=q_last,
        converged=abs(q_last - q_prev) <= 2.0 * (se_last + se_prev),
        notes=list(notes))


def estimate_deficit_localized(modified_spec: DiffusionSpec,
                               plan: LocalizationPlan, t: float,
                               config: SimConfig, threads=1,
                               raise_on_coarse=True) -> DeficitCurve:
    """Deficit 1 - E[Z_t] via survival under the MODIFIED dynamics.

    Uses one shared ensemble for all levels, so the survival column is
    exactly nondecreasing in n.  Converged when the last two levels agree
    within twice the summed standard errors.
    """
    config.check_plan(plan)
    if t > config.horizon:
        raise ValidationError("t must not exceed the horizon")
    cfg = replace(config, dt_max=min(config.dt_max, t), horizon=t)
    result = run_ensemble(modified_spec, cfg, levels=plan.levels,
                          eval_times=(t,), stop_at_largest_level=True,
                          threads=threads)
    notes = [f"level {m}: time cap {cap} <= t, survival is 0 by "
             "construction"
             for m, cap in zip(plan.levels, plan.time_caps) if cap <= t]
    floored = int(np.sum(result.status == 2))
    if floored:
        notes.append(f"{floored} path(s) hit the step-size floor and were "
                     "treated as exploded (conservative)")
    curve = survival_curve(result.passage_times, plan, t, notes)
    if not curve.converged and raise_on_coarse:
        q_prev, q_last = curve.entries[-2][2], curve.entries[-1][2]
        raise PlanTooCoarse(
            "survival did not stabilize across the last two levels "
            f"({q_prev:.6g} vs {q_last:.6g}); extend the plan", curve=curve)
    return curve


def localized_bound_check(spec: DiffusionSpec, exp: ExponentSpec,
                          plan: LocalizationPlan):
    """Bounds c_n = cap_n * sup q over {s <= cap_n, ||x|| <= m_n} * 1.1.

    A finite c_n certifies that Z stopped at the level-n exit is a
    uniformly integrable martingale.  The sup is taken over refining grids
    (65..513 points per axis) with a 10% safety margin; a sup that keeps
    growing under refinement raises UnboundedOnCompact.
    """
    q_expr = quadratic_exponent(spec, exp)
    time_dep = q_expr.depends_on_time()
    bounds = []
    for m, cap in zip(plan.levels, plan.time_caps):
        sup = None
        for n_pts in (65, 129, 257, 513):
            grid_sup = 0.0
            # state grid per coordinate, clipped to the interval
            per_coord = []
            open_sides = []
            for (l, r) in spec.intervals:
                lo, hi = max(-m, l), min(m, r)
                eps = (hi - lo) / (10.0 * n_pts)
                lo_open = lo == l and math.isfinite(l)
                hi_open = hi == r and math.isfinite(r)
                pts = np.linspace(lo + (eps if lo_open else 0.0),
                                  hi - (eps if hi_open else 0.0), n_pts)
                per_coord.append(pts)
                open_sides.append(lo_open or hi_open)
            ts = np.linspace(0.0, cap, n_pts) if time_dep else [0.0]
            for tv in ts:
                for pts in per_coord:
                    vals = q_expr.eval_array(tv, pts)
                    if not np.all(np.isfinite(vals)):
                        raise UnboundedOnCompact(
                            f"q non-finite on the level-{m} region")
                    grid_sup = max(grid_sup, float(np.max(vals)))
            if sup is not None:
                if sup > 0 and grid_sup > 2.0 * sup:
                    raise UnboundedOnCompact(
                        f"sup of q on the level-{m} region keeps growing "
                        f"under grid refinement ({sup:.4g} -> "
                        f"{grid_sup:.4g})")
                if grid_sup <= sup * 1.01 + 1e-300:
                    sup = max(sup, grid_sup)
                    break
            sup = max(grid_sup, sup or 0.0)
        bounds.append(cap * sup * 1.1)
    return bounds


def stopped_exponential_means(spec: DiffusionSpec, exp: ExponentSpec,
                              t: float, plan: LocalizationPlan,
                              config: SimConfig, threads=1):
    """Sample means of Z_{t and rho_n} under the ORIGINAL dynamics.

    For plan levels passing localized_bound_check these must be 1 within
    Monte Carlo noise (optional stopping for the stopped UI martingale).
    Returns one MCEstimate per level.
    """
    config.check_plan(plan)
    eval_times = sorted({c for c in plan.time_caps if c < t} | {t})
    cfg = replace(config, dt_max=min(config.dt_max, t), horizon=t)
    result = run_ensemble(spec, cfg, exp=exp, levels=plan.levels,
                          eval_times=tuple(eval_times),
                          stop_at_largest_level=True, threads=threads)
    eval_index = {tv: j for j, tv in enumerate(eval_times)}
    estimates = []
    for j, (m, cap) in enumerate(zip(plan.levels, plan.time_caps)):
        t_eff = min(cap, t)
        col = eval_index[t_eff]
        pas = result.passage_times[:, j]
        logz_cut = result.logz_evals[:, col]
        # paths stopped at the largest level before t_eff have no logz at
        # t_eff; their rho_n occurred at or before that stop, so only rows
        # with pas >= t_eff need logz_cut
        logz = np.where(pas <= t_eff, result.logz_at_passage[:, j], logz_cut)
        valid = ~np.isnan(logz)
        estimates.append(MCEstimate.from_samples(
            np.exp(logz[valid]),
            notes=([] if np.all(valid) else
                   [f"{int(np.sum(~valid))} path(s) lacked a value at "
                    f"t_and_rho_{j + 1} and were dropped"])))
    return estimates


def deficit_for(spec: DiffusionSpec, exp: ExponentSpec,
                plan: LocalizationPlan, t: float, config: SimConfig,
                threads=1, raise_on_coarse=True) -> DeficitCurve:
    """Convenience wrapper: build the modified dynamics and estimate."""
    return estimate_deficit_localized(modified_drift(spec, exp), plan, t,
                                      config, threads=threads,
                                      raise_on_coarse=raise_on_coarse)
