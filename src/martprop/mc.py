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
path_index) via its counter-based streams, which a chunk draws for its
live paths in one batch (`rng.normal_block`; no engine calls
`path_generator`).  A path that outgrows its chunk's normal buffer
continues its stream in a new buffer of the steps not yet taken, drawn at
an offset (the prefix is replayed into a scratch row and dropped), so it
reads the same normals as one buffer from step 0 would hold.  Ensembles
are reduced in path-index order, so results are bit-identical for any
worker count.

A chunk holds the state of its live paths coordinate-major, one vector
per coordinate, and evaluates b and sigma per coordinate; sums over
coordinates run term by term in a fixed order.  `Passages` records first
passages for this engine and for the jump and Hilbert kits: a live path
carries only the number of levels it has crossed.
"""

from __future__ import annotations

import functools
import math
import operator
import os
from concurrent import futures
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import EvalDomain, UnboundedOnCompact, ValidationError
from .model import (DiffusionSpec, ExponentSpec, LocalizationPlan,
                    modified_drift, quadratic_exponent)
from .rng import normal_block

CHUNK_SIZE = 4096
_SNAP_EPS = 1e-12
# the first normal buffer holds at most horizon * _FIRST_LOAD_CAP / dt_max
# steps per path, whatever the load at x0; paths still live at step k,
# where a buffer ends, draw steps [k, 2k) into the next one
_FIRST_LOAD_CAP = 4.0


@dataclass(frozen=True)
class SimConfig:
    n_paths: int
    dt_max: float
    horizon: float
    seed: int = 0
    explosion_guard: float = 1e6

    def __post_init__(self):
        for name in ("n_paths", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value,
                                                         (int, np.integer)):
                raise ValidationError(f"{name} must be an integer, "
                                      f"got {value!r}")
        if self.n_paths < 1:
            raise ValidationError("n_paths must be positive")
        if not 0 <= self.seed < 2 ** 64:
            raise ValidationError(f"seed must lie in [0, 2^64), got "
                                  f"{self.seed}")
        if not 0 < self.dt_max <= self.horizon:
            raise ValidationError("need 0 < dt_max <= horizon")
        if self.explosion_guard <= 0:
            raise ValidationError("explosion_guard must be positive")

    @property
    def dt_min(self):
        return self.dt_max * 1e-6

    def until(self, t):
        """The config of a run to time t: horizon t, dt_max capped at t.
        Refuses a t beyond the horizon."""
        if t > self.horizon:
            raise ValidationError("t must not exceed the horizon")
        return replace(self, dt_max=min(self.dt_max, t), horizon=t)

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
    deficit: float      # 1 - the last level's survival
    converged: bool
    notes: list = field(default_factory=list)


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


def fixed_grid(horizon, dt_max, extra=()):
    """Times 0 = t_0 < ... = horizon: ceil(horizon / dt_max) equal steps,
    plus the times in `extra` that lie in (0, horizon]; the fixed grid
    of the jump and Hilbert kits."""
    steps = max(1, int(math.ceil(horizon / dt_max)))
    times = set(np.linspace(0.0, horizon, steps + 1).tolist())
    times.update(float(t) for t in extra if 0.0 < t <= horizon)
    return np.array(sorted(times))


def _total(terms):
    """Sum of per-path vectors, term by term, as numpy sums a row of
    fewer than 8; numpy starts from +0.0, which only fixes the sign of a
    zero."""
    return functools.reduce(operator.add, terms)


class Passages:
    """First passages of a path norm over increasing levels, for paths
    that advance in lockstep; the diffusion, jump and Hilbert engines
    record through it.

    `times[p, j]` is the first time path p's norm reached `levels[j]`
    (inf if never) and `values[p, j]` the value the caller passes with
    it (log Z or Z; nan if none).  `cross` takes that value as a
    function of the live positions that crossed, so a caller forms it
    only for them.  The levels a path has crossed are
    always the first ones, because the levels increase, so each live
    path carries only their number: `count`, an array of the caller's
    live state, which each call updates in place.  `rows` maps the
    caller's live positions to rows of `times`.
    """

    def __init__(self, n, levels):
        self.levels = np.asarray(levels, dtype=np.float64)
        if np.any(self.levels[1:] < self.levels[:-1]):
            raise ValidationError("levels must be increasing")
        self._next = np.append(self.levels, math.inf)
        self.times = np.full((n, len(self.levels)), math.inf)
        self.values = np.full((n, len(self.levels)), math.nan)

    def cross(self, count, rows, norm, t, value=None):
        """Record every level at or below `norm` that a live path had not
        crossed, at time `t`, with `value(i)` (one value per crossing live
        position in `i`); return the live positions that crossed."""
        i = (norm >= self._next[count]).nonzero()[0]
        if i.size:
            self.mark(count, rows, i, np.searchsorted(
                self.levels, norm[i], side="right"), t,
                None if value is None else value(i))
        return i

    def mark(self, count, rows, i, upto, t, value=None):
        """Live paths `i` pass levels count[i], ..., upto - 1 at time `t`
        (a scalar, or one per live path), with `value` (one per path in
        `i`)."""
        cols = np.arange(len(self.levels))
        k, col = np.nonzero((cols >= count[i][:, None])
                            & (cols < np.reshape(upto, (-1, 1))))
        live = i[k]
        self.times[rows[live], col] = t[live] if np.ndim(t) else t
        if value is not None:
            self.values[rows[live], col] = value[k]
        count[i] = upto


def _run_chunk(spec, config, indices, levels, eval_times, beta, q_expr,
               stop_at_largest_level):
    d = spec.dim
    n = len(indices)
    E = len(eval_times)
    eval_times = np.append(np.asarray(eval_times, dtype=np.float64),
                           math.inf)
    dt_max, dt_min = config.dt_max, config.dt_min
    passages = Passages(n, levels)
    L = len(passages.levels)

    # per-path outputs: passages and eval-time values are written as they
    # happen, the rest once, when the path ends
    status = np.zeros(n, dtype=np.int8)
    end_time = np.empty(n)
    final_state = np.empty((n, d))
    final_logz = np.empty(n)
    logz_evals = np.full((n, E), math.nan)
    nov_evals = np.full((n, E), math.nan)

    # state of the live paths only, in path order, coordinate-major (x[i]
    # is coordinate i of every live path): `row` is a path's row in the
    # outputs and `slot` its row in the normal buffer, whose first column
    # is step `drawn_at` of each live path's stream; `count` is its number
    # of levels crossed and `eidx` of eval times passed, and `next_eval`
    # the eval time it steps towards
    row = np.arange(n)
    x = np.repeat(np.asarray(spec.x0, dtype=np.float64)[:, None], n, axis=1)
    t = np.zeros(n)
    logz = np.zeros(n)
    nov = np.zeros(n)
    eidx = np.zeros(n, dtype=np.intp)
    next_eval = np.full(n, eval_times[0])
    count = np.zeros(n, dtype=np.intp)
    slot = row
    normals = np.empty((0, 0))
    drawn_at = 0

    def domain_error(what, finite):
        bad = np.flatnonzero(~finite)[0]
        return EvalDomain(f"non-finite {what} on path "
                          f"{int(indices[row[bad]])} at t={t[bad]:.6g}, "
                          f"x={x[:, bad].tolist()}")

    def explode(ended, code):
        # a path ending at the guard or the step floor passes every level
        # it has not crossed, at its end time
        status[row[ended]] = code
        i = np.flatnonzero(ended)
        passages.mark(count, row, i, L, t, logz[i])

    def retire(ended):
        # write the outputs of the ended paths; return the live state of
        # the others and the mask that cuts it
        r = row[ended]
        end_time[r] = t[ended]
        final_state[r] = x[:, ended].T
        final_logz[r] = logz[ended]
        keep = ~ended
        return (keep, row[keep], x[:, keep], t[keep], logz[keep], nov[keep],
                eidx[keep], next_eval[keep], count[keep], slot[keep])

    k = 0
    while row.size:
        b = [e.eval_array(t, xi) for e, xi in zip(spec.b, x)]
        sig = [[e.eval_array(t, xi) for e in es]
               for es, xi in zip(spec.sigma, x)]
        coefs = b + [s for si in sig for s in si]
        load = (np.sqrt(_total(v * v for v in b))
                + _total(v * v for v in coefs[d:]) + 1.0)
        # a non-finite coefficient makes the load non-finite
        if not np.isfinite(load).all():
            finite = np.logical_and.reduce([np.isfinite(c) for c in coefs])
            if not finite.all():
                raise domain_error("coefficient", finite)

        dt = dt_max / load          # load >= 1, so dt <= dt_max
        # hard floor: terminate as numerical explosion (checked pre-clip)
        floored = dt < dt_min
        if floored.any():
            explode(floored, 2)
            (keep, row, x, t, logz, nov, eidx, next_eval, count,
             slot) = retire(floored)
            if not row.size:
                break
            b = [v[keep] for v in b]
            sig = [[v[keep] for v in si] for si in sig]
            dt = dt[keep]

        dt = np.minimum(dt, next_eval - t)

        if (k - drawn_at + 1) * d > normals.shape[1]:
            if k == 0:
                # every row is at x0: size the draw from the step there
                steps = int(math.ceil(config.horizon / max(
                    float(dt[0]), dt_max / _FIRST_LOAD_CAP))) + E + 8
            else:
                steps = k   # each live stream continues at step k
            drawn_at = k
            normals = None  # so the old buffer is freed before the draw
            normals = normal_block(config.seed, indices[row], steps * d,
                                   start=k * d)
            slot = np.arange(row.size)
        # a plain slice until some path ends after the draw
        rows = slice(None) if slot.size == len(normals) else slot

        root = np.sqrt(dt)
        col = (k - drawn_at) * d
        dW = [normals[rows, col + j] * root for j in range(d)]
        b_dt = [bi * dt for bi in b]
        # sigma dW sums from +0, as einsum does, so a -0.0 product adds
        # as +0.0
        dx = [bi + sum(s * w for s, w in zip(si, dW))
              for bi, si in zip(b_dt, sig)]

        if beta is not None:
            bv = [e.eval_array(t, xi) for e, xi in zip(beta, x)]
            if d == 1:
                q = q_expr.eval_array(t, x[0])
            else:
                sig_t = np.stack([np.stack(si, axis=1) for si in sig],
                                 axis=1)
                beta_t = np.stack(bv, axis=1)
                q = np.einsum("ni,nij,nj->n", beta_t,
                              np.einsum("nik,njk->nij", sig_t, sig_t),
                              beta_t)
            finite = np.isfinite(q)
            for v in bv:
                finite &= np.isfinite(v)
            if not finite.all():
                raise domain_error("exponent coefficient", finite)
            # beta integrates against the martingale part X^c only
            logz += (_total(v * (dxi - bdt)
                            for v, dxi, bdt in zip(bv, dx, b_dt))
                     - 0.5 * q * dt)
            nov += q * dt

        for xi, dxi in zip(x, dx):
            xi += dxi
        t += dt
        hit = t >= next_eval - _SNAP_EPS
        any_hit = hit.any()
        if any_hit:
            t[hit] = next_eval[hit]
        norm = np.sqrt(_total(xi * xi for xi in x))

        crossed = (passages.cross(count, row, norm, t, logz.__getitem__)
                   if L else ())

        # guard crossing: numerical explosion proxy
        ended = norm >= config.explosion_guard
        done = ended.any()
        if done:
            explode(ended, 1)
        if stop_at_largest_level and len(crossed):
            # a path stops the step it first crosses the largest level,
            # so its end time `t` is that passage
            stopped = crossed[(count[crossed] == L) & ~ended[crossed]]
            status[row[stopped]] = 3
            ended[stopped] = True
            done |= stopped.size > 0
        if any_hit:
            hit &= ~ended
            rr, cols = row[hit], eidx[hit]
            logz_evals[rr, cols] = logz[hit]
            nov_evals[rr, cols] = nov[hit]
            eidx[hit] = cols + 1
            next_eval[hit] = eval_times[cols + 1]
            ended |= eidx >= E
            done = ended.any()
        if done:
            (_, row, x, t, logz, nov, eidx, next_eval, count,
             slot) = retire(ended)
        k += 1

    return EnsembleResult(status, end_time, final_state, final_logz,
                          passages.times, passages.values, logz_evals,
                          nov_evals)


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
    result = run_ensemble(spec, config.until(t), exp=exp, eval_times=(t,),
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
    result = run_ensemble(spec, config.until(t), exp=exp, eval_times=(t,),
                          threads=threads)
    nov = result.nov_evals[:, 0]
    notes = []
    incomplete = np.isnan(nov)
    if np.any(incomplete):
        notes.append(f"{int(np.sum(incomplete))} incomplete path(s)")
        nov = nov[~incomplete]
    return novikov_mean(nov, notes)


def novikov_mean(nov, notes=()) -> MCEstimate:
    """Sample mean of exp(0.5 nov), one sample per entry of `nov`; a
    sample that overflows is clipped to 1e308, with a note after
    `notes`."""
    notes = list(notes)
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
    at most t survives with probability 0 by construction, which a note
    ahead of `notes` says.  Converged when the last two levels agree
    within twice the summed standard errors, and neither is such a
    level."""
    n = len(passage_times)
    entries = []
    capped = []
    for j, (m, cap) in enumerate(zip(plan.levels, plan.time_caps)):
        if cap <= t:
            q_hat, se = 0.0, 0.0
            capped.append(f"level {m}: time cap {cap} <= t, survival is 0 "
                          "by construction")
        else:
            q_hat = float(np.mean(passage_times[:, j] > t))
            se = math.sqrt(q_hat * (1.0 - q_hat) / n)
        entries.append((m, cap, q_hat, se))
    (_, _, q_prev, se_prev), (_, _, q_last, se_last) = entries[-2:]
    return DeficitCurve(
        entries=entries, deficit=1.0 - q_last,
        converged=(plan.time_caps[-2] > t
                   and abs(q_last - q_prev) <= 2.0 * (se_last + se_prev)),
        notes=capped + list(notes))


def estimate_deficit_localized(modified_spec: DiffusionSpec,
                               plan: LocalizationPlan, t: float,
                               config: SimConfig, threads=1) -> DeficitCurve:
    """Deficit 1 - E[Z_t] via survival under the MODIFIED dynamics.

    Uses one shared ensemble for all levels, so the survival column is
    exactly nondecreasing in n.  Converged when the last two levels agree
    within twice the summed standard errors.
    """
    config.check_plan(plan)
    result = run_ensemble(modified_spec, config.until(t),
                          levels=plan.levels, eval_times=(t,),
                          stop_at_largest_level=True, threads=threads)
    floored = int(np.sum(result.status == 2))
    return survival_curve(result.passage_times, plan, t, [
        f"{floored} path(s) hit the step-size floor and were treated as "
        "exploded (conservative)"] if floored else [])


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
    result = run_ensemble(spec, config.until(t), exp=exp,
                          levels=plan.levels, eval_times=tuple(eval_times),
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
                threads=1) -> DeficitCurve:
    """Convenience wrapper: build the modified dynamics and estimate."""
    return estimate_deficit_localized(modified_drift(spec, exp), plan, t,
                                      config, threads=threads)
