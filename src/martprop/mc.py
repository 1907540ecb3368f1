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
`path_generator`).  The first buffer is sized from the load near x0
(`_first_steps`).  A path that outgrows a buffer continues its stream in
a new buffer of the steps not yet taken: the first grown buffer replays
each stream's prefix into a scratch row, and every grown buffer keeps
each stream's state at its end, so later ones generate only their own
steps.  A path reads the same normals as one buffer from step 0 would
hold.  Ensembles are reduced in path-index order, so results are
bit-identical for any worker count.

A path runs to the horizon, its last step cut short there, unless it
ends first at the explosion guard, at the step floor or (when asked) at
the largest level.  A chunk holds the state of its live paths
coordinate-major, one vector per coordinate, and evaluates b and sigma
per coordinate; sums over coordinates run term by term in a fixed order.
A coefficient that reads neither t nor x is evaluated once per chunk.
`Passages` records first passages for this engine and for the jump and
Hilbert kits: a live path carries only the number of levels it has
crossed.
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
                    _check_compatible, modified_drift)
from .rng import normal_block

CHUNK_SIZE = 4096
_SNAP_EPS = 1e-12
# the first normal buffer holds at most horizon * _FIRST_LOAD_CAP / dt_max
# steps per path (see _first_steps); paths still live at step k, where a
# buffer ends, draw steps [k, 2k) into the next one, or as many steps as
# keep it within _GROWN_NORMALS normals (16 MiB): a late growth is drawn
# for the stragglers of a chunk, and most of them end within a few
# hundred steps of it
_FIRST_LOAD_CAP = 4.0
_GROWN_NORMALS = 1 << 21


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
        if not 0 < self.explosion_guard < math.inf:
            raise ValidationError("explosion_guard must be positive and "
                                  "finite")

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

    def to_dict(self):
        return {**vars(self), "entries": [
            {"level": lv, "time_cap": cap, "survival": q, "std_error": se}
            for (lv, cap, q, se) in self.entries]}


class EnsembleResult(NamedTuple):
    """Per-path outputs, in path-index order; a path of status 0 ends at
    the horizon, so its final values are those at the horizon."""

    status: np.ndarray          # int8: 0 horizon, 1 guard, 2 dt floor, 3 level
    end_time: np.ndarray
    final_state: np.ndarray     # (n, dim)
    final_logz: np.ndarray
    passage_times: np.ndarray   # (n, L) first time ||X|| >= level, inf if never
    logz_at_passage: np.ndarray
    final_nov: np.ndarray       # accumulated integral of q


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


def _quadratic(beta, sig):
    """q = beta^T c beta per path, c_ij = sum_k sigma_ik sigma_jk, from the
    exponent's coordinate vectors and the dispersion's entry vectors:
    sum_i sum_j (beta_i c_ij) beta_j, each sum term by term.  A
    non-finite beta_i makes q non-finite, which the caller reports."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _total((bi * _total(s * r for s, r in zip(si, sj))) * bj
                      for bi, si in zip(beta, sig)
                      for bj, sj in zip(beta, sig))


class Passages:
    """First passages of a path norm over increasing levels, for paths
    that advance in lockstep; the diffusion, jump and Hilbert engines
    record through it.

    `times[p, j]` is the first time path p's norm reached `levels[j]`
    (inf if never) and `values[p, j]` the log Z the caller passes with
    it (nan if none).  `cross` takes that value as a function of the
    live positions that crossed, so a caller forms it only for them.
    The levels a path has crossed are always the first ones, because the
    levels increase, so each live path carries only their number:
    `count`, an array of the caller's live state, which each call
    updates in place.  `rows` maps the caller's live positions to rows
    of `times`.
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


def _at_chunk(expr, n):
    """`expr.eval_array` for the live paths of a chunk of n.  An
    expression that reads neither t nor x is evaluated once, over n
    paths, and sliced to the live ones: numpy gives each element of a
    contiguous array the bits it gives a one-element array (its power
    takes other paths only on 0-d and stride-0 operands)."""
    if expr.free_variables():
        return expr.eval_array
    values = expr.eval_array(0.0, np.zeros(n))
    return lambda t, x: values[:x.size]


def _load(b, sig):
    """|b| + |sigma|^2 + 1 per path, from the drift's coordinate vectors
    and the dispersion's entry vectors: the step is dt_max over it.  For
    one coordinate |b| is abs(b), which equals sqrt(b * b) wherever b * b
    neither overflows nor underflows, and gives the same sum otherwise:
    |b| + |sigma|^2 + 1 rounds the same for any |b| below 1e-154, and a
    |b| above 1e154 puts the step under the floor either way."""
    norm = np.abs(b[0]) if len(b) == 1 else np.sqrt(_total(v * v for v in b))
    return norm + _total(s * s for si in sig for s in si) + 1.0


def _first_steps(spec, config):
    """Steps in a chunk's first normal buffer: the horizon at dt_max over
    the mean load at x0 and at 1 and 2 noise deviations sqrt(c_ii(x0)
    horizon) either side of it, plus a margin.  A mean above
    _FIRST_LOAD_CAP (or not finite) says that steps shrink fast away from
    x0: the paths that go there outgrow any first buffer, so it is sized
    for the others, at the load at x0 (capped)."""
    x0 = np.asarray(spec.x0, dtype=np.float64)[:, None]
    with np.errstate(all="ignore"):
        dev = np.sqrt(config.horizon * np.array(
            [_total(e.eval_array(0.0, xi) ** 2 for e in es)
             for es, xi in zip(spec.sigma, x0)]))
        x = x0 + dev * np.arange(-2.0, 3.0)
        load = _load([e.eval_array(0.0, xi) for e, xi in zip(spec.b, x)],
                     [[e.eval_array(0.0, xi) for e in es]
                      for es, xi in zip(spec.sigma, x)])
    mean = float(np.mean(load))
    if not mean <= _FIRST_LOAD_CAP:
        mean = float(np.fmin(load[2], _FIRST_LOAD_CAP))
    return int(math.ceil(config.horizon * mean / config.dt_max)) + 9


def _run_chunk(spec, config, indices, levels, exp, stop_at_largest_level):
    d = spec.dim
    n = len(indices)
    horizon = config.horizon
    # a path is at the horizon once t passes it less _SNAP_EPS
    snap = horizon - _SNAP_EPS
    dt_max, dt_min = config.dt_max, config.dt_min
    passages = Passages(n, levels)
    L = len(passages.levels)
    b_at = [_at_chunk(e, n) for e in spec.b]
    sig_at = [[_at_chunk(e, n) for e in es] for es in spec.sigma]
    if exp is not None:
        beta_at = [_at_chunk(e, n) for e in exp.beta]
    # one coordinate's norm sqrt(x * x) is |x| but where x * x under- or
    # overflows, which moves no comparison with a level or guard in
    # [1e-150, 1e150]
    abs_norm = d == 1 and all(1e-150 <= v <= 1e150 for v in (
        *passages.levels, config.explosion_guard))

    # per-path outputs: passages are written as they happen, the rest
    # once, when the path ends
    status = np.zeros(n, dtype=np.int8)
    end_time = np.empty(n)
    final_state = np.empty((n, d))
    final_logz = np.empty(n)
    final_nov = np.empty(n)

    # state of the live paths only, in path order, coordinate-major (x[i]
    # is coordinate i of every live path): `row` is a path's row in the
    # outputs and `slot` its column in the normal buffer, which holds one
    # draw of every path per row, from step `drawn_at` of each stream;
    # `count` is its number of levels crossed
    row = np.arange(n)
    x = np.repeat(np.asarray(spec.x0, dtype=np.float64)[:, None], n, axis=1)
    t = np.zeros(n)
    logz = np.zeros(n)
    nov = np.zeros(n)
    count = np.zeros(n, dtype=np.intp)
    slot = row
    normals = np.empty((0, 0))
    states = None
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
        final_nov[r] = nov[ended]
        keep = ~ended
        return (keep, row[keep], x[:, keep], t[keep], logz[keep], nov[keep],
                count[keep], slot[keep])

    k = 0
    while row.size:
        b = [f(t, xi) for f, xi in zip(b_at, x)]
        sig = [[f(t, xi) for f in fs] for fs, xi in zip(sig_at, x)]
        dt = dt_max / _load(b, sig)
        # load >= 1, so dt <= dt_max; a non-finite coefficient makes the
        # load inf or nan and dt 0 or nan, so one test passes both checks
        if not (dt >= dt_min).all():
            finite = np.logical_and.reduce(
                [np.isfinite(c) for c in b + [s for si in sig for s in si]])
            if not finite.all():
                raise domain_error("coefficient", finite)
            # hard floor: terminate as numerical explosion (checked
            # pre-clip)
            floored = dt < dt_min
            explode(floored, 2)
            keep, row, x, t, logz, nov, count, slot = retire(floored)
            if not row.size:
                break
            b = [v[keep] for v in b]
            sig = [[v[keep] for v in si] for si in sig]
            dt = dt[keep]

        dt = np.minimum(dt, horizon - t)

        if (k - drawn_at + 1) * d > len(normals):
            normals = None  # so the old buffer is freed before the draw
            if k == 0:
                normals = normal_block(config.seed, indices,
                                       _first_steps(spec, config) * d,
                                       transposed=True)
            else:
                # steps [k, 2k), or fewer to hold _GROWN_NORMALS: the
                # first grown buffer replays each stream's first k steps,
                # later ones continue from the states the last kept
                steps = min(k, max(1, _GROWN_NORMALS // (row.size * d)))
                normals, states = normal_block(
                    config.seed, indices[row], steps * d, start=k * d,
                    states=None if states is None else states[slot],
                    keep=True, transposed=True)
            drawn_at = k
            slot = np.arange(row.size)
        # a plain slice until some path ends after the draw
        rows = slice(None) if slot.size == normals.shape[1] else slot

        root = np.sqrt(dt)
        col = (k - drawn_at) * d
        dW = [normals[col + j, rows] * root for j in range(d)]
        b_dt = [bi * dt for bi in b]
        # sigma dW sums from +0, so a -0.0 product adds as +0.0
        dx = [bi + sum(s * w for s, w in zip(si, dW))
              for bi, si in zip(b_dt, sig)]

        if exp is not None:
            bv = [f(t, xi) for f, xi in zip(beta_at, x)]
            q = _quadratic(bv, sig)
            if not np.isfinite(q).all():
                raise domain_error("exponent coefficient", np.isfinite(q))
            # beta integrates against the martingale part X^c only
            logz += (_total(v * (dxi - bdt)
                            for v, dxi, bdt in zip(bv, dx, b_dt))
                     - 0.5 * q * dt)
            nov += q * dt

        for xi, dxi in zip(x, dx):
            xi += dxi
        t += dt
        # reaching the horizon ends a path
        at_horizon = t >= snap
        t[at_horizon] = horizon
        norm = (np.abs(x[0]) if abs_norm
                else np.sqrt(_total(xi * xi for xi in x)))

        crossed = (passages.cross(count, row, norm, t, logz.__getitem__)
                   if L else ())

        # guard crossing: numerical explosion proxy
        ended = norm >= config.explosion_guard
        if ended.any():
            explode(ended, 1)
        if stop_at_largest_level and len(crossed):
            # a path stops the step it first crosses the largest level,
            # so its end time `t` is that passage
            stopped = crossed[(count[crossed] == L) & ~ended[crossed]]
            status[row[stopped]] = 3
            ended[stopped] = True
        ended |= at_horizon
        if ended.any():
            _, row, x, t, logz, nov, count, slot = retire(ended)
        k += 1

    return EnsembleResult(status, end_time, final_state, final_logz,
                          passages.times, passages.values, final_nov)


def run_ensemble(spec: DiffusionSpec, config: SimConfig, *,
                 exp: ExponentSpec = None, levels=(),
                 stop_at_largest_level=False,
                 threads=1) -> EnsembleResult:
    """Simulate an ensemble to the config's horizon; the workhorse behind
    every estimator.  Paths run in chunks of CHUNK_SIZE (`map_chunks`),
    so `threads` never changes the output.
    """
    if exp is not None:
        _check_compatible(spec, exp)

    def work(indices):
        return _run_chunk(spec, config, indices, levels, exp,
                          stop_at_largest_level)

    return EnsembleResult(*map_chunks(work, config.n_paths, CHUNK_SIZE,
                                      threads))


def estimate_mean_direct(spec: DiffusionSpec, exp: ExponentSpec, t: float,
                         config: SimConfig, threads=1) -> MCEstimate:
    """Sample mean of Z_t under the ORIGINAL dynamics.

    Downward-biased for strict local martingales: the missing mass sits in
    rare huge samples, which the heavy-tail diagnostic flags.
    """
    result = run_ensemble(spec, config.until(t), exp=exp, threads=threads)
    incomplete = result.status != 0
    notes = []
    if np.any(incomplete):
        notes.append(f"{int(np.sum(incomplete))} path(s) ended in "
                     "NumericalExplosion before t; their last Z value "
                     "was used")
    est = MCEstimate.from_samples(np.exp(result.final_logz), notes=notes)
    est.n_effective = int(np.sum(~incomplete))
    return est


def novikov_estimate(spec: DiffusionSpec, exp: ExponentSpec, t: float,
                     config: SimConfig, threads=1) -> MCEstimate:
    """Sample mean of exp(0.5 int_0^t q(s, X_s) ds) under the original
    dynamics; divergence shows up as heavy_tail_flag plus a sample mean
    that keeps growing with n_paths (reported, not proven)."""
    result = run_ensemble(spec, config.until(t), exp=exp, threads=threads)
    complete = result.status == 0
    notes = []
    if not np.all(complete):
        notes.append(f"{int(np.sum(~complete))} incomplete path(s)")
    return novikov_mean(result.final_nov[complete], notes)


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


def localized_bound_check(spec: DiffusionSpec, exp: ExponentSpec,
                          plan: LocalizationPlan):
    """Bounds c_n = cap_n * sup q over {s <= cap_n, ||x|| <= m_n} * 1.1.

    A finite c_n certifies that Z stopped at the level-n exit is a
    uniformly integrable martingale.  The sup is taken over refining grids
    (65..513 points per axis; the k-th points of the axes form a state,
    and each entry reads its own coordinate there, as the engine does)
    with a 10% safety margin; a sup that keeps growing under refinement
    raises UnboundedOnCompact.  Where q reads t (beta does, or sigma does
    and beta is not zero) an infinite time cap is refused.
    """
    _check_compatible(spec, exp)
    time_dep = any(e.depends_on_time() for e in exp.beta) or (
        not exp.is_zero()
        and any(e.depends_on_time() for row in spec.sigma for e in row))
    if time_dep and plan.time_caps[-1] == math.inf:
        m = plan.levels[plan.time_caps.index(math.inf)]
        raise ValidationError(f"level {m}: q = beta^T c beta reads t, so "
                              "its time cap must be finite")
    bounds = []
    for m, cap in zip(plan.levels, plan.time_caps):
        sup = None
        for n_pts in (65, 129, 257, 513):
            grid_sup = 0.0
            # state grid per coordinate, clipped to the interval
            per_coord = []
            for (l, r) in spec.intervals:
                lo, hi = max(-m, l), min(m, r)
                eps = (hi - lo) / (10.0 * n_pts)
                lo_open = lo == l and math.isfinite(l)
                hi_open = hi == r and math.isfinite(r)
                pts = np.linspace(lo + (eps if lo_open else 0.0),
                                  hi - (eps if hi_open else 0.0), n_pts)
                per_coord.append(pts)
            ts = np.linspace(0.0, cap, n_pts) if time_dep else [0.0]
            for tv in ts:
                vals = _quadratic(
                    [e.eval_array(tv, x) for e, x in zip(exp.beta, per_coord)],
                    [[e.eval_array(tv, x) for e in row]
                     for row, x in zip(spec.sigma, per_coord)])
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
    Returns one MCEstimate per level, from one ensemble per distinct
    min(cap_n, t), run to that time: a level reads the bits that a call
    at t = min(cap_n, t) gives it.
    """
    config.check_plan(plan)
    config = config.until(t)    # refuses a t beyond the horizon
    estimates = []
    run_to = None
    for j, cap in enumerate(plan.time_caps):
        t_eff = min(cap, t)
        if t_eff != run_to:     # the caps are nondecreasing
            result = run_ensemble(spec, config.until(t_eff), exp=exp,
                                  levels=plan.levels,
                                  stop_at_largest_level=True, threads=threads)
            run_to = t_eff
        # a path ending before t_eff passes every level at its end, so one
        # that has not passed m_n by t_eff ran to it
        pas = result.passage_times[:, j]
        logz = np.where(pas <= t_eff, result.logz_at_passage[:, j],
                        result.final_logz)
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
    """Deficit 1 - E[Z_t] via survival under the MODIFIED dynamics
    (`modified_drift`; a zero exponent keeps the drift).

    Uses one shared ensemble for all levels, so the survival column is
    exactly nondecreasing in n.  Converged when the last two levels agree
    within twice the summed standard errors and no path ended at the step
    floor: such a path counts as exploded at every level it had not
    passed, so floor hits move the levels together and the deficit may
    overstate the true one by up to their share of paths.
    """
    config.check_plan(plan)
    result = run_ensemble(modified_drift(spec, exp), config.until(t),
                          levels=plan.levels, stop_at_largest_level=True,
                          threads=threads)
    floored = int(np.sum(result.status == 2))
    curve = survival_curve(result.passage_times, plan, t, [
        f"{floored} path(s) hit the step-size floor and were treated as "
        "exploded, so the deficit may overstate the true one by up to "
        f"{floored / len(result.status):.4g}; not converged"]
        if floored else [])
    curve.converged = curve.converged and not floored
    return curve
