import math

import numpy as np
import pytest

from martprop import mc
from martprop.errors import EvalDomain, UnboundedOnCompact, ValidationError
from martprop.mc import (
    MCEstimate,
    SimConfig,
    deficit_for,
    estimate_mean_direct,
    run_ensemble,
    stopped_exponential_means,
    survival_curve,
)
from martprop.model import (
    DiffusionSpec,
    ExponentSpec,
    LocalizationPlan,
)
from martprop.expr import parse
from martprop.rng import MAIN_STREAM, normal_block, path_generator

BM = DiffusionSpec.scalar("0", "1")
BETA_X = ExponentSpec.scalar("x")
CFG = SimConfig(n_paths=2000, dt_max=0.01, horizon=1.0, seed=3)
PLAN = LocalizationPlan(levels=(4.0, 8.0, 16.0, 32.0),
                        time_caps=(2.0, 2.0, 2.0, 2.0))


# --- determinism --------------------------------------------------------------

def test_repeat_runs_identical():
    r1 = run_ensemble(BM, CFG, exp=BETA_X, levels=PLAN.levels)
    r2 = run_ensemble(BM, CFG, exp=BETA_X, levels=PLAN.levels)
    np.testing.assert_array_equal(r1.final_state, r2.final_state)
    np.testing.assert_array_equal(r1.final_logz, r2.final_logz)
    np.testing.assert_array_equal(r1.passage_times, r2.passage_times)


def test_thread_count_does_not_change_output():
    cfg = SimConfig(n_paths=9000, dt_max=0.02, horizon=1.0, seed=5)
    r1 = run_ensemble(BM, cfg, exp=BETA_X, threads=1)
    r8 = run_ensemble(BM, cfg, exp=BETA_X, threads=8)
    np.testing.assert_array_equal(r1.final_state, r8.final_state)
    np.testing.assert_array_equal(r1.final_logz, r8.final_logz)
    np.testing.assert_array_equal(r1.final_nov, r8.final_nov)


def test_chunk_size_does_not_change_output(monkeypatch):
    # paths stop at the level at different iterations, so a chunk of 7
    # and the one default chunk see different live rows at every step
    spec = DiffusionSpec.scalar("x^3", "1", x0=0.5)
    cfg = SimConfig(n_paths=50, dt_max=0.05, horizon=1.0, seed=9)
    kwargs = dict(exp=BETA_X, levels=(1.0, 2.0), stop_at_largest_level=True)
    whole = run_ensemble(spec, cfg, **kwargs)
    monkeypatch.setattr(mc, "CHUNK_SIZE", 7)
    chunked = run_ensemble(spec, cfg, threads=2, **kwargs)
    assert 0 < np.sum(whole.status == 3) < cfg.n_paths
    for a, b in zip(whole, chunked):
        np.testing.assert_array_equal(a, b)


def test_paths_follow_their_documented_streams():
    # b = 0 and sigma(t) = 1 + 4t: every path takes the same adaptive steps
    # dt_k = dt_max / (sigma(t_k)^2 + 1), 226 of them against a first
    # buffer of 49, so the buffer grows three times.  Then
    # X_t = x0 + sum sigma(t_k) * sqrt(dt_k) * Z_k with Z the main stream
    # of the path's own (seed, index) key.  Paths stop at |X| >= 4, so the
    # buffer also grows after some rows have ended.
    spec = DiffusionSpec.scalar("0", "1 + 4*t", x0=0.5)
    cfg = SimConfig(n_paths=16, dt_max=0.05, horizon=1.0, seed=2 ** 63 + 7)
    ens = run_ensemble(spec, cfg, levels=(4.0,), stop_at_largest_level=True)
    sigmas, roots = [], []
    t = 0.0
    while t < cfg.horizon:
        s = 1.0 + 4.0 * t
        dt = min(cfg.dt_max / (s * s + 1.0), cfg.horizon - t)
        sigmas.append(s)
        roots.append(math.sqrt(dt))
        t = t + dt
        if t >= cfg.horizon - 1e-12:
            t = cfg.horizon
    assert len(sigmas) > 4 * 49
    stopped = 0
    for idx in range(cfg.n_paths):
        z = path_generator(cfg.seed, idx).standard_normal(len(sigmas))
        x = 0.5
        for s, r, zk in zip(sigmas, roots, z):
            x += s * (zk * r)
            if abs(x) >= 4.0:
                stopped += 1
                break
        assert ens.final_state[idx, 0] == x
        assert ens.status[idx] == (3 if abs(x) >= 4.0 else 0)
    assert 0 < stopped < cfg.n_paths


def test_grown_buffers_hold_only_the_steps_not_yet_taken(monkeypatch):
    # b = 0 and sigma = (1 + 4t) I in 2-d: every path takes the same steps
    # dt = dt_max / (2 sigma^2 + 1), more than four times the first
    # buffer's, so every path outgrows it three times
    d = 2
    spec = DiffusionSpec(intervals=((-math.inf, math.inf),) * d,
                         b=("0", "0"),
                         sigma=(("1 + 4*t", "0"), ("0", "1 + 4*t")),
                         x0=(0.0, 0.0))
    cfg = SimConfig(n_paths=8, dt_max=0.05, horizon=1.0, seed=11)
    taken, t = 0, 0.0
    while t < cfg.horizon:
        s = 1.0 + 4.0 * t
        t = t + min(cfg.dt_max / (d * s * s + 1.0), cfg.horizon - t)
        if t >= cfg.horizon - 1e-12:
            t = cfg.horizon
        taken += 1
    draws = []

    def recorded(seed, indices, count, stream=MAIN_STREAM, start=0,
                 states=None, keep=False, transposed=False):
        draws.append((len(indices), start, count, states is not None))
        return normal_block(seed, indices, count, stream, start, states,
                            keep, transposed)
    monkeypatch.setattr(mc, "normal_block", recorded)
    run_ensemble(spec, cfg)
    # sigma reads no x, so the load is 2 + 1 at every state the first
    # buffer is sized from
    first = int(math.ceil(cfg.horizon * 3.0 / cfg.dt_max)) + 9
    assert draws[0] == (cfg.n_paths, 0, first * d, False)
    # the doubling rule: a path that outgrows steps [0, k) draws steps
    # [k, 2k)
    grown = []
    while first * 2 ** len(grown) < taken:
        grown.append(first * 2 ** len(grown))
    assert len(grown) == 3
    assert len(draws) == 1 + len(grown)
    # a grown block starts at the step that outgrew the last one, so it
    # holds no step already taken, and is k steps wide.  The first one
    # continues each stream by replaying its first k steps; every later
    # one continues from the states the one before kept, so it generates
    # only its own steps
    for k, (rows, start, count, resumed) in zip(grown, draws[1:]):
        assert (rows, start, count) == (cfg.n_paths, k * d, k * d)
        assert resumed == (k != grown[0])
    generated = sum(rows * (count + (0 if resumed else start))
                    for rows, start, count, resumed in draws)
    assert generated == cfg.n_paths * d * (first + 2 * grown[0]
                                           + sum(grown[1:]))


def test_grown_buffers_stay_within_their_cap(monkeypatch):
    # the same 2-d paths as above, with grown buffers capped at 50
    # normals: 8 live paths draw 3 steps at a time, and read the same
    # normals
    spec = DiffusionSpec(intervals=((-math.inf, math.inf),) * 2,
                         b=("0", "0"),
                         sigma=(("1 + 4*t", "0"), ("0", "1 + 4*t")),
                         x0=(0.0, 0.0))
    cfg = SimConfig(n_paths=8, dt_max=0.05, horizon=1.0, seed=11)
    whole = run_ensemble(spec, cfg)
    draws = []

    def recorded(seed, indices, count, *args, **kwargs):
        draws.append((len(indices), count))
        return normal_block(seed, indices, count, *args, **kwargs)
    monkeypatch.setattr(mc, "normal_block", recorded)
    monkeypatch.setattr(mc, "_GROWN_NORMALS", 50)
    capped = run_ensemble(spec, cfg)
    assert len(draws) > 4
    assert all(draw == (cfg.n_paths, 3 * 2) for draw in draws[1:])
    for a, b in zip(whole, capped):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("drift, first", [
    # load |x| + 2 at x0 = 0 and at +-1, +-2: mean 3.2
    ("x", 640 + 9),
    # load |x|^3 + 2: mean 5.6 passes the cap, so the load at x0, 2
    ("x^3", 400 + 9)])
def test_first_buffer_is_sized_from_the_mean_load_near_x0(monkeypatch,
                                                          drift, first):
    draws = []

    def recorded(seed, indices, count, *args, **kwargs):
        draws.append(count)
        return normal_block(seed, indices, count, *args, **kwargs)
    monkeypatch.setattr(mc, "normal_block", recorded)
    cfg = SimConfig(n_paths=4, dt_max=0.005, horizon=1.0, seed=1)
    run_ensemble(DiffusionSpec.scalar(drift, "1"), cfg, levels=(4.0,),
                 stop_at_largest_level=True)
    assert draws[0] == first


def test_chunks_with_kept_states_do_not_change_output(monkeypatch):
    # dY = Y^3 dt + dB sends some paths up to the guard in thousands of
    # ever shorter steps, while the others reach the horizon in a few
    # hundred: the stragglers outgrow their buffers several times, and
    # grown buffers continue from kept states.  Chunks of 7 see other
    # live rows at every growth than the one chunk of 40.
    spec = DiffusionSpec.scalar("x^3", "1")
    cfg = SimConfig(n_paths=40, dt_max=0.01, horizon=1.0, seed=8,
                    explosion_guard=12.0)
    kwargs = dict(levels=(2.0, 4.0, 8.0))
    resumed = []

    def recorded(*args, **kwargs):
        resumed.append(kwargs.get("states") is not None)
        return normal_block(*args, **kwargs)
    monkeypatch.setattr(mc, "normal_block", recorded)
    whole = run_ensemble(spec, cfg, **kwargs)
    assert resumed.count(True) >= 2
    assert 0 < np.sum(whole.status == 1) < cfg.n_paths
    monkeypatch.setattr(mc, "CHUNK_SIZE", 7)
    chunked = run_ensemble(spec, cfg, **kwargs)
    for a, b in zip(whole, chunked):
        assert np.array_equal(a, b, equal_nan=True)


def test_compaction_does_not_change_output(monkeypatch):
    # one chunk whose paths end by all four statuses at different
    # iterations: sigma > 1e3 below x = -1.1 trips the step floor, a step
    # from below 2 to past 2.5 the guard, |x| >= 2 the level stop, and
    # the rest reach the horizon.  One path per chunk never compacts.
    spec = DiffusionSpec.scalar("0", "2 + 1e4*max(-x - 1, 0)")
    cfg = SimConfig(n_paths=200, dt_max=1.0, horizon=1.0, seed=5,
                    explosion_guard=2.5)
    kwargs = dict(exp=BETA_X, levels=(1.0, 2.0), stop_at_largest_level=True)
    whole = run_ensemble(spec, cfg, **kwargs)
    assert set(whole.status.tolist()) == {0, 1, 2, 3}
    monkeypatch.setattr(mc, "CHUNK_SIZE", 1)
    single = run_ensemble(spec, cfg, **kwargs)
    for a, b in zip(whole, single):
        np.testing.assert_array_equal(a, b)


def _first_step_at_or_below(cfg, floor):
    """(path, t, x) where the first path of BM from x0 = 1, stopped at
    |X| >= 2 and stepping dt = dt_max / 2, stands at x <= floor; some path
    with a lower index stopped earlier, so the failing path no longer
    sits at its own index among the live rows."""
    first = None                     # (step, path, t, x) of the failure
    stopped_before = set()
    for idx in range(cfg.n_paths):
        z = path_generator(cfg.seed, idx).standard_normal(200)
        x, t = 1.0, 0.0
        for k in range(200):
            if x <= floor:
                if first is None or k < first[0]:
                    first = (k, idx, t, float(x))
                break
            if t == cfg.horizon:
                break
            dt = min(cfg.dt_max / 2.0, cfg.horizon - t)
            x += z[k] * math.sqrt(dt)
            t = t + dt
            if t >= cfg.horizon - 1e-12:
                t = cfg.horizon
            if abs(x) >= 2.0:
                stopped_before.add((k, idx))
                break
    assert first is not None
    k_bad, bad, t_bad, x_bad = first
    assert any(k < k_bad and idx < bad for k, idx in stopped_before)
    return bad, t_bad, x_bad


def test_eval_domain_names_the_path_after_others_ended():
    # sigma = 1 (b = 0) wherever log(x + 0.9) is finite, so every path
    # steps dt = dt_max / 2 until it stops at |X| >= 2 or stands at
    # x <= -0.9, where sigma is nan
    spec = DiffusionSpec.scalar("0", "1 + 0*log(x + 0.9)", x0=1.0)
    cfg = SimConfig(n_paths=64, dt_max=0.02, horizon=1.0, seed=4)
    bad, t_bad, x_bad = _first_step_at_or_below(cfg, -0.9)
    with pytest.raises(EvalDomain) as exc:
        run_ensemble(spec, cfg, levels=(2.0,), stop_at_largest_level=True)
    assert str(exc.value) == (f"non-finite coefficient on path {bad} "
                              f"at t={t_bad:.6g}, x={[x_bad]}")


def test_a_non_finite_exponent_names_the_path_after_others_ended():
    # BM paths with beta = log(x + 0.9), which is not finite at x <= -0.9
    spec = DiffusionSpec.scalar("0", "1", x0=1.0)
    cfg = SimConfig(n_paths=64, dt_max=0.02, horizon=1.0, seed=4)
    bad, t_bad, x_bad = _first_step_at_or_below(cfg, -0.9)
    with pytest.raises(EvalDomain) as exc:
        run_ensemble(spec, cfg, exp=ExponentSpec.scalar("log(x + 0.9)"),
                     levels=(2.0,), stop_at_largest_level=True)
    assert str(exc.value) == (f"non-finite exponent coefficient on path "
                              f"{bad} at t={t_bad:.6g}, x={[x_bad]}")


@pytest.mark.parametrize("field, what", [("b", "coefficient"),
                                         ("sigma", "coefficient"),
                                         ("beta", "exponent coefficient")])
def test_a_non_finite_constant_names_path_0_at_the_start(field, what):
    # a coefficient that reads neither t nor x is evaluated once per
    # chunk; log(0) = -inf still fails on the first path at x0
    coefs = {"b": "0", "sigma": "1", "beta": "0"}
    coefs[field] = "log(0)"
    spec = DiffusionSpec.scalar(coefs["b"], coefs["sigma"], x0=0.25)
    cfg = SimConfig(n_paths=10, dt_max=0.1, horizon=1.0, seed=1)
    with pytest.raises(EvalDomain) as exc:
        run_ensemble(spec, cfg, exp=ExponentSpec.scalar(coefs["beta"]))
    assert str(exc.value) == (f"non-finite {what} on path 0 at t=0, "
                              "x=[0.25]")


@pytest.mark.parametrize("exprs", ["2^0.5", "1.7^3", "exp(-1.3)",
                                   "log(3)/7", "sqrt(2)*tanh(0.3)",
                                   "-0.8^2.5", "cos(1)^(-0.5)"])
def test_a_constant_array_has_the_bits_of_every_shorter_one(exprs):
    # the engine evaluates a constant once per chunk and slices it to the
    # live paths: each prefix must hold what evaluating at that length
    # gives, across numpy's vector widths and tails
    e = parse(exprs)
    n = 70
    chunk = e.eval_array(0.0, np.zeros(n))
    for m in range(1, n + 1):
        assert np.array_equal(chunk[:m], e.eval_array(0.0, np.zeros(m)))


@pytest.mark.parametrize("dim", [1, 2])
def test_constant_coefficients_give_the_bits_of_per_step_ones(dim):
    # "+ 0*x" adds +-0 to a nonzero constant, which leaves its bits, but
    # makes the engine evaluate it at every step; constant b, sigma, beta
    # and q must give the same ensemble
    def spec(read_x):
        extra = " + 0*x" if read_x else ""
        b = ("0.3^1.7" + extra, "-0.2" + extra)[:dim]
        sigma = tuple(tuple(("1.2^0.5" + extra) if i == j else "0"
                            for j in range(dim)) for i in range(dim))
        return (DiffusionSpec(intervals=((-math.inf, math.inf),) * dim,
                              b=b, sigma=sigma, x0=(0.1,) * dim),
                ExponentSpec(beta=tuple(("0.7^1.3" + extra,
                                         "0.4" + extra)[:dim])))
    cfg = SimConfig(n_paths=30, dt_max=0.05, horizon=1.0, seed=12)
    kwargs = dict(levels=(0.5, 1.0))
    fixed_spec, fixed_exp = spec(False)
    moving_spec, moving_exp = spec(True)
    fixed = run_ensemble(fixed_spec, cfg, exp=fixed_exp, **kwargs)
    moving = run_ensemble(moving_spec, cfg, exp=moving_exp, **kwargs)
    for a, b in zip(fixed, moving):
        assert np.array_equal(a, b, equal_nan=True)


def test_paths_ending_at_guard_or_floor_pass_every_level_left():
    # b = 0 and sigma(t) = 3 up to t = 0.5, then 3 + 1e9 (t - 0.5): every
    # path takes the same steps, and one step past t = 0.5 sigma trips
    # the step floor.  Paths reaching |X| >= 3 end at the guard first.
    # An ended path records its end time at every level it had not
    # crossed, level 4 above the guard included.
    spec = DiffusionSpec.scalar("0", "3 + 1e9*max(t - 0.5, 0)")
    cfg = SimConfig(n_paths=60, dt_max=0.05, horizon=1.0, seed=6,
                    explosion_guard=3.0)
    levels = (1.0, 2.0, 4.0)
    ens = run_ensemble(spec, cfg, levels=levels)
    for idx in range(cfg.n_paths):
        z = path_generator(cfg.seed, idx).standard_normal(200)
        x, t = 0.0, 0.0
        passage = [math.inf] * 3
        for zk in z:
            s = 3.0 + 1e9 * max(t - 0.5, 0.0)
            dt = cfg.dt_max / (s * s + 1.0)
            if dt < cfg.dt_min:
                status = 2
                break
            dt = min(dt, cfg.horizon - t)
            x += 0.0 + s * (zk * math.sqrt(dt))
            t = t + dt
            passage = [t if p == math.inf and abs(x) >= m else p
                       for p, m in zip(passage, levels)]
            if abs(x) >= cfg.explosion_guard:
                status = 1
                break
        passage = [min(p, t) for p in passage]
        assert (ens.status[idx], ens.end_time[idx]) == (status, t)
        assert ens.final_state[idx, 0] == x
        assert ens.passage_times[idx].tolist() == passage
    assert set(ens.status.tolist()) == {1, 2}
    assert np.any(ens.passage_times[:, 0] < ens.end_time)


def test_correlated_2d_ensemble_matches_a_scalar_loop():
    # constant correlated sigma, so each coordinate's coefficients need
    # only that coordinate; the loop sums over coordinates in the
    # engine's order, and q = sum_ij (beta_i c_ij) beta_j in the engine's
    sig = ((1.0, 0.5), (0.0, 1.0))
    spec = DiffusionSpec(intervals=((-math.inf, math.inf),) * 2,
                         b=("x", "-x"), sigma=(("1", "0.5"), ("0", "1")),
                         x0=(0.3, -0.2))
    exp = ExponentSpec(beta=("x", "x"))
    cfg = SimConfig(n_paths=30, dt_max=0.05, horizon=1.0, seed=12)
    levels = (0.5, 1.0, 2.0)
    ens = run_ensemble(spec, cfg, exp=exp, levels=levels)
    c = [[sig[i][0] * sig[j][0] + sig[i][1] * sig[j][1] for j in range(2)]
         for i in range(2)]
    trace = sig[0][0] ** 2 + sig[0][1] ** 2 + sig[1][0] ** 2 + sig[1][1] ** 2
    want = [[] for _ in ens]
    for idx in range(cfg.n_paths):
        z = iter(path_generator(cfg.seed, idx).standard_normal(1000))
        x, t, logz, nov = [0.3, -0.2], 0.0, 0.0, 0.0
        passage, logz_pass = [math.inf] * 3, [math.nan] * 3
        while t < cfg.horizon:
            b = (x[0], -x[1])
            load = math.sqrt(b[0] * b[0] + b[1] * b[1]) + trace + 1.0
            dt = min(cfg.dt_max / load, cfg.horizon - t)
            dw = [next(z) * math.sqrt(dt) for _ in range(2)]
            b_dt = [bi * dt for bi in b]
            dx = [b_dt[i] + (0.0 + sig[i][0] * dw[0]
                             + sig[i][1] * dw[1]) for i in range(2)]
            q = 0.0
            for i in range(2):
                for j in range(2):
                    q += x[i] * c[i][j] * x[j]
            logz += (x[0] * (dx[0] - b_dt[0]) + x[1] * (dx[1] - b_dt[1])
                     - 0.5 * q * dt)
            nov += q * dt
            x = [x[0] + dx[0], x[1] + dx[1]]
            t = t + dt
            if t >= cfg.horizon - 1e-12:
                t = cfg.horizon
            norm = math.sqrt(x[0] * x[0] + x[1] * x[1])
            for j, m in enumerate(levels):
                if passage[j] == math.inf and norm >= m:
                    passage[j], logz_pass[j] = t, logz
        for column, value in zip(want, (0, t, x, logz, passage, logz_pass,
                                        nov)):
            column.append(value)
    for field, got, value in zip(ens._fields, ens, want):
        np.testing.assert_array_equal(got, np.array(value, dtype=got.dtype),
                                      err_msg=field)
    assert np.any(np.isfinite(ens.passage_times[:, 1]))
    assert np.any(np.isinf(ens.passage_times[:, 1]))


def test_state_dependent_1d_ensemble_matches_a_scalar_loop():
    # sigma and beta read x (beta reads t too), so q = (beta c) beta
    # changes along a path; the loop states the engine's association
    spec = DiffusionSpec.scalar("-x", "1 + 0.5*x*x/(1 + x*x)", x0=0.3)
    exp = ExponentSpec.scalar("x - t")
    cfg = SimConfig(n_paths=30, dt_max=0.05, horizon=1.0, seed=13)
    levels = (0.5, 1.0, 2.0)
    ens = run_ensemble(spec, cfg, exp=exp, levels=levels)
    want = [[] for _ in ens]
    for idx in range(cfg.n_paths):
        z = iter(path_generator(cfg.seed, idx).standard_normal(1000))
        x, t, logz, nov = 0.3, 0.0, 0.0, 0.0
        passage, logz_pass = [math.inf] * 3, [math.nan] * 3
        while t < cfg.horizon:
            b = -x
            s = 1.0 + 0.5 * x * x / (1.0 + x * x)
            beta = x - t
            dt = min(cfg.dt_max / (abs(b) + s * s + 1.0), cfg.horizon - t)
            b_dt = b * dt
            dx = b_dt + (0.0 + s * (next(z) * math.sqrt(dt)))
            q = (beta * (s * s)) * beta
            logz += beta * (dx - b_dt) - 0.5 * q * dt
            nov += q * dt
            x += dx
            t = t + dt
            if t >= cfg.horizon - 1e-12:
                t = cfg.horizon
            for j, m in enumerate(levels):
                if passage[j] == math.inf and abs(x) >= m:
                    passage[j], logz_pass[j] = t, logz
        for column, value in zip(want, (0, t, [x], logz, passage, logz_pass,
                                        nov)):
            column.append(value)
    for field, got, value in zip(ens._fields, ens, want):
        np.testing.assert_array_equal(got, np.array(value, dtype=got.dtype),
                                      err_msg=field)
    assert np.any(np.isfinite(ens.passage_times[:, 1]))
    assert np.any(np.isinf(ens.passage_times[:, 1]))


def test_a_path_reads_the_same_bits_alone_or_in_a_chunk():
    # d = 2 with a correlated, x-dependent sigma: q is summed in one fixed
    # order, whatever the number of live paths beside a path
    spec = DiffusionSpec(intervals=((-math.inf, math.inf),) * 2,
                         b=("-x", "0.5*x"),
                         sigma=(("1 + 0.2*x", "0.5"), ("0.3*x", "1")),
                         x0=(0.3, -0.2))
    exp = ExponentSpec(beta=("x", "1 - x"))
    cfg = SimConfig(n_paths=40, dt_max=0.05, horizon=1.0, seed=7)
    levels = (0.5, 1.0)
    ens = run_ensemble(spec, cfg, exp=exp, levels=levels)
    for k in range(cfg.n_paths):
        alone = mc._run_chunk(spec, cfg, np.array([k]), levels, exp, False)
        for field, got, want in zip(ens._fields, ens, alone):
            np.testing.assert_array_equal(got[k:k + 1], want,
                                          err_msg=f"{field} of path {k}")


def test_q_is_nonnegative():
    # q = beta^2 c >= 0 pointwise, so the engine's integral of q is too
    spec = DiffusionSpec.scalar("sin(x)", "1 + x^2")
    exp = ExponentSpec.scalar("cos(x) - x")
    xs = np.random.default_rng(0).uniform(-10, 10, 200)
    q = mc._quadratic([exp.beta[0].eval_array(0.0, xs)],
                      [[spec.sigma[0][0].eval_array(0.0, xs)]])
    assert np.all(q >= 0.0)
    cfg = SimConfig(n_paths=50, dt_max=0.05, horizon=1.0, seed=5)
    nov = run_ensemble(spec, cfg, exp=exp).final_nov
    assert np.all(nov >= 0.0) and np.any(nov > 0.0)


# --- the passage recorder -------------------------------------------------------

def test_passages_record_one_step_at_every_level_it_crosses():
    # live positions 0, 1, 2 are rows 2, 0, 1 of the outputs
    rec = mc.Passages(3, (1.0, 2.0, 3.0))
    count = np.zeros(3, dtype=np.intp)
    rows = np.array([2, 0, 1])
    asked = []

    def value(i):
        # the value is formed only at the positions that cross
        asked.append(i.tolist())
        return np.array([-1.0, -2.0, -3.0])[i]

    crossed = rec.cross(count, rows, np.array([2.5, 0.5, 1.0]), 0.25, value)
    assert crossed.tolist() == [0, 2]
    assert asked == [[0, 2]]
    assert count.tolist() == [2, 0, 1]
    inf, nan = math.inf, math.nan
    np.testing.assert_array_equal(
        rec.times, [[inf] * 3, [0.25, inf, inf], [0.25, 0.25, inf]])
    np.testing.assert_array_equal(
        rec.values, [[nan] * 3, [-3.0, nan, nan], [-1.0, -1.0, nan]])
    # per-path times; a crossed level is never recorded again
    crossed = rec.cross(count, rows, np.array([9.0, 0.0, 1.5]),
                        np.array([0.5, 0.6, 0.7]),
                        np.array([4.0, 5.0, 6.0]).__getitem__)
    assert crossed.tolist() == [0]
    assert count.tolist() == [3, 0, 1]
    np.testing.assert_array_equal(rec.times[2], [0.25, 0.25, 0.5])
    np.testing.assert_array_equal(rec.values[2], [-1.0, -1.0, 4.0])
    assert rec.cross(count, rows, np.array([9.0, 0.9, 1.9]), 0.75,
                     value).size == 0
    assert asked == [[0, 2]]


def test_passages_mark_every_level_left_at_an_end():
    rec = mc.Passages(2, (1.0, 2.0, 3.0))
    count = np.array([0, 2])
    rec.mark(count, np.arange(2), np.array([0, 1]), 3, np.array([0.5, 0.7]),
             np.array([1.0, 2.0]))
    assert count.tolist() == [3, 3]
    # levels 0 and 1 of path 1 were crossed before, and stay unrecorded
    np.testing.assert_array_equal(rec.times,
                                  [[0.5, 0.5, 0.5], [math.inf] * 2 + [0.7]])
    np.testing.assert_array_equal(rec.values[1], [math.nan] * 2 + [2.0])


def test_passages_need_increasing_levels():
    with pytest.raises(ValidationError):
        mc.Passages(1, (2.0, 1.0))
    with pytest.raises(ValidationError):
        run_ensemble(BM, CFG, levels=(2.0, 1.0))


def test_seed_changes_output():
    cfg_a = SimConfig(n_paths=100, dt_max=0.05, horizon=1.0, seed=1)
    cfg_b = SimConfig(n_paths=100, dt_max=0.05, horizon=1.0, seed=2)
    ra = run_ensemble(BM, cfg_a)
    rb = run_ensemble(BM, cfg_b)
    assert not np.array_equal(ra.final_state, rb.final_state)


# --- structural invariants -----------------------------------------------------

def test_z_is_positive_along_paths():
    cfg = SimConfig(n_paths=5, dt_max=0.01, horizon=1.0, seed=11)
    z = np.exp([run_ensemble(DiffusionSpec.scalar("-x", "1"), cfg.until(t),
                             exp=BETA_X).final_logz
                for t in np.linspace(0.1, 1.0, 10)])
    assert np.all(np.isfinite(z)) and np.all(z > 0.0)
    assert not np.all(z == 1.0)


def test_passage_times_monotone_in_level():
    # same ensemble: a path crosses level m_{n+1} no earlier than m_n
    res = run_ensemble(BM, SimConfig(n_paths=3000, dt_max=0.01,
                                     horizon=1.0, seed=4),
                       levels=(0.5, 1.0, 2.0))
    p = res.passage_times
    assert np.all(p[:, 0] <= p[:, 1])
    assert np.all(p[:, 1] <= p[:, 2])


def test_survival_column_nondecreasing():
    curve = deficit_for(
        BM, ExponentSpec.scalar("x^3"), PLAN, 1.0,
        SimConfig(n_paths=2000, dt_max=0.01, horizon=1.0, seed=6))
    qs = [q for (_, _, q, _) in curve.entries]
    assert qs == sorted(qs)


def test_trivial_ode_path():
    # sigma = 0 reduces to dX = dt: X_t = t and Z = 1 exactly
    spec = DiffusionSpec.scalar("1", "0")
    cfg = SimConfig(n_paths=3, dt_max=0.1, horizon=1.0, seed=0)
    res = run_ensemble(spec, cfg, exp=BETA_X)
    np.testing.assert_allclose(res.final_state, 1.0, rtol=0, atol=1e-12)
    assert np.all(res.final_logz == 0.0)
    assert np.all(res.status == 0) and np.all(res.end_time == 1.0)


# --- estimators ------------------------------------------------------------------

def test_identity_case_exact():
    est = estimate_mean_direct(BM, ExponentSpec.scalar("0"), 1.0, CFG)
    assert est.mean == 1.0 and est.std_error == 0.0
    curve = deficit_for(BM, ExponentSpec.scalar("0"), PLAN, 1.0, CFG)
    assert curve.deficit == 0.0 and curve.converged


def test_direct_mean_near_one_for_true_martingale():
    est = estimate_mean_direct(DiffusionSpec.scalar("-x", "1"), BETA_X,
                               1.0, SimConfig(n_paths=20000, dt_max=0.005,
                                              horizon=1.0, seed=42))
    assert abs(est.mean - 1.0) <= 3.0 * est.std_error


def test_stopped_means_are_one_within_noise():
    plan = LocalizationPlan(levels=(1.0, 2.0, 4.0),
                            time_caps=(1.0, 1.0, 1.0))
    ests = stopped_exponential_means(
        BM, BETA_X, 0.5, plan,
        SimConfig(n_paths=20000, dt_max=0.002, horizon=1.0, seed=42))
    for est in ests:
        assert abs(est.mean - 1.0) <= 3.0 * est.std_error


@pytest.mark.parametrize("caps", [(0.3, 0.6, 2.0), (0.005, 0.6, 2.0)])
def test_a_level_capped_below_t_reads_the_run_to_its_cap(caps):
    # one ensemble per distinct min(cap, t): level j of the call at t = 1
    # has the bits of the same call at t = min(cap_j, 1).  A cap below
    # dt_max runs at dt_max = cap.
    plan = LocalizationPlan(levels=(1.0, 2.0, 4.0), time_caps=caps)
    cfg = SimConfig(n_paths=4000, dt_max=0.01, horizon=1.0, seed=42)
    ests = stopped_exponential_means(BM, BETA_X, 1.0, plan, cfg)
    for j, (cap, est) in enumerate(zip(caps, ests)):
        assert abs(est.mean - 1.0) <= 3.0 * est.std_error
        alone = stopped_exponential_means(BM, BETA_X, min(cap, 1.0), plan,
                                          cfg)[j]
        assert alone == est


def test_levels_capped_at_t_do_not_converge():
    # no path passes a level before t = 1; the last two levels'
    # survivals are 0 by construction, which says nothing about the limit
    never = np.full((50, 3), math.inf)
    for caps, converged in (((2.0, 2.0, 2.0), True),
                            ((0.5, 2.0, 2.0), True),
                            ((1.0, 1.0, 1.0), False),
                            ((0.5, 1.0, 2.0), False)):
        plan = LocalizationPlan(levels=(1.0, 2.0, 4.0), time_caps=caps)
        assert survival_curve(never, plan, 1.0).converged is converged


def test_plan_too_coarse_carries_curve():
    # widely separated survivals at two adjacent levels: the curve comes
    # back, marked not converged
    plan = LocalizationPlan(levels=(0.5, 1.0), time_caps=(2.0, 2.0))
    cfg = SimConfig(n_paths=2000, dt_max=0.01, horizon=1.0, seed=1)
    curve = deficit_for(BM, ExponentSpec.scalar("x^3"), plan, 1.0, cfg)
    assert len(curve.entries) == 2
    assert not curve.converged


def test_floor_hits_are_not_convergence():
    # CEV p = 3: Z = X / x0 is a strict local martingale with E[Z_1] =
    # P(nu, z), the regularized lower incomplete gamma at nu = 1/(2(p-1))
    # and z = x0^(2(1-p)) / (2 (p-1)^2 t) (Delbaen & Shirakawa 2002).
    # Past x ~ 10, sigma^2 = x^6 puts the step under the floor, and a
    # floored path counts as exploded at every level it had not passed:
    # levels 16 and 32 agree, but not on the limit
    from scipy.special import gammainc
    exact = 1.0 - gammainc(0.25, 0.125)
    spec = DiffusionSpec.scalar("0", "x^3", x0=1.0,
                                interval=(0.0, math.inf))
    plan = LocalizationPlan(levels=(4.0, 8.0, 16.0, 32.0),
                            time_caps=(2.0, 3.0, 4.0, 5.0))
    cfg = SimConfig(n_paths=500, dt_max=0.005, horizon=1.0, seed=1)
    curve = deficit_for(spec, ExponentSpec.scalar("1/x"), plan, 1.0, cfg)
    (_, _, q_prev, _), (_, _, q_last, se) = curve.entries[-2:]
    assert q_prev == q_last and not curve.converged
    floored = int(curve.notes[-1].split()[0])
    assert floored > 0
    assert f"up to {floored / 500:.4g}; not converged" in curve.notes[-1]
    # the floored share bounds how far the deficit overstates the limit
    assert curve.deficit - floored / 500 - 3 * se <= exact
    assert exact <= curve.deficit + 3 * se


def test_heavy_tail_diagnostic():
    flagged = MCEstimate.from_samples([1.0, 1.0, 1e9])
    assert flagged.heavy_tail_flag and flagged.max_sample_share > 0.99
    calm = MCEstimate.from_samples(np.ones(100))
    assert not calm.heavy_tail_flag


def test_explosion_guard_terminates_paths():
    spec = DiffusionSpec.scalar("x^3", "1")
    cfg = SimConfig(n_paths=500, dt_max=0.01, horizon=1.0, seed=2,
                    explosion_guard=100.0)
    res = run_ensemble(spec, cfg)
    assert np.any(res.status != 0)  # some paths left the horizon early
    ended_early = res.status != 0
    assert np.all(res.end_time[ended_early] <= 1.0)


# --- validation ------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValidationError):
        SimConfig(n_paths=0, dt_max=0.01, horizon=1.0)
    with pytest.raises(ValidationError):
        SimConfig(n_paths=10, dt_max=2.0, horizon=1.0)
    with pytest.raises(ValidationError):
        SimConfig(n_paths=10, dt_max=0.01, horizon=1.0,
                  explosion_guard=-1.0)


def test_until_caps_the_horizon_and_the_step():
    cfg = SimConfig(n_paths=10, dt_max=0.5, horizon=2.0, seed=4)
    assert cfg.until(1.0) == SimConfig(n_paths=10, dt_max=0.5, horizon=1.0,
                                       seed=4)
    assert cfg.until(0.25) == SimConfig(n_paths=10, dt_max=0.25,
                                        horizon=0.25, seed=4)
    with pytest.raises(ValidationError, match="must not exceed the horizon"):
        cfg.until(2.5)


def test_every_estimator_refuses_t_beyond_the_horizon(monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated past the horizon")
    monkeypatch.setattr(mc, "run_ensemble", no_simulation)
    cfg = SimConfig(n_paths=10, dt_max=0.01, horizon=1.0)
    for call in (
            lambda: estimate_mean_direct(BM, BETA_X, 2.0, cfg),
            lambda: mc.novikov_estimate(BM, BETA_X, 2.0, cfg),
            lambda: deficit_for(BM, BETA_X, PLAN, 2.0, cfg),
            lambda: stopped_exponential_means(BM, BETA_X, 2.0, PLAN, cfg)):
        with pytest.raises(ValidationError,
                           match="must not exceed the horizon"):
            call()


def test_the_localized_estimators_refuse_an_unbounded_q(monkeypatch):
    # q = 1/(x - 0.1)^2: the level-8 grids step past the pole at 0.25,
    # then at 0.125, and the sup grows from 100 to 1600
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated an unbounded q")
    monkeypatch.setattr(mc, "run_ensemble", no_simulation)
    singular = ExponentSpec.scalar("1/(x-0.1)")
    for call in (
            lambda: deficit_for(BM, singular, PLAN, 1.0, CFG),
            lambda: stopped_exponential_means(BM, singular, 1.0, PLAN, CFG)):
        with pytest.raises(UnboundedOnCompact,
                           match="level-8.0 region keeps growing"):
            call()


def test_plan_must_stay_below_guard():
    cfg = SimConfig(n_paths=10, dt_max=0.01, horizon=1.0,
                    explosion_guard=10.0)
    with pytest.raises(ValidationError):
        cfg.check_plan(PLAN)


