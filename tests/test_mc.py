import math

import numpy as np
import pytest

from martprop.errors import PlanTooCoarse, ValidationError
from martprop.mc import (
    MCEstimate,
    SimConfig,
    deficit_for,
    estimate_deficit_localized,
    estimate_mean_direct,
    localized_bound_check,
    run_ensemble,
    simulate_path,
    stochastic_exponential,
    stopped_exponential_means,
)
from martprop.model import (
    DiffusionSpec,
    ExponentSpec,
    LocalizationPlan,
    modified_drift,
)
from martprop.rng import path_generator

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
    np.testing.assert_array_equal(r1.logz_evals, r2.logz_evals)
    np.testing.assert_array_equal(r1.passage_times, r2.passage_times)


def test_thread_count_does_not_change_output():
    cfg = SimConfig(n_paths=9000, dt_max=0.02, horizon=1.0, seed=5)
    r1 = run_ensemble(BM, cfg, exp=BETA_X, threads=1)
    r8 = run_ensemble(BM, cfg, exp=BETA_X, threads=8)
    np.testing.assert_array_equal(r1.final_state, r8.final_state)
    np.testing.assert_array_equal(r1.logz_evals, r8.logz_evals)
    np.testing.assert_array_equal(r1.nov_evals, r8.nov_evals)


def test_single_path_matches_ensemble_member():
    cfg = SimConfig(n_paths=50, dt_max=0.05, horizon=1.0, seed=9)
    ens = run_ensemble(BM, cfg, exp=BETA_X)
    for idx in (0, 17, 49):
        path = simulate_path(BM, cfg, idx)
        assert path.states[-1, 0] == ens.final_state[idx, 0]


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


def test_seed_changes_output():
    cfg_a = SimConfig(n_paths=100, dt_max=0.05, horizon=1.0, seed=1)
    cfg_b = SimConfig(n_paths=100, dt_max=0.05, horizon=1.0, seed=2)
    ra = run_ensemble(BM, cfg_a)
    rb = run_ensemble(BM, cfg_b)
    assert not np.array_equal(ra.final_state, rb.final_state)


# --- structural invariants -----------------------------------------------------

def test_z_is_positive_along_paths():
    path = simulate_path(DiffusionSpec.scalar("-x", "1"),
                         SimConfig(n_paths=5, dt_max=0.01, horizon=1.0,
                                   seed=11), 2)
    z = stochastic_exponential(path, DiffusionSpec.scalar("-x", "1"),
                               BETA_X)
    assert np.all(z > 0.0)
    assert z[0] == 1.0


def test_passage_times_monotone_in_level():
    # same ensemble: a path crosses level m_{n+1} no earlier than m_n
    res = run_ensemble(BM, SimConfig(n_paths=3000, dt_max=0.01,
                                     horizon=1.0, seed=4),
                       levels=(0.5, 1.0, 2.0))
    p = res.passage_times
    assert np.all(p[:, 0] <= p[:, 1])
    assert np.all(p[:, 1] <= p[:, 2])


def test_survival_column_nondecreasing():
    spec = modified_drift(BM, ExponentSpec.scalar("x^3"))
    curve = estimate_deficit_localized(
        spec, PLAN, 1.0,
        SimConfig(n_paths=2000, dt_max=0.01, horizon=1.0, seed=6),
        raise_on_coarse=False)
    qs = [q for (_, _, q, _) in curve.entries]
    assert qs == sorted(qs)


def test_trivial_ode_path():
    # sigma = 0 reduces to dX = dt: X_t = t exactly and Z = 1 exactly
    spec = DiffusionSpec.scalar("1", "0")
    cfg = SimConfig(n_paths=3, dt_max=0.1, horizon=1.0, seed=0,
                    adaptive=False)
    path = simulate_path(spec, cfg, 0)
    assert path.states[-1, 0] == pytest.approx(1.0, abs=1e-12)
    z = stochastic_exponential(path, spec, BETA_X)
    np.testing.assert_allclose(z, 1.0, atol=1e-14)


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


def test_plan_too_coarse_carries_curve():
    # widely separated survivals at two adjacent levels: not converged
    spec = modified_drift(BM, ExponentSpec.scalar("x^3"))
    plan = LocalizationPlan(levels=(0.5, 1.0), time_caps=(2.0, 2.0))
    cfg = SimConfig(n_paths=2000, dt_max=0.01, horizon=1.0, seed=1)
    with pytest.raises(PlanTooCoarse) as exc:
        estimate_deficit_localized(spec, plan, 1.0, cfg)
    assert exc.value.curve is not None
    assert not exc.value.curve.converged
    # raise_on_coarse=False returns the same curve instead
    curve = estimate_deficit_localized(spec, plan, 1.0, cfg,
                                       raise_on_coarse=False)
    assert not curve.converged


def test_heavy_tail_diagnostic():
    flagged = MCEstimate.from_samples([1.0, 1.0, 1e9])
    assert flagged.heavy_tail_flag and flagged.max_sample_share > 0.99
    calm = MCEstimate.from_samples(np.ones(100))
    assert not calm.heavy_tail_flag


def test_localized_bound_check_values():
    # q = x^2 on |x| <= m: bound = cap * m^2 * 1.1
    bounds = localized_bound_check(BM, BETA_X, PLAN)
    for bound, (m, cap) in zip(bounds, zip(PLAN.levels, PLAN.time_caps)):
        assert bound == pytest.approx(cap * m * m * 1.1, rel=1e-3)


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


def test_plan_must_stay_below_guard():
    cfg = SimConfig(n_paths=10, dt_max=0.01, horizon=1.0,
                    explosion_guard=10.0)
    with pytest.raises(ValidationError):
        cfg.check_plan(PLAN)


def test_eval_times_validation():
    with pytest.raises(ValidationError):
        run_ensemble(BM, CFG, eval_times=(0.5, 0.2, 1.0))
    with pytest.raises(ValidationError):
        run_ensemble(BM, CFG, eval_times=(0.5,))  # must end at horizon

