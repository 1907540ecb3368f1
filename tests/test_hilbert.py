import math

import numpy as np
import pytest

from martprop import hilbert
from martprop.errors import ValidationError
from martprop.hilbert import (
    _run_hilbert,
    CovarianceSpec,
    FunctionalSpec,
    check_conditions,
    estimate_hilbert_expectation,
    hilbert_novikov_estimate,
    phi_values,
    sample_path_array,
)
from martprop.mc import MCEstimate, SimConfig, fixed_grid, survival_curve
from martprop.model import LocalizationPlan
from martprop.rng import path_generator

PLAN = LocalizationPlan(levels=(4.0, 8.0, 16.0, 32.0),
                        time_caps=(2.0, 2.0, 2.0, 2.0))


# --- validation ------------------------------------------------------------------

def test_covariance_validation():
    with pytest.raises(ValidationError):
        CovarianceSpec(modes=2, eigenvalues=(1.0,))
    with pytest.raises(ValidationError):
        CovarianceSpec(modes=2, eigenvalues=(1.0, -0.5))
    with pytest.raises(ValidationError):
        CovarianceSpec(modes=2, eigenvalues=(0.5, 1.0))  # increasing
    assert CovarianceSpec.dyadic(3).eigenvalues == (0.5, 0.25, 0.125)


def test_functional_validation():
    with pytest.raises(ValidationError):
        FunctionalSpec(kind="running_sup", weights=(2.0,),
                       direction=(1.0,))  # not unit norm
    with pytest.raises(ValidationError):
        FunctionalSpec(kind="pointwise")
    with pytest.raises(ValidationError):
        FunctionalSpec(kind="other")
    phi = FunctionalSpec.running_sup(4, mode_index=1)
    phi.check_modes(4)
    with pytest.raises(ValidationError):
        phi.check_modes(3)


# --- Q-Brownian sampling ------------------------------------------------------------

def test_per_mode_variances_match_spectrum():
    cov = CovarianceSpec(modes=3, eigenvalues=(1.0, 0.5, 0.25))
    cfg = SimConfig(n_paths=4000, dt_max=0.05, horizon=1.0, seed=31)
    _, states = sample_path_array(cov, cfg, 4000)
    finals = states[:, -1, :]
    for k, lam in enumerate(cov.eigenvalues):
        v = float(np.var(finals[:, k], ddof=1))
        se = lam * math.sqrt(2.0 / (4000 - 1))
        assert abs(v - lam) <= 3.0 * se
    # modes are independent: near-zero cross-correlation
    corr = np.corrcoef(finals.T)
    off = corr[np.triu_indices(3, 1)]
    assert np.all(np.abs(off) < 0.1)


def test_sample_path_array_deterministic():
    cov = CovarianceSpec.dyadic(2)
    cfg = SimConfig(n_paths=10, dt_max=0.1, horizon=1.0, seed=7)
    t1, s1 = sample_path_array(cov, cfg, 4)
    t2, s2 = sample_path_array(cov, cfg, 4)
    np.testing.assert_array_equal(t1, t2)
    np.testing.assert_array_equal(s1, s2)
    assert s1.shape == (4, len(t1), 2)
    assert np.all(s1[:, 0] == 0.0)
    assert len(np.unique(s1[:, -1, 0])) == 4


def test_hilbert_paths_follow_their_documented_streams():
    # path p's (T-1, K) normals are its main stream (seed, p) in C order,
    # across more than one 512-path chunk, and both dynamics read them:
    # logz follows W, the passages follow W + int Q phi ds.  A unit-vector
    # running sup makes every sum below exact in any order.
    cov = CovarianceSpec.dyadic(3)
    phi = FunctionalSpec.running_sup(3, mode_index=1)
    cfg = SimConfig(n_paths=600, dt_max=0.25, horizon=1.0, seed=13)
    levels, eval_times = (0.5, 1.0), (0.5, 1.0)
    grid, states = sample_path_array(cov, cfg, cfg.n_paths)
    res = _run_hilbert(cov, phi, cfg, levels=levels,
                       eval_times=eval_times)
    lam = np.asarray(cov.eigenvalues)
    sqrt_lam = np.sqrt(lam)
    d = np.asarray(phi.direction)
    T = len(grid)
    moved = 0
    for p in range(cfg.n_paths):
        z = path_generator(cfg.seed, p).standard_normal((T - 1, 3))
        inc = z * sqrt_lam[None, :] * np.sqrt(np.diff(grid))[:, None]
        np.testing.assert_array_equal(states[p, 1:],
                                      np.cumsum(inc, axis=0))
        x, sup, logz = np.zeros(3), 0.0, 0.0
        xm, supm = np.zeros(3), 0.0
        passage, logz_evals = [math.inf, math.inf], []
        crossed_w = [False, False]
        for i in range(1, T):
            dt = grid[i] - grid[i - 1]
            phi_now = sup * d
            dw = z[i - 1] * (sqrt_lam * math.sqrt(dt))
            logz += np.sum(phi_now * dw) - 0.5 * np.sum(
                lam * phi_now * phi_now) * dt
            x = x + dw
            sup = max(sup, x[1])
            xm = xm + (dw + lam * (supm * d) * dt)
            supm = max(supm, xm[1])
            for j, m in enumerate(levels):
                if passage[j] == math.inf and np.sqrt(np.sum(xm * xm)) >= m:
                    passage[j] = grid[i]
                crossed_w[j] |= bool(np.sqrt(np.sum(x * x)) >= m)
            if grid[i] in eval_times:
                logz_evals.append(logz)
        assert res[0][p].tolist() == logz_evals
        assert res[2][p].tolist() == passage
        moved += [s < math.inf for s in passage] != crossed_w
    # the drift moves some passages, so the check above tells the
    # dynamics apart
    assert moved > 0


# --- the functional ------------------------------------------------------------------

def test_running_sup_is_predictable():
    phi = FunctionalSpec.running_sup(1)
    cov = CovarianceSpec(modes=1, eigenvalues=(1.0,))
    times = np.array([0.0, 1.0, 2.0, 3.0])
    states = np.array([[0.0], [2.0], [1.0], [5.0]])
    vals = phi_values(phi, cov, times, states)
    # sup over strictly earlier indices: 0, 0, 2, 2
    np.testing.assert_allclose(vals[:, 0], [0.0, 0.0, 2.0, 2.0])


def test_pointwise_functional():
    phi = FunctionalSpec(kind="pointwise", exprs=("tanh(x)", "0"))
    cov = CovarianceSpec(modes=2, eigenvalues=(1.0, 0.5))
    times = np.array([0.0, 1.0])
    states = np.array([[0.5, 1.0], [2.0, -1.0]])
    vals = phi_values(phi, cov, times, states)
    assert vals[1, 0] == pytest.approx(math.tanh(2.0))
    assert vals[1, 1] == 0.0


# --- condition checks ------------------------------------------------------------------

def test_running_sup_conditions_pass():
    cov = CovarianceSpec(modes=1, eigenvalues=(1.0,))
    phi = FunctionalSpec.running_sup(1)
    cfg = SimConfig(n_paths=256, dt_max=0.02, horizon=1.0, seed=23)
    times, states = sample_path_array(cov, cfg, 256)
    rep = check_conditions(phi, cov, times, states)
    assert rep.lipschitz_hat <= 1.0 + 1e-9
    assert rep.growth_hat <= 1.0 + 1e-9
    assert rep.passed


def test_quadratic_growth_fails_check():
    cov = CovarianceSpec(modes=1, eigenvalues=(1.0,))
    phi = FunctionalSpec(kind="pointwise", exprs=("x^3",),
                         claimed_lipschitz=1.0, claimed_growth=1.0)
    cfg = SimConfig(n_paths=256, dt_max=0.02, horizon=4.0, seed=29)
    times, states = sample_path_array(cov, cfg, 256)
    rep = check_conditions(phi, cov, times, states)
    assert not rep.passed


# --- estimates ------------------------------------------------------------------------

def test_expectation_one_mode():
    cov = CovarianceSpec(modes=1, eigenvalues=(1.0,))
    phi = FunctionalSpec.running_sup(1)
    cfg = SimConfig(n_paths=5000, dt_max=0.01, horizon=1.0, seed=42)
    direct, curve = estimate_hilbert_expectation(phi, cov, 1.0, PLAN, cfg)
    assert abs(direct.mean - 1.0) <= 3.0 * direct.std_error
    assert curve.converged
    assert curve.deficit == pytest.approx(0.0, abs=0.01)


def test_expectation_deterministic_across_threads():
    cov = CovarianceSpec.dyadic(4)
    phi = FunctionalSpec.running_sup(4)
    cfg = SimConfig(n_paths=2000, dt_max=0.02, horizon=1.0, seed=1)
    d1, c1 = estimate_hilbert_expectation(phi, cov, 1.0, PLAN, cfg,
                                          threads=1)
    d8, c8 = estimate_hilbert_expectation(phi, cov, 1.0, PLAN, cfg,
                                          threads=8)
    assert d1.mean == d8.mean
    assert c1.entries == c8.entries


def test_one_draw_gives_both_dynamics_their_separate_runs(monkeypatch):
    # the direct mean reads the original dynamics and the curve the
    # modified ones, each as if simulated alone over the same streams
    cov = CovarianceSpec.dyadic(4)
    phi = FunctionalSpec.running_sup(4)
    cfg = SimConfig(n_paths=700, dt_max=0.05, horizon=1.0, seed=17)
    plan = LocalizationPlan(levels=(0.5, 1.0), time_caps=(2.0, 2.0))
    direct, curve = estimate_hilbert_expectation(phi, cov, 1.0, plan, cfg,
                                                 threads=2)
    logz, _, no_levels = _run_hilbert(cov, phi, cfg, eval_times=(1.0,))
    assert no_levels.shape == (cfg.n_paths, 0)
    grid = fixed_grid(1.0, 0.05)
    normals = hilbert._normals(cov, cfg, np.arange(cfg.n_paths), grid)
    passage = hilbert._modified_passages(cov, phi, grid, normals,
                                         plan.levels)
    assert direct == MCEstimate.from_samples(np.exp(logz[:, 0]))
    assert curve == survival_curve(passage, plan, 1.0)
    assert 0.0 < curve.entries[0][2] < 1.0

    # a plan reaching the guard is refused before any path is simulated
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before the plan was checked")
    monkeypatch.setattr(hilbert, "map_chunks", no_simulation)
    with pytest.raises(ValidationError):
        estimate_hilbert_expectation(
            phi, cov, 1.0, plan,
            SimConfig(n_paths=10, dt_max=0.05, horizon=1.0,
                      explosion_guard=1.0))


def test_novikov_probe_heavy_at_large_t():
    cov = CovarianceSpec(modes=1, eigenvalues=(1.0,))
    phi = FunctionalSpec.running_sup(1)
    cfg = SimConfig(n_paths=20000, dt_max=0.02, horizon=3.0, seed=42)
    heavy = hilbert_novikov_estimate(phi, cov, 3.0, cfg)
    assert heavy.heavy_tail_flag
    cfg_small = SimConfig(n_paths=20000, dt_max=0.02, horizon=0.25, seed=42)
    calm = hilbert_novikov_estimate(phi, cov, 0.25, cfg_small)
    assert not calm.heavy_tail_flag


def test_novikov_refuses_t_beyond_the_horizon():
    # as mc.novikov_estimate does; it used to simulate to t = 3 anyway
    cov = CovarianceSpec(modes=1, eigenvalues=(1.0,))
    phi = FunctionalSpec.running_sup(1)
    cfg = SimConfig(n_paths=100, dt_max=0.02, horizon=1.0, seed=1)
    with pytest.raises(ValidationError):
        hilbert_novikov_estimate(phi, cov, 3.0, cfg)
