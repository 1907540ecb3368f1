import math

import numpy as np
import pytest

from martprop import hilbert
from martprop.errors import EvalDomain, ValidationError
from martprop.hilbert import (
    _run_hilbert,
    ConditionsReport,
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
        CovarianceSpec(eigenvalues=())
    with pytest.raises(ValidationError):
        CovarianceSpec(eigenvalues=(1.0, -0.5))
    with pytest.raises(ValidationError):
        CovarianceSpec(eigenvalues=(0.5, 1.0))  # increasing
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
    cov = CovarianceSpec(eigenvalues=(1.0, 0.5, 0.25))
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


def _scalar_run(cov, phi, cfg, levels, eval_times):
    """Path by path, from its own stream (seed, p) read in C order as
    (T-1, K) normals: log Z at eval_times under W, the first passage of
    ||.|| over each level under W + int Q phi ds, and whether W itself
    reached each level.  No chunk and no stacked rows."""
    grid = fixed_grid(cfg.horizon, cfg.dt_max, eval_times)
    T, K = len(grid), cov.modes
    lam = np.asarray(cov.eigenvalues)
    sqrt_lam = np.sqrt(lam)

    def phi_at(t, x, sup):
        if phi.kind == "running_sup":
            return sup * np.asarray(phi.direction)
        out = np.empty(K)
        for k, e in enumerate(phi.exprs):
            out[k:k + 1] = e.eval_array(t, x[k:k + 1])
        return out

    logz_rows, passage_rows, crossed_rows = [], [], []
    for p in range(cfg.n_paths):
        z = path_generator(cfg.seed, p).standard_normal((T - 1, K))
        x, sup, logz = np.zeros(K), 0.0, 0.0
        xm, supm = np.zeros(K), 0.0
        passage, logz_evals = [math.inf] * len(levels), []
        crossed_w = [False] * len(levels)
        for i in range(1, T):
            dt = grid[i] - grid[i - 1]
            phi_now = phi_at(grid[i - 1], x, sup)
            phi_m = phi_at(grid[i - 1], xm, supm)
            dw = z[i - 1] * (sqrt_lam * math.sqrt(dt))
            logz += np.sum(phi_now * dw) - 0.5 * np.sum(
                lam * phi_now * phi_now) * dt
            x = x + dw
            xm = xm + (dw + lam * phi_m * dt)
            if phi.kind == "running_sup":
                sup = max(sup, float(x @ np.asarray(phi.weights)))
                supm = max(supm, float(xm @ np.asarray(phi.weights)))
            for j, m in enumerate(levels):
                if passage[j] == math.inf and np.sqrt(np.sum(xm * xm)) >= m:
                    passage[j] = grid[i]
                crossed_w[j] |= bool(np.sqrt(np.sum(x * x)) >= m)
            if grid[i] in eval_times:
                logz_evals.append(logz)
        logz_rows.append(logz_evals)
        passage_rows.append(passage)
        crossed_rows.append(crossed_w)
    return logz_rows, passage_rows, crossed_rows


def _unit(modes, k, sign=1.0):
    v = np.zeros(modes)
    v[k] = sign
    return tuple(v)


def test_hilbert_paths_follow_their_documented_streams():
    # path p's (T-1, K) normals are its main stream (seed, p) in C order,
    # across more than one 512-path chunk, and both dynamics read them:
    # logz follows W, the passages follow W + int Q phi ds.  Each phi is
    # pinned against a per-path scalar loop.  At 16 modes numpy sums over
    # the modes pairwise with 8 accumulators.  A one-hot direction (here
    # -1 on a mode the weights do not read) and a pointwise phi match bit
    # for bit.  A spread direction matches in its passages; its log Z
    # sums a s^2 and s (dW . d), where the loop sums mode by mode, so it
    # matches to a relative 1e-12.
    # 16 eigenvalues that are no powers of 2, so that a product taken in
    # another order rounds differently
    three = CovarianceSpec.dyadic(3)
    sixteen = CovarianceSpec(eigenvalues=0.7 / np.arange(1.0, 17.0) ** 2)
    spread = np.arange(16.0, 0.0, -1.0) * (-1.0) ** np.arange(16)
    cases = (
        (three, FunctionalSpec.running_sup(3, mode_index=1), 0.0),
        (three, FunctionalSpec(kind="pointwise",
                               exprs=("tanh(x)", "x * t", "0.5")), 0.0),
        (sixteen, FunctionalSpec(kind="running_sup", weights=_unit(16, 1),
                                 direction=_unit(16, 0, -1.0)), 0.0),
        (sixteen, FunctionalSpec(kind="running_sup", weights=_unit(16, 1),
                                 direction=spread / np.linalg.norm(spread)),
         1e-12),
        (sixteen, FunctionalSpec(kind="pointwise", exprs=(
            "tanh(x)", "x * t", "0.5",
            *(f"sin({k} * x) + t" for k in range(1, 14)))), 0.0))
    cfg = SimConfig(n_paths=600, dt_max=0.2, horizon=1.0, seed=13)
    levels, eval_times = (0.5, 1.0), (0.5, 1.0)
    for cov in (three, sixteen):
        grid, states = sample_path_array(cov, cfg, cfg.n_paths)
        for p in range(cfg.n_paths):
            z = path_generator(cfg.seed, p).standard_normal(
                (len(grid) - 1, cov.modes))
            inc = (z * np.sqrt(np.asarray(cov.eigenvalues))[None, :]
                   * np.sqrt(np.diff(grid))[:, None])
            np.testing.assert_array_equal(states[p, 1:],
                                          np.cumsum(inc, axis=0))
    for cov, phi, rtol in cases:
        logz, _, passage = _run_hilbert(cov, phi, cfg, levels=levels,
                                        eval_times=eval_times)
        ref_logz, ref_passage, crossed_w = _scalar_run(cov, phi, cfg,
                                                       levels, eval_times)
        if rtol:
            np.testing.assert_allclose(logz, ref_logz, rtol=rtol, atol=0.0)
        else:
            assert logz.tolist() == ref_logz
        assert passage.tolist() == ref_passage
        # the drift moves some passages, so the check above tells the
        # dynamics apart
        assert np.any((passage < math.inf) != np.array(crossed_w))


# --- the functional ------------------------------------------------------------------

def test_running_sup_is_predictable():
    phi = FunctionalSpec.running_sup(1)
    cov = CovarianceSpec(eigenvalues=(1.0,))
    times = np.array([0.0, 1.0, 2.0, 3.0])
    states = np.array([[0.0], [2.0], [1.0], [5.0]])
    vals = phi_values(phi, cov, times, states)
    # sup over strictly earlier indices: 0, 0, 2, 2
    np.testing.assert_allclose(vals[:, 0], [0.0, 0.0, 2.0, 2.0])


def test_pointwise_functional():
    phi = FunctionalSpec(kind="pointwise", exprs=("tanh(x)", "0"))
    cov = CovarianceSpec(eigenvalues=(1.0, 0.5))
    times = np.array([0.0, 1.0])
    states = np.array([[0.5, 1.0], [2.0, -1.0]])
    vals = phi_values(phi, cov, times, states)
    assert vals[1, 0] == pytest.approx(math.tanh(2.0))
    assert vals[1, 1] == 0.0


# --- condition checks ------------------------------------------------------------------

def test_running_sup_conditions_pass():
    cov = CovarianceSpec(eigenvalues=(1.0,))
    phi = FunctionalSpec.running_sup(1)
    cfg = SimConfig(n_paths=256, dt_max=0.02, horizon=1.0, seed=23)
    times, states = sample_path_array(cov, cfg, 256)
    rep = check_conditions(phi, cov, times, states)
    assert rep.lipschitz_hat <= 1.0 + 1e-9
    assert rep.growth_hat <= 1.0 + 1e-9
    assert rep.passed


def _pairwise_lipschitz(phi, cov, times, states):
    """L_hat as a loop over the pairs (a, a + 1), one pair at a time."""
    lam = np.asarray(cov.eigenvalues)
    phis = phi_values(phi, cov, times, states)
    lips = 0.0
    for a in range(len(states) - 1):
        b = a + 1
        diff_phi = np.sqrt(np.sum(
            (lam[None, :] * (phis[a] - phis[b])) ** 2, axis=1))
        diff_path = np.sqrt(np.sum((states[a] - states[b]) ** 2, axis=1))
        run_diff = np.maximum.accumulate(diff_path)
        sup_before = np.concatenate([[0.0], run_diff[:-1]])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(sup_before > 0, diff_phi / sup_before, 0.0)
        lips = max(lips, float(np.max(ratio)))
    return lips


@pytest.mark.parametrize("phi", [
    FunctionalSpec(kind="running_sup", weights=(0.0, 1.0, 0.0),
                   direction=(0.6, 0.0, -0.8)),
    FunctionalSpec(kind="pointwise", exprs=("x^3", "tanh(x) * t", "1"))])
@pytest.mark.parametrize("n", [1, 2, 128])
def test_lipschitz_estimate_matches_the_pair_loop(phi, n):
    # all n - 1 consecutive pairs at once give the loop's bits; one path
    # has no pair and estimates 0
    cov = CovarianceSpec.dyadic(3)
    cfg = SimConfig(n_paths=n, dt_max=0.02, horizon=1.0, seed=37)
    times, states = sample_path_array(cov, cfg, n)
    rep = check_conditions(phi, cov, times, states)
    assert rep.lipschitz_hat == _pairwise_lipschitz(phi, cov, times, states)
    assert (rep.lipschitz_hat > 0.0) == (n > 1)


def test_quadratic_growth_fails_check():
    cov = CovarianceSpec(eigenvalues=(1.0,))
    phi = FunctionalSpec(kind="pointwise", exprs=("x^3",),
                         claimed_lipschitz=1.0, claimed_growth=1.0)
    cfg = SimConfig(n_paths=256, dt_max=0.02, horizon=4.0, seed=29)
    times, states = sample_path_array(cov, cfg, 256)
    rep = check_conditions(phi, cov, times, states)
    assert not rep.passed


# --- estimates ------------------------------------------------------------------------

def test_expectation_one_mode():
    cov = CovarianceSpec(eigenvalues=(1.0,))
    phi = FunctionalSpec.running_sup(1)
    cfg = SimConfig(n_paths=5000, dt_max=0.01, horizon=1.0, seed=42)
    direct, curve = estimate_hilbert_expectation(phi, cov, 1.0, PLAN, cfg)
    assert abs(direct.mean - 1.0) <= 3.0 * direct.std_error
    assert curve.converged
    assert curve.deficit == pytest.approx(0.0, abs=0.01)


def test_curve_notes_capped_levels_and_the_mean_failed_conditions():
    cov = CovarianceSpec(eigenvalues=(1.0,))
    phi = FunctionalSpec.running_sup(1)
    plan = LocalizationPlan(levels=(4.0, 8.0, 16.0),
                            time_caps=(0.5, 1.0, 2.0))
    failed = ConditionsReport(
        lipschitz_hat=2.0, growth_hat=0.5, claimed_lipschitz=1.0,
        claimed_growth=1.0, lipschitz_passed=False, growth_passed=True,
        n_paths=8)
    direct, curve = estimate_hilbert_expectation(
        phi, cov, 1.0, plan,
        SimConfig(n_paths=50, dt_max=0.05, horizon=1.0, seed=3),
        conditions=failed)
    assert curve.notes == [
        "level 4.0: time cap 0.5 <= t, survival is 0 by construction",
        "level 8.0: time cap 1.0 <= t, survival is 0 by construction"]
    assert direct.notes == ["conditions report failed; estimates are not "
                            "certified"]


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
    # modified ones, each as a per-path scalar loop over the same streams
    cov = CovarianceSpec.dyadic(4)
    phi = FunctionalSpec.running_sup(4)
    cfg = SimConfig(n_paths=700, dt_max=0.05, horizon=1.0, seed=17)
    plan = LocalizationPlan(levels=(0.5, 1.0), time_caps=(2.0, 2.0))
    direct, curve = estimate_hilbert_expectation(phi, cov, 1.0, plan, cfg,
                                                 threads=2)
    logz, _, no_levels = _run_hilbert(cov, phi, cfg, eval_times=(1.0,))
    assert no_levels.shape == (cfg.n_paths, 0)
    _, passage, _ = _scalar_run(cov, phi, cfg, plan.levels, (1.0,))
    assert direct == MCEstimate.from_samples(np.exp(logz[:, 0]))
    assert curve == survival_curve(np.array(passage), plan, 1.0)
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


def test_a_non_finite_phi_is_refused():
    # as the diffusion engine and the jump kit refuse a non-finite
    # coefficient: the error names the mode, the time and the state
    cov = CovarianceSpec(eigenvalues=(1.0, 0.5))
    phi = FunctionalSpec(kind="pointwise", exprs=("0", "sqrt(x)"))
    cfg = SimConfig(n_paths=600, dt_max=0.1, horizon=1.0, seed=3)
    for run in (lambda: hilbert_novikov_estimate(phi, cov, 1.0, cfg),
                lambda: estimate_hilbert_expectation(phi, cov, 1.0, PLAN,
                                                     cfg)):
        with pytest.raises(EvalDomain, match=r"in mode 1 at t=0\.1, x="):
            run()
    times, states = sample_path_array(cov, cfg, 8)
    with pytest.raises(EvalDomain, match="in mode 1 at t="):
        phi_values(phi, cov, times, states)
    one_over = FunctionalSpec(kind="pointwise", exprs=("1/x", "0"))
    with pytest.raises(EvalDomain,
                       match=r"mode 0 at t=0, x=\[0\.0, 0\.0\]"):
        check_conditions(one_over, cov, times, states)


@pytest.mark.parametrize("direction, sup, mode", [
    # the largest |entry| may pass 1 by up to 1e-9, enough to overflow
    ((1.0000000005, 0.0), 1.7976931348623157e308, 0),
    ((0.6, 0.8), math.inf, 0),
    ((0.0, 1.0), math.nan, 0),
    ((0.6, 0.8), 1.7976931348623157e308, None)])
def test_a_running_sup_phi_is_refused_where_a_product_is_not_finite(
        direction, sup, mode):
    # finiteness is tested on the running sup times the largest
    # |direction| entry; the error names the first mode that fails
    cov = CovarianceSpec(eigenvalues=(1.0, 0.5))
    phi = FunctionalSpec(kind="running_sup", weights=(1.0, 0.0),
                         direction=direction)
    states = np.array([[0.0, 0.0], [sup, 0.0], [0.0, 0.0]])
    if mode is None:
        assert np.isfinite(phi_values(phi, cov, (0.0, 0.5, 1.0),
                                      states)).all()
        return
    with pytest.raises(EvalDomain,
                       match=rf"in mode {mode} at t=1, x=\[0\.0, 0\.0\]"):
        phi_values(phi, cov, (0.0, 0.5, 1.0), states)


def test_modified_rows_past_every_level_may_explode():
    # phi = x^3 drives some modified paths to inf within t = 1; a path
    # that has passed every level is dropped, so the run ends with a
    # deficit instead of a non-finite-phi error
    cov = CovarianceSpec(eigenvalues=(1.0,))
    phi = FunctionalSpec(kind="pointwise", exprs=("x^3",))
    cfg = SimConfig(n_paths=200, dt_max=0.01, horizon=1.0, seed=4)
    plan = LocalizationPlan(levels=(8.0, 16.0), time_caps=(2.0, 3.0))
    _, curve = estimate_hilbert_expectation(phi, cov, 1.0, plan, cfg)
    assert curve.entries[-1][2] < 0.9


@pytest.mark.filterwarnings("error")
def test_dropped_modified_rows_overflow_nothing():
    # the `hilbert` command's run of this config (default plan): a
    # modified row past the largest level would overflow within a few
    # steps, so it is dropped there
    cov = CovarianceSpec(eigenvalues=(1.0,))
    phi = FunctionalSpec(kind="pointwise", exprs=("x^3",))
    cfg = SimConfig(n_paths=1100, dt_max=0.01, horizon=1.0, seed=4)
    _, curve = estimate_hilbert_expectation(
        phi, cov, 1.0, LocalizationPlan.geometric(), cfg)
    assert curve.deficit > 0.0


def test_novikov_probe_heavy_at_large_t():
    cov = CovarianceSpec(eigenvalues=(1.0,))
    phi = FunctionalSpec.running_sup(1)
    cfg = SimConfig(n_paths=20000, dt_max=0.02, horizon=3.0, seed=42)
    heavy = hilbert_novikov_estimate(phi, cov, 3.0, cfg)
    assert heavy.heavy_tail_flag
    cfg_small = SimConfig(n_paths=20000, dt_max=0.02, horizon=0.25, seed=42)
    calm = hilbert_novikov_estimate(phi, cov, 0.25, cfg_small)
    assert not calm.heavy_tail_flag


def test_novikov_refuses_t_beyond_the_horizon():
    # as mc.novikov_estimate does; it used to simulate to t = 3 anyway
    cov = CovarianceSpec(eigenvalues=(1.0,))
    phi = FunctionalSpec.running_sup(1)
    cfg = SimConfig(n_paths=100, dt_max=0.02, horizon=1.0, seed=1)
    with pytest.raises(ValidationError):
        hilbert_novikov_estimate(phi, cov, 3.0, cfg)
