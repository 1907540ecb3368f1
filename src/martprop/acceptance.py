"""Built-in acceptance suite shared by `martprop selftest` and the test
suite.  Each criterion returns (name, passed, details); nothing here
tunes thresholds to the observed numbers — tolerances are fixed up
front (3 standard errors for Monte Carlo facts, exact equality for
degenerate cases, 1e-12 for closed forms).
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import time
from dataclasses import replace

import numpy as np
from click.testing import CliRunner

from . import catalog, cli
from .feller import classify_explosion, feller_v, martingale_verdict
from .hilbert import (
    check_conditions,
    estimate_hilbert_expectation,
    sample_path_array,
)
from .jumpkit import (
    analyze_jump,
    atom_delta_R,
    atom_delta_R_closed_form,
    compute_R,
    simulate_jump_exponential,
)
from .mc import (
    MCEstimate,
    SimConfig,
    deficit_for,
    estimate_mean_direct,
    localized_bound_check,
    novikov_mean,
    run_ensemble,
    stopped_exponential_means,
)
from .model import (Classification, DiffusionSpec, LocalizationPlan,
                    modified_drift)

_DIFFUSION_PRESETS = ("identity-zero", "brownian-linear",
                      "brownian-cubic", "ou-linear")


def _within(value, target, tol):
    return abs(value - target) <= tol


def criterion_1(threads=1):
    """beta = 0: exact identity in finite time."""
    start = time.monotonic()
    p = catalog.get("identity-zero")
    verdict = martingale_verdict(p.spec, p.exponent)
    curve = deficit_for(p.spec, p.exponent, p.plan, p.t, p.mc,
                        threads=threads)
    direct = estimate_mean_direct(p.spec, p.exponent, p.t, p.mc,
                                  threads=threads)
    elapsed = time.monotonic() - start
    ok = (verdict.classification is Classification.TRUE_MARTINGALE
          and curve.deficit == 0.0 and curve.converged
          and direct.mean == 1.0 and direct.std_error == 0.0
          and elapsed < 1.0)
    return ("criterion 1 (identity beta=0)", ok,
            f"verdict={verdict.classification.value}, "
            f"deficit={curve.deficit}, converged={curve.converged}, "
            f"mean={direct.mean}, se={direct.std_error}, "
            f"{elapsed:.2f}s (limit 1s)")


def criterion_2(threads=1):
    """beta(x) = x over Brownian motion: true martingale end to end."""
    start = time.monotonic()
    p = catalog.get("brownian-linear")
    mod = modified_drift(p.spec, p.exponent)
    rep = classify_explosion(mod)
    verdict = martingale_verdict(p.spec, p.exponent)
    curve = deficit_for(p.spec, p.exponent, p.plan, p.t, p.mc,
                        threads=threads)
    direct = estimate_mean_direct(p.spec, p.exponent, p.t, p.mc,
                                  threads=threads)
    elapsed = time.monotonic() - start
    ok = (rep.conclusion == "NonExplosive"
          and rep.v_left.status == "infinite"
          and rep.v_right.status == "infinite"
          and verdict.classification is Classification.TRUE_MARTINGALE
          and curve.deficit < 0.01 and curve.converged
          and _within(direct.mean, 1.0, 3.0 * direct.std_error)
          and elapsed < 60.0)
    return ("criterion 2 (E(X.X) true martingale)", ok,
            f"modified dynamics {rep.conclusion}, "
            f"verdict={verdict.classification.value}, "
            f"deficit={curve.deficit:.5f} (<0.01), "
            f"converged={curve.converged}, "
            f"mean={direct.mean:.4f}+/-{direct.std_error:.4f}, "
            f"{elapsed:.1f}s (limit 60s)")


def criterion_3(threads=1):
    """Novikov's condition fails at t=3 for beta(x) = x: heavy tail and
    a running mean that grows when the sample doubles."""
    start = time.monotonic()
    p = catalog.get("brownian-linear")
    t = 3.0
    cfg = SimConfig(n_paths=100000, dt_max=0.01, horizon=t,
                    seed=p.mc.seed)
    result = run_ensemble(p.spec, cfg, exp=p.exponent, threads=threads)
    nov = np.where(result.status == 0, result.final_nov, math.nan)
    half = novikov_mean(nov[: len(nov) // 2])
    full = novikov_mean(nov)
    elapsed = time.monotonic() - start
    ok = full.heavy_tail_flag and full.mean > half.mean and elapsed < 60.0
    return ("criterion 3 (Novikov failure at t=3)", ok,
            f"heavy_tail_flag={full.heavy_tail_flag} (max share "
            f"{full.max_sample_share:.3f}), mean half/full = "
            f"{half.mean:.3g}/{full.mean:.3g} "
            f"(growing), {elapsed:.1f}s (limit 60s)")


def _explosion_probability_oracle(level, t, n_paths=40000, dt=2e-4,
                                  seed=12345):
    """Independent fine-step estimate of P(sup_{s<=t} |Y_s| >= level)
    for dY = Y^3 dt + dB, Y_0 = 0, on a fixed uniform grid."""
    rng = np.random.default_rng(seed)
    steps = int(round(t / dt))
    y = np.zeros(n_paths)
    crossed = np.zeros(n_paths, dtype=bool)
    sqdt = math.sqrt(dt)
    for _ in range(steps):
        alive = ~crossed
        ya = y[alive]
        y[alive] = ya + ya ** 3 * dt + sqdt * rng.standard_normal(
            int(np.sum(alive)))
        crossed |= np.abs(y) >= level
        y[crossed] = 0.0
    p = float(np.mean(crossed))
    se = math.sqrt(p * (1.0 - p) / n_paths)
    return p, se


def criterion_4(threads=1):
    """beta(x) = x^3: strict local martingale with a deficit matching an
    independent fine-step explosion-probability oracle."""
    start = time.monotonic()
    p = catalog.get("brownian-cubic")
    mod = modified_drift(p.spec, p.exponent)
    v_right = feller_v(mod, "right", 0.0)
    verdict = martingale_verdict(p.spec, p.exponent)
    curve = deficit_for(p.spec, p.exponent, p.plan, p.t, p.mc,
                        threads=threads)
    se_last = curve.entries[-1][3]
    oracle_p, oracle_se = _explosion_probability_oracle(
        p.plan.levels[-1], p.t)
    gap = abs(curve.deficit - oracle_p)
    tol = 2.0 * (se_last + oracle_se)
    elapsed = time.monotonic() - start
    ok = (v_right.status == "finite"
          and verdict.classification is Classification.STRICT_LOCAL
          and curve.deficit > 0.0 and curve.converged
          and gap <= tol and elapsed < 120.0)
    return ("criterion 4 (beta=x^3 strict local)", ok,
            f"v(+inf)={v_right.status} ({v_right.value:.4f}), "
            f"verdict={verdict.classification.value}, "
            f"deficit={curve.deficit:.4f} vs oracle {oracle_p:.4f} "
            f"(gap {gap:.4f} <= {tol:.4f}), converged={curve.converged}, "
            f"{elapsed:.1f}s (limit 120s)")


def _binding_plan(plan):
    """`plan` behind levels 0.5 and 1.0 (caps 2.0), which some paths pass
    by t = 0.25, where no path reaches a preset level."""
    return LocalizationPlan(levels=(0.5, 1.0) + plan.levels,
                            time_caps=(2.0, 2.0) + plan.time_caps)


def criterion_5(threads=1):
    """Optional stopping: E[Z_{t and rho_n}] = 1 within 3 SE for every
    level of every catalog diffusion passing the bound check, at the
    preset's plan levels and at the two binding levels ahead of them.

    Tested at t = 0.25: the fact holds at any t, but for the strict
    local case the sample mean at larger t is dominated by vanishing-
    probability paths carrying huge Z values, so no desk-scale sample
    size resolves it there.
    """
    start = time.monotonic()
    t = 0.25
    lines = []
    ok = True
    for name in _DIFFUSION_PRESETS:
        p = catalog.get(name)
        plan = _binding_plan(p.plan)
        localized_bound_check(p.spec, p.exponent, plan)
        ests = stopped_exponential_means(
            p.spec, p.exponent, t, plan,
            replace(p.mc, n_paths=10000, dt_max=0.002), threads=threads)
        worst = max(abs(e.mean - 1.0) - 3.0 * e.std_error for e in ests)
        level_ok = worst <= 0.0 or all(
            e.std_error == 0.0 and e.mean == 1.0 for e in ests)
        ok = ok and level_ok
        zs = ", ".join(
            f"{(e.mean - 1.0) / e.std_error:+.2f}" if e.std_error > 0
            else "exact" for e in ests)
        lines.append(f"{name}: z=[{zs}]")
    elapsed = time.monotonic() - start
    return ("criterion 5 (stopped means = 1 +/- 3 SE, t=0.25)", ok,
            "; ".join(lines) + f", {elapsed:.1f}s")


def criterion_6(threads=1):
    """Jump kit: positivity, compensator identity, atom bookkeeping and
    the lambda = 0 degeneration."""
    start = time.monotonic()
    parts = []
    ok = True

    # (a) Delta N > -1 on every simulated path of both jump presets,
    # under both triplets
    for name in ("poisson-U4", "atom-half"):
        p = catalog.get(name)
        cfg = replace(p.mc, n_paths=2000)
        min_dn = min(float(np.min(res.min_delta_N))
                     for res in simulate_jump_exponential(
                         p.triplet, p.girsanov, cfg))
        a_ok = min_dn > -1.0
        ok = ok and a_ok
        parts.append(f"(a) {name} min dN={min_dn:.4f}>-1: {a_ok}")

    # (b) compensator identity on poisson-U4 within 3 SE
    p = catalog.get("poisson-U4")
    _, _, comp = analyze_jump(p.triplet, p.girsanov, p.t, p.plan,
                              replace(p.mc, n_paths=4000))
    ok = ok and comp.passed
    parts.append(f"(b) compensator gap {comp.mean_gap:.3e} "
                 f"+/- {comp.std_error:.3e}: {comp.passed}")

    # (c) atom Delta R: computed vs closed form, relative error < 1e-12
    p = catalog.get("atom-half")
    atom = p.triplet.atoms[0]
    dr = atom_delta_R(atom, p.girsanov)
    dr_cf = atom_delta_R_closed_form(atom, p.girsanov)
    rel = abs(dr - dr_cf) / abs(dr_cf)
    c_ok = rel < 1e-12
    ok = ok and c_ok
    parts.append(f"(c) atom dR rel err {rel:.2e} < 1e-12: {c_ok}")

    # (d) lambda = 0 degeneration: R equals the diffusion-module
    # quadratic integral exactly, and the jump-path estimate of E[Z_t]
    # agrees with the diffusion engine within combined MC noise
    from .jumpkit import GirsanovData, JumpTriplet
    from .model import ExponentSpec
    bm = DiffusionSpec.scalar("0", "1")
    trip = JumpTriplet(base=bm)
    gd = GirsanovData(K="2", U="1")
    grid = np.linspace(0.0, 1.0, 201)
    r_path = compute_R(trip, gd, grid)
    d_exact = r_path.R[-1] == 4.0  # int K^2 c dt = 4t at t=1
    cfg = SimConfig(n_paths=4000, dt_max=0.005, horizon=1.0, seed=7)
    res, _ = simulate_jump_exponential(trip, gd, cfg)
    jump_mean = MCEstimate.from_samples(res.z)
    diff = estimate_mean_direct(bm, ExponentSpec.scalar("2"), 1.0,
                                replace(cfg, seed=11), threads=threads)
    gap = abs(jump_mean.mean - diff.mean)
    tol = 3.0 * math.sqrt(jump_mean.std_error ** 2 + diff.std_error ** 2)
    d_ok = d_exact and gap <= tol
    ok = ok and d_ok
    parts.append(f"(d) R_1={r_path.R[-1]} == 4 exactly: {d_exact}; "
                 f"jump vs diffusion mean gap {gap:.4f} <= {tol:.4f}: "
                 f"{gap <= tol}")
    elapsed = time.monotonic() - start
    return ("criterion 6 (jump kit)", ok,
            "; ".join(parts) + f", {elapsed:.1f}s")


def criterion_7(threads=1):
    """16-mode running-sup exponent: per-mode variances, empirical
    Lipschitz/growth constants, and E[Z_1] = 1 within 3 SE."""
    start = time.monotonic()
    p = catalog.get("running-sup-16")
    cov, phi = p.covariance, p.functional
    n_var = 10000
    times, states = sample_path_array(cov, replace(p.mc, dt_max=0.01),
                                      n_var)
    finals = states[:, -1, :]
    var_ok = True
    worst = 0.0
    for k, lam in enumerate(cov.eigenvalues):
        target = lam * p.t
        v = float(np.var(finals[:, k], ddof=1))
        # SE of the sample variance of a normal: var * sqrt(2/(n-1))
        se = target * math.sqrt(2.0 / (n_var - 1))
        z = abs(v - target) / se
        worst = max(worst, z)
        var_ok = var_ok and z <= 3.0
    cond = check_conditions(phi, cov, times[:51], states[:512, :51, :])
    cond_ok = cond.lipschitz_hat <= 1.0 and cond.growth_hat <= 1.0
    direct, curve = estimate_hilbert_expectation(
        phi, cov, p.t, p.plan, p.mc, threads=threads, conditions=cond)
    mean_ok = _within(direct.mean, 1.0, 3.0 * direct.std_error)
    elapsed = time.monotonic() - start
    ok = var_ok and cond_ok and mean_ok and elapsed < 120.0
    return ("criterion 7 (16-mode running-sup)", ok,
            f"per-mode variance worst |z|={worst:.2f} (<=3), "
            f"L_hat={cond.lipschitz_hat:.3f}<=1, "
            f"lambda_hat={cond.growth_hat:.3f}<=1, "
            f"E[Z_1]={direct.mean:.4f}+/-{direct.std_error:.4f}, "
            f"{elapsed:.1f}s (limit 120s)")


def _cli_report_bytes(args, threads, out):
    """The report that `martprop *args --threads threads` writes to
    `out`, from the CLI run in this process."""
    result = CliRunner().invoke(
        cli.main, [*args, "--threads", str(threads), "--output", out])
    if result.exit_code:
        raise RuntimeError(f"martprop {' '.join(args)} exited "
                           f"{result.exit_code}: {result.output}")
    with open(out, "rb") as fh:
        return fh.read()


def criterion_8(threads=1):
    """Reports are byte-identical across --threads 1 and --threads 8."""
    start = time.monotonic()
    # shrink the presets via a config override, each to more than one
    # chunk: 4200 paths span two 4096-path diffusion or jump chunks, and
    # 1500 paths three 512-path Hilbert chunks
    small = (("classify", "brownian-linear", 4200, "--with-mc"),
             ("deficit", "brownian-linear", 4200),
             ("jump", "atom-half", 4200),
             ("hilbert", "running-sup-16", 1500))
    ok = True
    parts = []
    with tempfile.TemporaryDirectory() as tmp:
        runs = []
        for command, preset, n_paths, *flags in small:
            path = os.path.join(tmp, f"{command}.json")
            with open(path, "w") as fh:
                json.dump({"preset": preset,
                           "mc": {"n_paths": n_paths, "dt_max": 0.01}}, fh)
            runs.append((command, "--config", path, *flags))
        out = os.path.join(tmp, "report.json")
        for args in runs:
            same = (_cli_report_bytes(args, 1, out)
                    == _cli_report_bytes(args, 8, out))
            ok = ok and same
            parts.append(f"{args[0]}: {'identical' if same else 'DIFFER'}")
    elapsed = time.monotonic() - start
    return ("criterion 8 (thread-count determinism)", ok,
            "; ".join(parts) + f", {elapsed:.1f}s")


def _scaled(spec, lam):
    root = math.sqrt(lam)
    return DiffusionSpec(
        intervals=spec.intervals, b=tuple(e * lam for e in spec.b),
        sigma=tuple(tuple(e * root for e in row) for row in spec.sigma),
        x0=spec.x0)


def criterion_9(threads=1):
    """Feller verdicts are invariant under the reference point xi and
    under (b, c) -> (lambda b, lambda c), lambda in {0.5, 2}."""
    start = time.monotonic()
    ok = True
    parts = []
    for name in _DIFFUSION_PRESETS:
        p = catalog.get(name)
        base = martingale_verdict(p.spec, p.exponent).classification
        variants = []
        for xi in (0.6, -1.3):
            variants.append(martingale_verdict(
                p.spec, p.exponent, xi=xi).classification)
        for lam in (0.5, 2.0):
            variants.append(martingale_verdict(
                _scaled(p.spec, lam), p.exponent).classification)
        same = all(v is base for v in variants)
        ok = ok and same
        parts.append(f"{name}={base.value}"
                     + ("" if same else " VARIES"))
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 5.0
    return ("criterion 9 (Feller xi/scaling invariance)", ok,
            "; ".join(parts) + f", {elapsed:.2f}s (limit 5s)")


_ALL = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
        criterion_6, criterion_7, criterion_8, criterion_9)
_FAST = (criterion_1, criterion_6, criterion_9)


def run_all(threads=1, fast=False):
    results = []
    for fn in (_FAST if fast else _ALL):
        results.append(fn(threads=threads))
    return results
