"""Seeded workload generator and output checks for the martprop benchmark.

`build(name, seed, workdir)` turns a workload name and a seed into the
ordered list of CLI operations the benchmark runs, writing one JSON config
file per operation into `workdir`.  The same (name, seed) always gives the
same configs, MC seeds included.  Every operation carries its expected
outcome, fixed here before anything is timed; `check` scores a report
against it.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

# Why each workload exists; printed by the runner and kept in the README.
WHY = {
    "feller": "classify without MC on the four diffusion presets and "
              "seeded crit-9 variants: feller, quad and scalar expr do "
              "the work; rng, mc, jumpkit and hilbert do none",
    "mc-bulk": "fixed-horizon ensembles where few paths stop at a level: "
               "lanes stay mostly full (lane use about 0.75, against 0.34 "
               "on mc-tail) and per-path generator setup is a visible "
               "share",
    "mc-tail": "brownian-cubic deficit at --threads 1 and 2: adaptive "
               "steps near level 32 give thousands of straggler "
               "iterations per chunk and little RNG work",
    "jump": "the jump command's scalar per-path loop, which calls the "
            "scalar expression interpreter on every step",
}

NAMES = tuple(WHY)

# Diffusion presets: drift b = B x with sigma = 1, and the verdict Feller's
# test must give.  The verdict is invariant under the reference point and
# under scaling (b, c) -> (lam b, lam c) (crit 9), so it is known for
# every variant too.
_DIFFUSIONS = {
    "identity-zero": (0.0, "TrueMartingale"),
    "brownian-linear": (0.0, "TrueMartingale"),
    "brownian-cubic": (0.0, "StrictLocal"),
    "ou-linear": (-1.0, "TrueMartingale"),
}

# crit 2's bound on the deficit of a true martingale
_TRUE_DEFICIT_MAX = 0.01
# Monte Carlo checks accept an estimate within this many standard errors
# of its target.  Judging a change takes a few hundred runs with several
# such checks each.  At crit 4's and crit 7's tolerances (2.8 and 3 SE,
# 0.3-0.5% per check) a correct program fails one of them by chance in
# most such rounds: on jump seed 55878108 the poisson-U4 compensator gap
# lies 3.3 SE from 0.  At 5 SE a normal estimate fails about once in
# 1.7 million checks, and a bias of 5 SE or more still fails.
_Z_MC = 5.0
# The means of exponential functionals (Novikov's E[exp(1/2 int q)],
# the Hilbert E[Z_1]) are of samples with a heavy right tail: a sample
# without its rare large paths reads low with a small SE.  Over 1000 MC
# seeds the Novikov mean's SE score ran from -3.7 to +2.3 and its
# relative error from -2.3% to +5.1% (the high end with a large SE).
# Over 1400 seeds the Hilbert mean's SE score ran from -4.8 to +2.4; its
# lowest scores came with relative errors of -2.8% to -3.6%.
# A mean passes within _MEAN_REL_TOL or within _Z_MC SE of its target;
# at these sample sizes 5 SE is 3-7% anyway.
_MEAN_REL_TOL = 0.05
# E[exp(1/2 int_0^1 W_s^2 ds)] = cos(1)^(-1/2) (Cameron-Martin)
_NOVIKOV_TARGET = math.cos(1.0) ** -0.5

# mc-tail: two 4096-path chunks, so --threads 2 has work to split
_TAIL_PATHS = 8192
_ORACLE_PATHS = 4096
# Operation sizes: short operations give many samples per run, which
# keeps the medians steady on a noisy box.  One 4096-path chunk per
# diffusion ensemble; about one second per jump operation.
_BULK_PATHS = 4096
_HILBERT_PATHS = 2048
_JUMP_PATHS = {"poisson-U4": 200, "atom-half": 600}


@dataclass
class Op:
    """One CLI invocation and the outcome it must produce."""

    label: str
    command: str
    config: dict
    threads: int = 1
    flags: tuple = ()
    expect: dict = field(default_factory=dict)
    config_path: str = ""

    def argv(self, output_path):
        return [self.command, *self.flags, "--config", self.config_path,
                "--threads", str(self.threads), "--output", output_path]


def _mc_seed(rng):
    return rng.randrange(1, 2 ** 31)


def _feller_ops(rng):
    # One seeded variant per preset.  Feller work is even in x0, grows
    # with |x0| (1.8x from 0 to 1.5 on brownian-linear, 1.4x on
    # brownian-cubic and ou-linear, nil on identity-zero) and does not
    # depend on lam.  The variants' |x0| share one uniform u:
    # brownian-linear takes 1.5 u and the others 1.5 (1 - u).  Each x0 is
    # still uniform on [-1.5, 1.5], and the scalar evaluations of a pass
    # range over 9% from seed to seed instead of 23% for independent
    # draws.
    ops = []
    u = rng.random()
    for preset, (drift, verdict) in _DIFFUSIONS.items():
        ops.append(Op(f"classify {preset}", "classify",
                      {"preset": preset},
                      expect={"classification": verdict}))
        frac = u if preset == "brownian-linear" else 1.0 - u
        x0 = rng.choice((-1.5, 1.5)) * frac
        lam = 0.5 * 4.0 ** rng.random()
        spec = {"b": ["0" if drift == 0.0 else f"{drift * lam!r}*x"],
                "sigma": [[repr(math.sqrt(lam))]],
                "x0": [x0]}
        ops.append(Op(f"classify {preset} variant (x0={x0:.3f}, "
                      f"lam={lam:.3f})", "classify",
                      {"preset": preset, "spec": spec},
                      expect={"classification": verdict}))
    return ops


def _bulk_ops(rng):
    true_deficit = {"deficit_max": _TRUE_DEFICIT_MAX, "converged": True}
    return [
        Op("deficit ou-linear", "deficit",
           {"preset": "ou-linear",
            "mc": {"n_paths": _BULK_PATHS, "seed": _mc_seed(rng)}},
           expect=dict(true_deficit)),
        Op("deficit brownian-linear", "deficit",
           {"preset": "brownian-linear",
            "mc": {"n_paths": _BULK_PATHS, "seed": _mc_seed(rng)}},
           expect=dict(true_deficit)),
        Op("novikov brownian-linear", "novikov",
           {"preset": "brownian-linear",
            "mc": {"n_paths": _BULK_PATHS, "seed": _mc_seed(rng)}},
           expect={"novikov": _NOVIKOV_TARGET}),
        Op("classify --with-mc identity-zero", "classify",
           {"preset": "identity-zero",
            "mc": {"n_paths": _BULK_PATHS, "seed": _mc_seed(rng)}},
           flags=("--with-mc",),
           expect={"classification": "TrueMartingale", "identity": True}),
        Op("hilbert running-sup-16", "hilbert",
           {"preset": "running-sup-16",
            "mc": {"n_paths": _HILBERT_PATHS, "seed": _mc_seed(rng)}},
           expect={"conditions": True, "mean_one": True}),
    ]


def _tail_ops(rng):
    from martprop import catalog
    from martprop.acceptance import _explosion_probability_oracle
    mc = {"n_paths": _TAIL_PATHS, "seed": _mc_seed(rng)}
    # crit 4's own fine-step oracle, at the preset's last level and horizon
    preset = catalog.get("brownian-cubic")
    oracle = _explosion_probability_oracle(
        preset.plan.levels[-1], preset.t, n_paths=_ORACLE_PATHS,
        seed=_mc_seed(rng))
    expect = {"deficit_positive": True, "converged": True,
              "oracle": oracle}
    t1 = Op("deficit brownian-cubic --threads 1", "deficit",
            {"preset": "brownian-cubic", "mc": mc}, threads=1,
            expect=dict(expect))
    t2 = Op("deficit brownian-cubic --threads 2", "deficit",
            {"preset": "brownian-cubic", "mc": mc}, threads=2,
            expect=dict(expect, same_bytes_as=t1.label))
    return [t1, t2]


def _jump_ops(rng):
    return [Op(f"jump {preset}", "jump",
               {"preset": preset,
                "mc": {"n_paths": n, "seed": _mc_seed(rng)}},
               expect={"classification": "TrueMartingale",
                       "compensator": True})
            for preset, n in _JUMP_PATHS.items()]


_BUILDERS = {"feller": _feller_ops, "mc-bulk": _bulk_ops,
             "mc-tail": _tail_ops, "jump": _jump_ops}


def build(name, seed, workdir):
    """Operations of workload `name` for `seed`, configs written to
    `workdir`.  Raises KeyError for an unknown workload."""
    rng = random.Random(f"{name}:{seed}")
    ops = _BUILDERS[name](rng)
    workdir = Path(workdir)
    for i, op in enumerate(ops):
        path = workdir / f"op{i:02d}.json"
        path.write_text(json.dumps(op.config, indent=1, sort_keys=True))
        op.config_path = str(path)
    return ops


def _curve(report):
    return report["curves"]["deficit"]


def _mean_near(est, target, what):
    """(ok, message) for a reported MC mean against its target."""
    m, se = est["mean"], est["std_error"]
    ok = abs(m - target) <= max(_MEAN_REL_TOL * abs(target), _Z_MC * se)
    return ok, (f"{what} {m} +/- {se} not within {_MEAN_REL_TOL:.0%} or "
                f"{_Z_MC:g} SE of {target:.5f}")


def check(op, report, raw, earlier):
    """Failure messages for one operation's report (empty: correct).

    `raw` is the report's bytes; `earlier` maps the labels of operations
    already run in the same pass to their report bytes.
    """
    exp = op.expect
    bad = []

    def need(ok, what):
        if not ok:
            bad.append(what)

    if "classification" in exp:
        got = report["verdict"]["classification"]
        need(got == exp["classification"],
             f"classification {got}, expected {exp['classification']}")
    if "deficit_max" in exp:
        d = _curve(report)["deficit"]
        need(d < exp["deficit_max"],
             f"deficit {d} not below {exp['deficit_max']}")
    if exp.get("converged"):
        need(_curve(report)["converged"] is True, "curve not converged")
    if exp.get("deficit_positive"):
        d = _curve(report)["deficit"]
        need(d > 0.0, f"deficit {d} not positive")
    if "oracle" in exp:
        p, se_oracle = exp["oracle"]
        curve = _curve(report)
        se = curve["entries"][-1]["std_error"]
        gap = abs(curve["deficit"] - p)
        tol = _Z_MC * math.hypot(se, se_oracle)
        need(gap <= tol, f"deficit {curve['deficit']} is {gap:.4f} from "
             f"the oracle {p:.4f} (tolerance {tol:.4f})")
    if "same_bytes_as" in exp:
        need(raw == earlier.get(exp["same_bytes_as"]),
             f"report bytes differ from '{exp['same_bytes_as']}'")
    if "novikov" in exp:
        need(*_mean_near(report["estimates"]["novikov"], exp["novikov"],
                         "novikov mean"))
    if exp.get("identity"):
        direct = report["estimates"]["direct_mean"]
        need(direct["mean"] == 1.0 and direct["std_error"] == 0.0,
             f"beta=0 direct mean {direct['mean']} "
             f"+/- {direct['std_error']}, expected exactly 1 +/- 0")
        need(_curve(report)["deficit"] == 0.0,
             "beta=0 deficit is not exactly 0")
    if exp.get("conditions"):
        need(report["estimates"]["conditions"]["passed"] is True,
             "Hilbert conditions failed")
    if exp.get("mean_one"):
        need(*_mean_near(report["estimates"]["direct_mean"], 1.0,
                         "E[Z_1]"))
    if exp.get("compensator"):
        # the report's own flag tests at 3 SE; see _Z_MC
        comp = report["estimates"]["compensator_identity"]
        need(abs(comp["mean_gap"]) <= _Z_MC * comp["std_error"],
             f"compensator gap {comp['mean_gap']} +/- {comp['std_error']} "
             f"is more than {_Z_MC:g} SE from 0")
    return bad
