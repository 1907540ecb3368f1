"""Named worked-example presets shipped with the CLI.

A preset is a config document: the JSON shape a `--config` file holds,
parsed and validated by `config.resolve` like any other.  A config that
names a preset overrides its sections (see `config.resolve`).
"""

from __future__ import annotations

import json

from .errors import ConfigError

_BM = {"b": ["0"], "sigma": [["1"]]}
_PLAN = {"levels": [4.0, 8.0, 16.0, 32.0],
         "time_caps": [2.0, 3.0, 4.0, 5.0]}
_PLAN_HIGH = {"levels": [8.0, 16.0, 24.0, 32.0],
              "time_caps": [2.0, 3.0, 4.0, 5.0]}
_UNIT = {"support": [1.0], "probs": [1.0]}


def _mc(n_paths, dt_max):
    return {"n_paths": n_paths, "dt_max": dt_max, "horizon": 1.0,
            "seed": 42}


def _diffusion(b, beta, plan, n_paths, dt_max=0.005):
    return {"t": 1.0, "plan": plan, "mc": _mc(n_paths, dt_max),
            "spec": dict(_BM, b=[b]), "exponent": {"beta": [beta]}}


def _jump(triplet, U):
    return {"t": 1.0, "plan": _PLAN_HIGH, "mc": _mc(10000, 0.005),
            "triplet": dict(triplet, base=_BM),
            "girsanov": {"K": "0", "U": U}}


def _running_sup(eigenvalues):
    unit = [1.0] + [0.0] * (len(eigenvalues) - 1)
    return {"t": 1.0, "plan": _PLAN, "mc": _mc(10000, 0.005),
            "covariance": {"modes": len(eigenvalues),
                           "eigenvalues": eigenvalues},
            "functional": {"kind": "running_sup", "weights": unit,
                           "direction": unit, "claimed_lipschitz": 1.0,
                           "claimed_growth": 1.0}}


# name -> (description, the document as JSON text)
_PRESETS = {name: (text, json.dumps(doc)) for name, (text, doc) in {
    "identity-zero": (
        "Brownian motion with beta = 0: Z is identically 1.",
        _diffusion("0", "0", _PLAN_HIGH, 10000, dt_max=0.02)),
    "brownian-linear": (
        "Z = E(X.X) over Brownian motion (beta(x) = x): a true "
        "martingale even though Novikov's condition fails for large "
        "horizons.",
        _diffusion("0", "x", _PLAN, 100000)),
    "brownian-cubic": (
        "beta(x) = x^3 over Brownian motion: the modified dynamics "
        "dY = Y^3 dt + dB explode, so Z is a strict local martingale.",
        _diffusion("0", "x^3", _PLAN, 20000)),
    "ou-linear": (
        "Ornstein-Uhlenbeck base (b = -x) with beta(x) = x: the "
        "modified drift vanishes, Z is a true martingale.",
        _diffusion("-x", "x", _PLAN, 20000)),
    "poisson-U4": (
        "Compound Poisson (rate 1, unit jumps) reweighted by U = 4, "
        "K = 0.",
        _jump({"cp_rate": 1.0, "cp_dist": _UNIT}, "4")),
    "atom-half": (
        "Single scheduled atom at t = 0.5 with mass 1/2, unit jump, "
        "U = 1.5 (Uhat = 0.75).",
        _jump({"atoms": [{"time": 0.5, "mass": 0.5, "dist": _UNIT}]},
              "1.5")),
    "running-sup-1": (
        "Z = E(W* . W) with W* the running supremum of a scalar "
        "Brownian motion: true martingale, Novikov fails at large t.",
        _running_sup([1.0])),
    "running-sup-16": (
        "Running-sup exponent on a 16-mode Q-Brownian motion with "
        "eigenvalues 2^-k.",
        _running_sup([2.0 ** -(k + 1) for k in range(16)])),
}.items()}


def names():
    return sorted(_PRESETS)


def _entry(name):
    try:
        return _PRESETS[name]
    except (KeyError, TypeError):
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(names())}",
            field="preset") from None


def description(name):
    return _entry(name)[0]


def document(name):
    """The preset's config document, a fresh dict on every call."""
    return json.loads(_entry(name)[1])


def get(name):
    """The preset resolved to a `config.RunConfig`."""
    from .config import resolve
    return resolve({}, preset_name=name)
