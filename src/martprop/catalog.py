"""Named worked-example presets shipped with the CLI.

Each preset bundles everything a command needs: the dynamics, the
exponent, a localization plan, a horizon and Monte Carlo defaults.  CLI
configs can start from a preset and override individual fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError
from .hilbert import CovarianceSpec, FunctionalSpec
from .jumpkit import Atom, DiscreteDist, GirsanovData, JumpTriplet
from .mc import SimConfig
from .model import DiffusionSpec, ExponentSpec, LocalizationPlan

INF = math.inf


@dataclass(frozen=True)
class Preset:
    name: str
    description: str
    kind: str                      # diffusion | jump | hilbert
    t: float
    plan: LocalizationPlan
    mc: SimConfig
    spec: DiffusionSpec = None
    exponent: ExponentSpec = None
    triplet: JumpTriplet = None
    girsanov: GirsanovData = None
    covariance: CovarianceSpec = None
    functional: FunctionalSpec = None


_BM = DiffusionSpec.scalar("0", "1")
_PLAN = LocalizationPlan(levels=(4.0, 8.0, 16.0, 32.0),
                         time_caps=(2.0, 3.0, 4.0, 5.0))
_PLAN_HIGH = LocalizationPlan(levels=(8.0, 16.0, 24.0, 32.0),
                              time_caps=(2.0, 3.0, 4.0, 5.0))

_PRESETS = {}


def _add(preset):
    _PRESETS[preset.name] = preset


_add(Preset(
    name="identity-zero",
    description="Brownian motion with beta = 0: Z is identically 1.",
    kind="diffusion", t=1.0, plan=_PLAN_HIGH,
    mc=SimConfig(n_paths=10000, dt_max=0.02, horizon=1.0, seed=42),
    spec=_BM, exponent=ExponentSpec.scalar("0")))

_add(Preset(
    name="brownian-linear",
    description="Z = E(X.X) over Brownian motion (beta(x) = x): a true "
                "martingale even though Novikov's condition fails for "
                "large horizons.",
    kind="diffusion", t=1.0, plan=_PLAN,
    mc=SimConfig(n_paths=100000, dt_max=0.005, horizon=1.0, seed=42),
    spec=_BM, exponent=ExponentSpec.scalar("x")))

_add(Preset(
    name="brownian-cubic",
    description="beta(x) = x^3 over Brownian motion: the modified "
                "dynamics dY = Y^3 dt + dB explode, so Z is a strict "
                "local martingale.",
    kind="diffusion", t=1.0, plan=_PLAN,
    mc=SimConfig(n_paths=20000, dt_max=0.005, horizon=1.0, seed=42),
    spec=_BM, exponent=ExponentSpec.scalar("x^3")))

_add(Preset(
    name="ou-linear",
    description="Ornstein-Uhlenbeck base (b = -x) with beta(x) = x: the "
                "modified drift vanishes, Z is a true martingale.",
    kind="diffusion", t=1.0, plan=_PLAN,
    mc=SimConfig(n_paths=20000, dt_max=0.005, horizon=1.0, seed=42),
    spec=DiffusionSpec.scalar("-x", "1"), exponent=ExponentSpec.scalar("x")))

_add(Preset(
    name="poisson-U4",
    description="Compound Poisson (rate 1, unit jumps) reweighted by "
                "U = 4, K = 0.",
    kind="jump", t=1.0, plan=_PLAN_HIGH,
    mc=SimConfig(n_paths=10000, dt_max=0.005, horizon=1.0, seed=42),
    triplet=JumpTriplet(base=_BM, cp_rate=1.0,
                        cp_dist=DiscreteDist((1.0,), (1.0,))),
    girsanov=GirsanovData(K="0", U="4")))

_add(Preset(
    name="atom-half",
    description="Single scheduled atom at t = 0.5 with mass 1/2, unit "
                "jump, U = 1.5 (Uhat = 0.75).",
    kind="jump", t=1.0, plan=_PLAN_HIGH,
    mc=SimConfig(n_paths=10000, dt_max=0.005, horizon=1.0, seed=42),
    triplet=JumpTriplet(base=_BM, atoms=(
        Atom(time=0.5, mass=0.5, dist=DiscreteDist((1.0,), (1.0,))),)),
    girsanov=GirsanovData(K="0", U="1.5")))

_add(Preset(
    name="running-sup-1",
    description="Z = E(W* . W) with W* the running supremum of a scalar "
                "Brownian motion: true martingale, Novikov fails at "
                "large t.",
    kind="hilbert", t=1.0, plan=_PLAN,
    mc=SimConfig(n_paths=10000, dt_max=0.005, horizon=1.0, seed=42),
    covariance=CovarianceSpec(modes=1, eigenvalues=(1.0,)),
    functional=FunctionalSpec.running_sup(1)))

_add(Preset(
    name="running-sup-16",
    description="Running-sup exponent on a 16-mode Q-Brownian motion "
                "with eigenvalues 2^-k.",
    kind="hilbert", t=1.0, plan=_PLAN,
    mc=SimConfig(n_paths=10000, dt_max=0.005, horizon=1.0, seed=42),
    covariance=CovarianceSpec.dyadic(16),
    functional=FunctionalSpec.running_sup(16)))


def names():
    return sorted(_PRESETS)


def get(name: str) -> Preset:
    try:
        return _PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(names())}",
            field="preset") from None

