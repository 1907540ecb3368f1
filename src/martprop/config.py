"""JSON config schema: parsing, validation with field paths, and the
round-trip serialization embedded in every report.

A config may name a `preset` (a config document from `catalog`) and/or
spell out sections; explicit sections override the preset's.  Infinite
interval endpoints are written as the strings "inf"/"-inf" (JSON has no
infinity literal).
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace

from . import catalog
from .errors import ConfigError, MartpropError
from .hilbert import CovarianceSpec, FunctionalSpec
from .jumpkit import Atom, DiscreteDist, GirsanovData, JumpTriplet
from .mc import SimConfig
from .model import DiffusionSpec, ExponentSpec, LocalizationPlan


def _bound(value, fld):
    if isinstance(value, str):
        if value in ("inf", "+inf", "Infinity"):
            return math.inf
        if value in ("-inf", "-Infinity"):
            return -math.inf
        raise ConfigError(f"cannot read {value!r} as a bound", field=fld)
    if value is None:
        raise ConfigError("interval bounds must be numbers or 'inf'/'-inf'",
                          field=fld)
    return float(value)


def _bound_out(value):
    if value == math.inf:
        return "inf"
    if value == -math.inf:
        return "-inf"
    return value


# --- section parsers -----------------------------------------------------


@contextmanager
def _section(fld):
    """Report a failure to parse section `fld` as a ConfigError there; a
    ConfigError raised by an inner section already names its field."""
    try:
        yield
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"missing key {exc}", field=fld) from None
    except (MartpropError, AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(str(exc), field=fld) from None


def spec_from_dict(d, fld="spec"):
    with _section(fld):
        dim = int(d.get("dim", 1))
        intervals = [( _bound(pair[0], f"{fld}.intervals"),
                       _bound(pair[1], f"{fld}.intervals"))
                     for pair in d.get("intervals",
                                       [["-inf", "inf"]] * dim)]
        return DiffusionSpec(dim=dim, intervals=tuple(intervals),
                             b=tuple(d["b"]),
                             sigma=tuple(tuple(row) for row in d["sigma"]),
                             x0=tuple(d.get("x0", [0.0] * dim)))


def spec_to_dict(spec):
    return {"dim": spec.dim,
            "intervals": [[_bound_out(l), _bound_out(r)]
                          for (l, r) in spec.intervals],
            "b": [e.render() for e in spec.b],
            "sigma": [[e.render() for e in row] for row in spec.sigma],
            "x0": list(spec.x0)}


def exponent_from_dict(d, fld="exponent"):
    with _section(fld):
        return ExponentSpec(beta=tuple(d["beta"]))


def exponent_to_dict(exp):
    return {"beta": [e.render() for e in exp.beta]}


def plan_from_dict(d, fld="plan"):
    with _section(fld):
        return LocalizationPlan(levels=tuple(d["levels"]),
                                time_caps=tuple(d["time_caps"]))


def plan_to_dict(plan):
    return {"levels": list(plan.levels), "time_caps": list(plan.time_caps)}


def mc_from_dict(d, fld="mc"):
    with _section(fld):
        return SimConfig(**d)


def mc_to_dict(mc):
    return {"n_paths": mc.n_paths, "dt_max": mc.dt_max,
            "horizon": mc.horizon, "seed": mc.seed,
            "explosion_guard": mc.explosion_guard}


def _dist_from_dict(d, fld):
    with _section(fld):
        return DiscreteDist(support=tuple(d["support"]),
                            probs=tuple(d["probs"]))


def _dist_to_dict(dist):
    return {"support": list(dist.support), "probs": list(dist.probs)}


def triplet_from_dict(d, fld="triplet"):
    with _section(fld):
        base = spec_from_dict(d["base"], fld=f"{fld}.base")
        cp_rate = float(d.get("cp_rate", 0.0))
        cp_dist = (_dist_from_dict(d["cp_dist"], f"{fld}.cp_dist")
                   if d.get("cp_dist") else None)
        atoms = tuple(
            Atom(time=float(a["time"]), mass=float(a["mass"]),
                 dist=_dist_from_dict(a["dist"], f"{fld}.atoms"))
            for a in d.get("atoms", ()))
        return JumpTriplet(base=base, cp_rate=cp_rate, cp_dist=cp_dist,
                           atoms=atoms)


def triplet_to_dict(trip):
    d = {"base": spec_to_dict(trip.base), "cp_rate": trip.cp_rate}
    if trip.cp_dist is not None:
        d["cp_dist"] = _dist_to_dict(trip.cp_dist)
    if trip.atoms:
        d["atoms"] = [{"time": a.time, "mass": a.mass,
                       "dist": _dist_to_dict(a.dist)} for a in trip.atoms]
    return d


def girsanov_from_dict(d, fld="girsanov"):
    with _section(fld):
        return GirsanovData(K=d["K"], U=d["U"])


def girsanov_to_dict(gd):
    return {"K": gd.K.render(), "U": gd.U.render()}


def covariance_from_dict(d, fld="covariance"):
    with _section(fld):
        return CovarianceSpec(modes=int(d["modes"]),
                              eigenvalues=tuple(d["eigenvalues"]))


def covariance_to_dict(cov):
    return {"modes": cov.modes, "eigenvalues": list(cov.eigenvalues)}


def functional_from_dict(d, fld="functional"):
    with _section(fld):
        return FunctionalSpec(
            kind=d["kind"], exprs=tuple(d.get("exprs", ())),
            weights=tuple(d.get("weights", ())),
            direction=tuple(d.get("direction", ())),
            claimed_lipschitz=d.get("claimed_lipschitz"),
            claimed_growth=d.get("claimed_growth"))


def functional_to_dict(phi):
    d = {"kind": phi.kind}
    if phi.kind == "pointwise":
        d["exprs"] = [e.render() for e in phi.exprs]
    else:
        d["weights"] = list(phi.weights)
        d["direction"] = list(phi.direction)
    if phi.claimed_lipschitz is not None:
        d["claimed_lipschitz"] = phi.claimed_lipschitz
    if phi.claimed_growth is not None:
        d["claimed_growth"] = phi.claimed_growth
    return d


# --- the resolved bundle -------------------------------------------------


@dataclass
class RunConfig:
    kind: str
    t: float
    plan: LocalizationPlan
    mc: SimConfig
    preset: str = ""
    spec: DiffusionSpec = None
    exponent: ExponentSpec = None
    triplet: JumpTriplet = None
    girsanov: GirsanovData = None
    covariance: CovarianceSpec = None
    functional: FunctionalSpec = None

    def to_dict(self):
        d = {"kind": self.kind, "t": self.t,
             "plan": plan_to_dict(self.plan), "mc": mc_to_dict(self.mc)}
        if self.preset:
            d["preset"] = self.preset
        if self.spec is not None:
            d["spec"] = spec_to_dict(self.spec)
        if self.exponent is not None:
            d["exponent"] = exponent_to_dict(self.exponent)
        if self.triplet is not None:
            d["triplet"] = triplet_to_dict(self.triplet)
        if self.girsanov is not None:
            d["girsanov"] = girsanov_to_dict(self.girsanov)
        if self.covariance is not None:
            d["covariance"] = covariance_to_dict(self.covariance)
        if self.functional is not None:
            d["functional"] = functional_to_dict(self.functional)
        return d


_SECTIONS = {"spec": spec_from_dict, "exponent": exponent_from_dict,
             "triplet": triplet_from_dict, "girsanov": girsanov_from_dict,
             "covariance": covariance_from_dict,
             "functional": functional_from_dict}
_KINDS = (("jump", {"triplet", "girsanov"}),
          ("hilbert", {"covariance", "functional"}),
          ("diffusion", {"spec", "exponent"}))


def resolve(raw: dict, preset_name: str = None,
            seed: int = None) -> RunConfig:
    """Parse and validate a raw config dict over an optional preset's
    document: a section the config gives replaces the preset's, except
    `mc`, which merges field by field."""
    raw = dict(raw or {})
    name = preset_name or raw.get("preset")
    doc = catalog.document(name) if name else {}
    with _section("mc"):
        mc = {**doc.get("mc", {}), **(raw.get("mc") or {})}
        if seed is not None:
            mc["seed"] = seed
    raw = {**doc, **raw}

    sections = {key: parse(raw[key]) for key, parse in _SECTIONS.items()
                if key in raw}
    kind = next((k for k, pair in _KINDS if pair <= sections.keys()), None)
    if kind is None:
        raise ConfigError(
            "config must provide a preset or one complete section pair: "
            "spec+exponent, triplet+girsanov, or covariance+functional")

    with _section("t"):
        t = float(raw.get("t", 1.0))
    if not 0 < t < math.inf:
        raise ConfigError("t must be positive and finite", field="t")
    plan = (plan_from_dict(raw["plan"]) if "plan" in raw
            else LocalizationPlan.geometric(horizon=t))
    mc = mc_from_dict(mc)
    if mc.horizon < t:
        mc = replace(mc, horizon=t)
    return RunConfig(kind=kind, t=t, plan=plan, mc=mc, preset=name or "",
                     **sections)


def load_file(path) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(str(exc), field="--config") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}", field="--config") from None
    if not isinstance(raw, dict):
        raise ConfigError("the config must be a JSON object",
                          field="--config")
    return raw
