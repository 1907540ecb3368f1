"""JSON config schema: parsing, validation with field paths, and the
round-trip serialization embedded in every report.

A config may name a `preset` (a config document from `catalog`) and/or
spell out sections; explicit sections override the preset's.  Infinite
interval endpoints are written as the strings "inf"/"-inf" (JSON has no
infinity literal).  Every section refuses a key its parser does not
read, so a misspelled key cannot change the problem a run answers.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import partial

from . import catalog
from .errors import ConfigError, MartpropError
from .hilbert import CovarianceSpec, FunctionalSpec
from .jumpkit import Atom, DiscreteDist, GirsanovData, JumpTriplet
from .mc import SimConfig
from .model import DiffusionSpec, ExponentSpec, LocalizationPlan
from .report import jsonable


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


def _only(d, keys, fld):
    """Refuse a key of section `fld` (the top level when empty) that is
    not one of `keys`, the keys its parser reads."""
    if not isinstance(d, dict):
        raise ConfigError("expected a JSON object", field=fld)
    for key in d:
        if key not in keys:
            raise ConfigError(f"unknown key {key!r}; the keys read here "
                              f"are {', '.join(keys)}", field=fld)


def _fields_from_dict(cls, d, fld):
    """The `cls` read from section `fld`, one key per field, as
    `jsonable` writes it."""
    with _section(fld):
        keys = tuple(f.name for f in fields(cls))
        _only(d, keys, fld)
        return cls(**{k: d[k] for k in keys})


def spec_from_dict(d, fld):
    with _section(fld):
        _only(d, ("b", "sigma", "x0", "intervals"), fld)
        dim = len(d["b"])
        intervals = [( _bound(pair[0], f"{fld}.intervals"),
                       _bound(pair[1], f"{fld}.intervals"))
                     for pair in d.get("intervals",
                                       [["-inf", "inf"]] * dim)]
        return DiffusionSpec(intervals=tuple(intervals), b=tuple(d["b"]),
                             sigma=tuple(tuple(row) for row in d["sigma"]),
                             x0=tuple(d.get("x0", [0.0] * dim)))


def mc_from_dict(d, t, fld="mc"):
    with _section(fld):
        _only(d, ("n_paths", "dt_max", "seed", "explosion_guard"), fld)
        return SimConfig(**dict(d, dt_max=min(d["dt_max"], t)), horizon=t)


def _atom_from_dict(d, fld):
    with _section(fld):
        _only(d, ("time", "mass", "dist"), fld)
        return Atom(time=float(d["time"]), mass=float(d["mass"]),
                    dist=_fields_from_dict(DiscreteDist, d["dist"],
                                           f"{fld}.dist"))


def triplet_from_dict(d, fld):
    with _section(fld):
        _only(d, ("base", "cp_rate", "cp_dist", "atoms"), fld)
        base = spec_from_dict(d["base"], fld=f"{fld}.base")
        cp_rate = float(d.get("cp_rate", 0.0))
        cp_dist = (_fields_from_dict(DiscreteDist, d["cp_dist"],
                                     f"{fld}.cp_dist")
                   if d.get("cp_dist") else None)
        atoms = tuple(_atom_from_dict(a, f"{fld}.atoms[{k}]")
                      for k, a in enumerate(d.get("atoms", ())))
        return JumpTriplet(base=base, cp_rate=cp_rate, cp_dist=cp_dist,
                           atoms=atoms)


def triplet_to_dict(trip):
    """The triplet's fields without an absent `cp_dist` or `atoms`."""
    return {k: v for k, v in vars(trip).items() if v not in (None, ())}


# what a functional of each kind reads besides its kind and claims
_PHI_KEYS = {"pointwise": ("exprs",), "running_sup": ("weights", "direction")}


def functional_from_dict(d, fld):
    with _section(fld):
        phi = FunctionalSpec(
            kind=d["kind"], exprs=tuple(d.get("exprs", ())),
            weights=tuple(d.get("weights", ())),
            direction=tuple(d.get("direction", ())),
            claimed_lipschitz=d.get("claimed_lipschitz"),
            claimed_growth=d.get("claimed_growth"))
        # after FunctionalSpec, which refuses an unknown kind
        _only(d, ("kind", *_PHI_KEYS[phi.kind], "claimed_lipschitz",
                  "claimed_growth"), fld)
        return phi


def functional_to_dict(phi):
    """The kind, the keys its parser reads, and the claims made."""
    keys = ("kind", *_PHI_KEYS[phi.kind], "claimed_lipschitz",
            "claimed_growth")
    return {k: getattr(phi, k) for k in keys
            if getattr(phi, k) is not None}


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
        """The plain JSON document of the config, which `resolve` reads
        back to the same config: the fields without `kind`, which the
        sections imply, an empty `preset`, absent sections and
        `mc.horizon`, which is `t`."""
        d = {k: v for k, v in vars(self).items()
             if k != "kind" and v not in (None, "")}
        if self.triplet is not None:
            d["triplet"] = triplet_to_dict(self.triplet)
        if self.functional is not None:
            d["functional"] = functional_to_dict(self.functional)
        d = jsonable(d)
        del d["mc"]["horizon"]
        return d


# each reader takes the section and its field path
_SECTIONS = {"spec": spec_from_dict,
             "exponent": partial(_fields_from_dict, ExponentSpec),
             "triplet": triplet_from_dict,
             "girsanov": partial(_fields_from_dict, GirsanovData),
             "covariance": partial(_fields_from_dict, CovarianceSpec),
             "functional": functional_from_dict}
_TOP_KEYS = ("preset", "t", "plan", "mc", *_SECTIONS)
_KINDS = (("jump", {"triplet", "girsanov"}),
          ("hilbert", {"covariance", "functional"}),
          ("diffusion", {"spec", "exponent"}))


def resolve(raw: dict, preset_name: str = None,
            seed: int = None) -> RunConfig:
    """Parse and validate a raw config dict over an optional preset's
    document: a section the config gives replaces the preset's, except
    `mc`, which merges field by field.  The run's `mc` has horizon t and
    a `dt_max` capped at t."""
    raw = dict(raw or {})
    _only(raw, _TOP_KEYS, "")
    name = preset_name or raw.get("preset")
    doc = catalog.document(name) if name else {}
    with _section("mc"):
        mc = {**doc.get("mc", {}), **(raw.get("mc") or {})}
        if seed is not None:
            mc["seed"] = seed
    raw = {**doc, **raw}

    sections = {key: parse(raw[key], key)
                for key, parse in _SECTIONS.items() if key in raw}
    kind = next((k for k, pair in _KINDS if pair <= sections.keys()), None)
    if kind is None:
        raise ConfigError(
            "config must provide a preset or one complete section pair: "
            "spec+exponent, triplet+girsanov, or covariance+functional")

    with _section("t"):
        t = float(raw.get("t", 1.0))
    if not 0 < t < math.inf:
        raise ConfigError("t must be positive and finite", field="t")
    plan = (_fields_from_dict(LocalizationPlan, raw["plan"], "plan")
            if "plan" in raw else LocalizationPlan.geometric(horizon=t))
    mc = mc_from_dict(mc, t)
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
