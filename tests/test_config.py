import json
import math

import pytest

from martprop import catalog, config
from martprop.errors import ConfigError
from martprop.feller import FellerReport, VSide
from martprop.hilbert import ConditionsReport
from martprop.jumpkit import CompensatorReport
from martprop.mc import DeficitCurve, MCEstimate
from martprop.model import Classification, MartingaleVerdict
from martprop.report import jsonable


def test_every_preset_resolves_and_round_trips():
    for name in catalog.names():
        rc = config.resolve({}, preset_name=name)
        d = rc.to_dict()
        rc2 = config.resolve(d)
        assert rc2.to_dict() == d
        assert rc.kind in ("diffusion", "jump", "hilbert")


def test_infinity_encoding():
    rc = config.resolve({
        "spec": {"b": ["0"], "sigma": [["1"]],
                 "intervals": [["-inf", "inf"]]},
        "exponent": {"beta": ["x"]},
        "mc": {"n_paths": 10, "dt_max": 0.1}})
    assert rc.spec.intervals == ((-math.inf, math.inf),)
    assert rc.to_dict()["spec"]["intervals"] == [["-inf", "inf"]]


def test_overrides_beat_preset():
    rc = config.resolve({"preset": "brownian-linear",
                         "mc": {"n_paths": 77}, "t": 0.5})
    assert rc.mc.n_paths == 77
    assert rc.t == 0.5
    # untouched preset fields survive
    assert rc.mc.dt_max == catalog.get("brownian-linear").mc.dt_max


def test_a_preset_is_a_config_document():
    for name in catalog.names():
        rc = catalog.get(name)
        assert isinstance(rc, config.RunConfig) and rc.preset == name
        plain = config.resolve(catalog.document(name)).to_dict()
        assert plain == {k: v for k, v in rc.to_dict().items()
                         if k != "preset"}


def test_a_given_section_replaces_the_presets_section():
    # only mc merges field by field: a girsanov section without U has
    # no U, whatever the preset's
    with pytest.raises(ConfigError) as exc:
        config.resolve({"preset": "poisson-U4", "girsanov": {"K": "1"}})
    assert str(exc.value) == "girsanov: missing key 'U'"


def test_seed_override():
    rc = config.resolve({}, preset_name="identity-zero", seed=99)
    assert rc.mc.seed == 99


def test_the_run_simulates_to_t():
    # mc has no horizon of its own: the run's is t, and its step is at
    # most t
    rc = config.resolve({"preset": "identity-zero", "t": 3.0})
    assert (rc.mc.horizon, rc.mc.dt_max) == (3.0, 0.02)
    rc = config.resolve({"preset": "identity-zero", "t": 0.01})
    assert (rc.mc.horizon, rc.mc.dt_max) == (0.01, 0.01)


def test_field_paths_in_errors():
    with pytest.raises(ConfigError) as exc:
        config.resolve({"spec": {"b": ["0"]},
                        "exponent": {"beta": ["x"]}})
    assert exc.value.field == "spec"
    with pytest.raises(ConfigError) as exc:
        config.resolve({"preset": "identity-zero",
                        "plan": {"levels": [1.0]}})
    assert exc.value.field == "plan"
    with pytest.raises(ConfigError) as exc:
        config.resolve({"preset": "identity-zero",
                        "mc": {"n_paths": -5}})
    assert exc.value.field == "mc"
    # a nested section keeps its own field, named once
    with pytest.raises(ConfigError) as exc:
        config.resolve({
            "triplet": {"base": {"b": ["0"], "sigma": [["1"]]},
                        "cp_rate": 1.0, "cp_dist": {"probs": [1.0]}},
            "girsanov": {"K": "0", "U": "2"}})
    assert exc.value.field == "triplet.cp_dist"
    assert str(exc.value) == "triplet.cp_dist: missing key 'support'"


def test_bad_bound_string():
    # a bound is a JSON number or a spelling of infinity: a numeric
    # string is refused
    for bound in ("low", "0"):
        with pytest.raises(ConfigError, match="as a bound"):
            config.resolve({"spec": {"b": ["0"], "sigma": [["1"]],
                                     "intervals": [[bound, "inf"]]},
                            "exponent": {"beta": ["x"]}})


def test_unknown_preset():
    with pytest.raises(ConfigError) as exc:
        config.resolve({}, preset_name="missing")
    assert "available" in str(exc.value)


def test_load_file(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"preset": "identity-zero"}))
    raw = config.load_file(p)
    assert config.resolve(raw).preset == "identity-zero"
    with pytest.raises(ConfigError):
        config.load_file(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        config.load_file(bad)


def test_jump_and_hilbert_sections():
    rc = config.resolve({
        "triplet": {"base": {"b": ["0"], "sigma": [["1"]]},
                    "cp_rate": 1.0,
                    "cp_dist": {"support": [1.0], "probs": [1.0]}},
        "girsanov": {"K": "0", "U": "2"},
        "mc": {"n_paths": 10, "dt_max": 0.1}})
    assert rc.kind == "jump"
    rc = config.resolve({
        "covariance": {"eigenvalues": [0.5, 0.25]},
        "functional": {"kind": "running_sup", "weights": [1.0, 0.0],
                       "direction": [1.0, 0.0]},
        "mc": {"n_paths": 10, "dt_max": 0.1}})
    assert rc.kind == "hilbert"


_BM = {"b": ["0"], "sigma": [["1"]]}
_UNIT = {"support": [1.0], "probs": [1.0]}


@pytest.mark.parametrize("raw, field, key", [
    ({"preset": "poisson-U4", "triplet": {"base": dict(_BM, dim=1)}},
     "triplet.base", "dim"),
    ({"preset": "poisson-U4",
      "triplet": {"base": _BM, "cp_rate": 1.0,
                  "cp_dist": dict(_UNIT, prob=[1.0])}},
     "triplet.cp_dist", "prob"),
    ({"preset": "atom-half",
      "triplet": {"base": _BM, "atoms": [
          {"time": 0.5, "mass": 0.5, "dist": _UNIT},
          {"time": 0.7, "mas": 0.5, "dist": _UNIT}]}},
     "triplet.atoms[1]", "mas"),
    ({"preset": "atom-half",
      "triplet": {"base": _BM, "atoms": [
          {"time": 0.5, "mass": 0.5, "dist": dict(_UNIT, size=1)}]}},
     "triplet.atoms[0].dist", "size"),
    ({"preset": "poisson-U4", "girsanov": {"K": "0", "U": "4", "V": "1"}},
     "girsanov", "V"),
    ({"preset": "identity-zero", "exponent": {"beta": ["x"], "gamma": 1}},
     "exponent", "gamma"),
    ({"preset": "identity-zero",
      "plan": {"levels": [4, 8], "time_caps": [2, 3], "caps": [2, 3]}},
     "plan", "caps"),
    ({"preset": "running-sup-1",
      "functional": {"kind": "pointwise", "exprs": ["x"],
                     "weights": [1.0]}},
     "functional", "weights"),
    ({"preset": "running-sup-1",
      "functional": {"kind": "running_sup", "weights": [1.0],
                     "direction": [1.0], "exprs": ["x"]}},
     "functional", "exprs"),
], ids=["base", "cp_dist", "atom", "atom-dist", "girsanov", "exponent",
        "plan", "pointwise-weights", "running_sup-exprs"])
def test_a_key_no_parser_reads_is_refused(raw, field, key):
    # the section is named, and the key, whatever else the section holds
    with pytest.raises(ConfigError) as exc:
        config.resolve(raw)
    assert exc.value.field == field
    assert str(exc.value).startswith(f"{field}: unknown key {key!r}")


def test_json_forms_keep_their_keys():
    # every key of a report object's JSON form, so that a new field
    # enters reports only with this test
    def keys(obj):
        return set(jsonable(obj))

    est = MCEstimate.from_samples([1.0, 2.0])
    assert keys(est) == {"mean", "std_error", "n_effective",
                         "heavy_tail_flag", "max_sample_share", "notes"}
    curve = DeficitCurve(entries=[(4.0, 2.0, 0.9, 0.01),
                                  (8.0, 3.0, 0.95, 0.01)],
                         deficit=0.05, converged=True)
    assert keys(curve) == {"entries", "deficit", "converged", "notes"}
    assert all(set(e) == {"level", "time_cap", "survival", "std_error"}
               for e in jsonable(curve)["entries"])
    feller = FellerReport(VSide("finite", value=1.5, probes_used=3),
                          VSide("failed", reason="undecided",
                                probes_used=5), xi=0.0)
    doc = jsonable(feller)
    assert set(doc) == {"conclusion", "xi", "v_left", "v_right",
                        "diagnostics"}
    assert doc["conclusion"] == "Unknown"
    assert set(doc["v_left"]) == {"status", "probes_used", "value"}
    assert set(doc["v_right"]) == {"status", "probes_used", "reason"}
    comp = CompensatorReport(passed=True, mean_gap=0.0, std_error=0.1,
                             r_mean=1.0, n_paths=10)
    assert keys(comp) == {"passed", "mean_gap", "std_error", "r_mean",
                          "n_paths"}
    cond = ConditionsReport(
        lipschitz_hat=0.5, growth_hat=0.25, claimed_lipschitz=math.nan,
        claimed_growth=math.nan, lipschitz_passed=True,
        growth_passed=True, n_paths=8)
    doc = jsonable(cond)
    assert set(doc) == {"lipschitz_hat", "growth_hat", "claimed_lipschitz",
                        "claimed_growth", "lipschitz_passed",
                        "growth_passed", "passed", "n_paths", "notes"}
    assert doc["claimed_lipschitz"] == doc["claimed_growth"] == "nan"
    verdict = MartingaleVerdict(Classification.TRUE_MARTINGALE,
                                feller_original=feller)
    doc = jsonable(verdict)
    assert set(doc) == {"classification", "notes", "feller_original"}
    assert json.dumps(doc["classification"]) == '"TrueMartingale"'

    # a resolved config omits its kind, mc.horizon, an absent cp_dist or
    # atoms, and a functional's keys that its kind does not read
    mc = {"n_paths": 10, "dt_max": 0.1}
    doc = config.resolve({"spec": _BM, "exponent": {"beta": ["x"]},
                          "mc": mc}).to_dict()
    assert set(doc) == {"t", "plan", "mc", "spec", "exponent"}
    assert set(doc["mc"]) == {"n_paths", "dt_max", "seed",
                              "explosion_guard"}
    assert set(doc["spec"]) == {"b", "sigma", "x0", "intervals"}
    doc = config.resolve({"triplet": {"base": _BM},
                          "girsanov": {"K": "0", "U": "1"},
                          "mc": mc}).to_dict()
    assert set(doc["triplet"]) == {"base", "cp_rate"}
    assert set(doc["girsanov"]) == {"K", "U"}
    doc = config.resolve({"preset": "running-sup-1"}).to_dict()
    assert set(doc) == {"preset", "t", "plan", "mc", "covariance",
                        "functional"}
    assert set(doc["functional"]) == {"kind", "weights", "direction",
                                      "claimed_lipschitz", "claimed_growth"}
    doc = config.resolve({
        "covariance": {"eigenvalues": [0.5, 0.25]},
        "functional": {"kind": "pointwise", "exprs": ["x", "0"]},
        "mc": mc}).to_dict()
    assert doc["functional"] == {"kind": "pointwise", "exprs": ["x", "0"]}
