import json
import math

import pytest

from martprop import catalog, config
from martprop.errors import ConfigError


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
        "mc": {"n_paths": 10, "dt_max": 0.1, "horizon": 1.0}})
    assert rc.spec.intervals == ((-math.inf, math.inf),)
    assert config.spec_to_dict(rc.spec)["intervals"] == [["-inf", "inf"]]


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


def test_horizon_stretched_to_t():
    rc = config.resolve({"preset": "identity-zero", "t": 3.0})
    assert rc.mc.horizon >= 3.0


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
    with pytest.raises(ConfigError):
        config.resolve({"spec": {"b": ["0"], "sigma": [["1"]],
                                 "intervals": [["low", "inf"]]},
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
        "mc": {"n_paths": 10, "dt_max": 0.1, "horizon": 1.0}})
    assert rc.kind == "jump"
    rc = config.resolve({
        "covariance": {"modes": 2, "eigenvalues": [0.5, 0.25]},
        "functional": {"kind": "running_sup", "weights": [1.0, 0.0],
                       "direction": [1.0, 0.0]},
        "mc": {"n_paths": 10, "dt_max": 0.1, "horizon": 1.0}})
    assert rc.kind == "hilbert"
