import json

import pytest
from click.testing import CliRunner

from martprop.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def _small(tmp_path, preset, **mc):
    base = {"n_paths": 500, "dt_max": 0.02, "horizon": 1.0}
    base.update(mc)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"preset": preset, "mc": base}))
    return str(p)


def test_presets_listing(runner):
    res = runner.invoke(main, ["presets"])
    assert res.exit_code == 0
    for name in ("identity-zero", "brownian-cubic", "poisson-U4",
                 "running-sup-16"):
        assert name in res.output


def test_classify_report(runner, tmp_path):
    out = tmp_path / "r.json"
    res = runner.invoke(main, ["classify", "--preset", "identity-zero",
                               "--output", str(out)])
    assert res.exit_code == 0
    rep = json.loads(out.read_text())
    assert rep["command"] == "classify"
    assert rep["verdict"]["classification"] == "TrueMartingale"
    assert rep["resolved_config"]["mc"]["seed"] == 42
    assert "version" in rep


def test_classify_strict_local(runner, tmp_path):
    out = tmp_path / "r.json"
    res = runner.invoke(main, ["classify", "--preset", "brownian-cubic",
                               "--output", str(out)])
    assert res.exit_code == 0
    rep = json.loads(out.read_text())
    assert rep["verdict"]["classification"] == "StrictLocal"


def test_deficit_json_and_csv(runner, tmp_path):
    cfg = _small(tmp_path, "identity-zero")
    out = tmp_path / "r.json"
    res = runner.invoke(main, ["deficit", "--config", cfg,
                               "--output", str(out)])
    assert res.exit_code == 0
    rep = json.loads(out.read_text())
    assert rep["curves"]["deficit"]["deficit"] == 0.0
    csv_out = tmp_path / "r.csv"
    res = runner.invoke(main, ["deficit", "--config", cfg,
                               "--format", "csv",
                               "--output", str(csv_out)])
    assert res.exit_code == 0
    lines = csv_out.read_text().strip().splitlines()
    assert lines[0] == "level,time_cap,survival,std_error"
    assert len(lines) == 5


def test_seed_flag_changes_report(runner, tmp_path):
    cfg = _small(tmp_path, "ou-linear")
    outs = []
    for seed in (1, 2):
        out = tmp_path / f"r{seed}.json"
        res = runner.invoke(main, ["deficit", "--config", cfg,
                                   "--seed", str(seed),
                                   "--output", str(out)])
        assert res.exit_code == 0
        outs.append(json.loads(out.read_text()))
    assert outs[0]["resolved_config"]["mc"]["seed"] == 1
    assert outs[1]["resolved_config"]["mc"]["seed"] == 2


def test_reports_reproducible_across_threads(runner, tmp_path):
    cfg = _small(tmp_path, "ou-linear", n_paths=5000)
    blobs = []
    for threads in ("1", "8"):
        out = tmp_path / f"t{threads}.json"
        res = runner.invoke(main, ["deficit", "--config", cfg,
                                   "--threads", threads,
                                   "--output", str(out)])
        assert res.exit_code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_jump_command(runner, tmp_path):
    cfg = _small(tmp_path, "poisson-U4", n_paths=300)
    out = tmp_path / "r.json"
    res = runner.invoke(main, ["jump", "--config", cfg,
                               "--output", str(out)])
    assert res.exit_code == 0
    rep = json.loads(out.read_text())
    assert "compensator_identity" in rep["estimates"]


def test_jump_report_reproducible_across_threads_and_runs(runner, tmp_path):
    # two chunks of paths
    cfg = _small(tmp_path, "poisson-U4", n_paths=5000)
    blobs = []
    for threads in ("1", "2", "1"):
        out = tmp_path / f"t{len(blobs)}.json"
        res = runner.invoke(main, ["jump", "--config", cfg, "--seed", "9",
                                   "--threads", threads,
                                   "--output", str(out)])
        assert res.exit_code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_jump_report_serializes_the_curve_once(runner, tmp_path):
    cfg = _small(tmp_path, "atom-half", n_paths=200)
    out = tmp_path / "r.json"
    res = runner.invoke(main, ["jump", "--config", cfg,
                               "--output", str(out)])
    assert res.exit_code == 0
    rep = json.loads(out.read_text())
    assert rep["resolved_config"]["triplet"]["atoms"]
    curve = rep["verdict"]["deficit_curve"]
    assert curve == rep["curves"]["deficit"]
    assert all("time_cap" in e for e in curve["entries"])


def test_hilbert_command(runner, tmp_path):
    cfg = _small(tmp_path, "running-sup-1", n_paths=500)
    out = tmp_path / "r.json"
    res = runner.invoke(main, ["hilbert", "--config", cfg,
                               "--output", str(out)])
    assert res.exit_code == 0
    rep = json.loads(out.read_text())
    assert rep["estimates"]["conditions"]["passed"]


def test_novikov_command(runner, tmp_path):
    cfg = _small(tmp_path, "brownian-linear", n_paths=500)
    out = tmp_path / "r.json"
    res = runner.invoke(main, ["novikov", "--config", cfg,
                               "--output", str(out)])
    assert res.exit_code == 0
    rep = json.loads(out.read_text())
    assert "novikov" in rep["estimates"]


@pytest.mark.parametrize("command, preset", [
    ("deficit", "ou-linear"), ("hilbert", "running-sup-1"),
    ("jump", "atom-half")])
def test_resolved_config_reproduces_the_report(runner, tmp_path, command,
                                               preset):
    first, again = tmp_path / "first.json", tmp_path / "again.json"
    res = runner.invoke(main, [command, "--config",
                               _small(tmp_path, preset, n_paths=300),
                               "--output", str(first)])
    assert res.exit_code == 0
    resolved = tmp_path / "resolved.json"
    resolved.write_text(json.dumps(
        json.loads(first.read_text())["resolved_config"]))
    res = runner.invoke(main, [command, "--config", str(resolved),
                               "--output", str(again)])
    assert res.exit_code == 0
    assert again.read_bytes() == first.read_bytes()


# --- exit codes ----------------------------------------------------------------

def test_exit_1_on_unknown_preset(runner):
    res = runner.invoke(main, ["classify", "--preset", "nope"])
    assert res.exit_code == 1


def test_exit_1_on_kind_mismatch(runner):
    res = runner.invoke(main, ["classify", "--preset", "poisson-U4"])
    assert res.exit_code == 1


def test_exit_1_on_invalid_config(runner, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"preset": "identity-zero",
                             "mc": {"n_paths": 0}}))
    res = runner.invoke(main, ["deficit", "--config", str(p)])
    assert res.exit_code == 1
    # the field is named once
    assert "error: mc: n_paths must be positive" in res.output.splitlines()


def test_exit_1_on_a_removed_mc_field(runner, tmp_path):
    # neither is a SimConfig field: a config that names one, such as the
    # resolved config of a report written when it was, is refused
    p = tmp_path / "old.json"
    for name in ("adaptive", "bridge_correction"):
        p.write_text(json.dumps({"preset": "identity-zero",
                                 "mc": {name: False}}))
        res = runner.invoke(main, ["deficit", "--config", str(p)])
        assert res.exit_code == 1
        assert "error: mc: " in res.output and name in res.output


def test_exit_1_on_bad_expression(runner, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({
        "spec": {"b": ["0"], "sigma": [["1"]]},
        "exponent": {"beta": ["x +"]},
        "mc": {"n_paths": 10, "dt_max": 0.1, "horizon": 1.0}}))
    res = runner.invoke(main, ["classify", "--config", str(p)])
    assert res.exit_code == 1


def test_coarse_plan_tolerated_by_classify(runner, tmp_path):
    # survival gap far beyond the noise level: curve not converged, but
    # classify reports it instead of failing
    p = tmp_path / "coarse.json"
    p.write_text(json.dumps({
        "preset": "brownian-cubic",
        "plan": {"levels": [0.5, 1.0], "time_caps": [2.0, 2.0]},
        "mc": {"n_paths": 2000, "dt_max": 0.01, "horizon": 1.0}}))
    res = runner.invoke(main, ["classify", "--config", str(p)])
    assert res.exit_code == 0


def test_exit_1_on_degenerate_sigma(runner, tmp_path):
    # c = log(x)^2 is degenerate/undefined on the state grid: caught by
    # the validation gate before any computation
    p = tmp_path / "dom.json"
    p.write_text(json.dumps({
        "spec": {"b": ["0"], "sigma": [["log(x)"]], "x0": [1.0]},
        "exponent": {"beta": ["x"]},
        "mc": {"n_paths": 10, "dt_max": 0.1, "horizon": 1.0}}))
    res = runner.invoke(main, ["classify", "--config", str(p)])
    assert res.exit_code == 1


def test_exit_2_on_numerical_failure(runner, tmp_path):
    # q = 1/x^2 is unbounded on every level region: the uniform-
    # integrability certificate fails numerically, exit code 2
    p = tmp_path / "unbounded.json"
    p.write_text(json.dumps({
        "spec": {"b": ["0"], "sigma": [["1"]], "x0": [1.0]},
        "exponent": {"beta": ["1/x"]},
        "mc": {"n_paths": 10, "dt_max": 0.1, "horizon": 1.0}}))
    res = runner.invoke(main, ["deficit", "--config", str(p)])
    assert res.exit_code == 2


def test_csv_without_curve_is_validation_error(runner):
    res = runner.invoke(main, ["novikov", "--preset", "identity-zero",
                               "--format", "csv"])
    assert res.exit_code == 1
