import json
import pathlib
import re

import pytest
from click.testing import CliRunner

import martprop
from martprop import catalog, cli
from martprop.cli import main

_COMMAND = {"diffusion": "deficit", "jump": "jump", "hilbert": "hilbert"}


@pytest.fixture
def runner():
    return CliRunner()


def _small(tmp_path, preset, **mc):
    base = {"n_paths": 500, "dt_max": 0.02}
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


def test_jump_report_reproducible_across_threads_and_runs(runner, tmp_path,
                                                         monkeypatch):
    # three chunks of paths, which --threads 2 runs on two workers
    from martprop import jumpkit, mc
    workers = []

    def spied(work, n, chunk_size, threads=1):
        workers.append(threads)
        return mc.map_chunks(work, n, chunk_size, threads)
    monkeypatch.setattr(jumpkit, "map_chunks", spied)
    monkeypatch.setattr(jumpkit, "CHUNK_SIZE", 200)
    cfg = _small(tmp_path, "poisson-U4", n_paths=500)
    blobs = []
    for threads in ("1", "2", "1"):
        out = tmp_path / f"t{len(blobs)}.json"
        res = runner.invoke(main, ["jump", "--config", cfg, "--seed", "9",
                                   "--threads", threads,
                                   "--output", str(out)])
        assert res.exit_code == 0
        blobs.append(out.read_bytes())
    assert workers == [1, 2, 1]
    assert blobs[0] == blobs[1] == blobs[2]


def test_jump_draws_each_chunk_once(runner, tmp_path, monkeypatch):
    # one simulation, whose two triplets read one normal and one uniform
    # block per chunk
    from martprop import jumpkit
    calls = []

    def counted(name):
        fn = getattr(jumpkit, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper
    for name in ("normal_block", "uniform_block",
                 "simulate_jump_exponential"):
        monkeypatch.setattr(jumpkit, name, counted(name))
    monkeypatch.setattr(jumpkit, "CHUNK_SIZE", 100)
    cfg = _small(tmp_path, "poisson-U4", n_paths=150)
    res = runner.invoke(main, ["jump", "--config", cfg])
    assert res.exit_code == 0
    assert sorted(calls) == (["normal_block"] * 2
                             + ["simulate_jump_exponential"]
                             + ["uniform_block"] * 2)


def test_jump_report_serializes_the_curve_once(runner, tmp_path):
    cfg = _small(tmp_path, "atom-half", n_paths=200)
    out = tmp_path / "r.json"
    res = runner.invoke(main, ["jump", "--config", cfg,
                               "--output", str(out)])
    assert res.exit_code == 0
    rep = json.loads(out.read_text())
    assert rep["resolved_config"]["triplet"]["atoms"]

    def curves(node):
        # every serialized curve in the report, wherever it sits
        if isinstance(node, dict):
            return ([node] if "entries" in node else []) + [
                c for v in node.values() for c in curves(v)]
        if isinstance(node, list):
            return [c for v in node for c in curves(v)]
        return []
    assert curves(rep) == [rep["curves"]["deficit"]]
    # nor does the verdict copy the curve's notes
    text = out.read_text()
    for note in rep["curves"]["deficit"]["notes"]:
        assert text.count(json.dumps(note)) == 1


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
    (_COMMAND[catalog.get(name).kind], name) for name in catalog.names()])
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
    # keys that repeated another value or were read by no run
    report = json.loads(first.read_text())
    assert "kind" not in report["resolved_config"]
    assert not _keys(report) & {"horizon", "dim", "modes",
                                "extrapolated_expectation"}


def _keys(obj):
    """Every dict key in a JSON document."""
    if isinstance(obj, dict):
        return set(obj).union(*map(_keys, obj.values()))
    if isinstance(obj, list):
        return set().union(*map(_keys, obj))
    return set()


# --- exit codes ----------------------------------------------------------------

def _readme_exit_codes():
    """{error class: exit code}, from the backquoted names in the rows
    for codes 1 and 2 of README's "Exit codes" table."""
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    table = readme.read_text().split("### Exit codes")[1].split("###")[0]
    return {name: int(code)
            for code, meaning in re.findall(r"^\| ([12]) \| (.*) \|$",
                                            table, re.MULTILINE)
            for name in re.findall(r"`(\w+)`", meaning)}


_EXPORTED_ERRORS = sorted(
    name for name in martprop.__all__
    if isinstance(getattr(martprop, name), type)
    and issubclass(getattr(martprop, name), martprop.MartpropError))


@pytest.mark.parametrize(
    "name", sorted(set(_EXPORTED_ERRORS) | set(_readme_exit_codes())))
def test_each_exported_error_exits_with_its_readme_code(name):
    # README names every exported error class, and only those
    assert name in _EXPORTED_ERRORS
    cls = getattr(martprop, name)
    args = (("boom", 0) if name in ("ExprSyntaxError", "UnknownIdentifier")
            else ("boom",))

    def body():
        raise cls(*args)
    with pytest.raises(SystemExit) as exc:
        cli._run(body)
    assert exc.value.code == _readme_exit_codes()[name]


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
    # none is an mc key: a config that names one, such as the resolved
    # config of a report written when it was, is refused
    p = tmp_path / "old.json"
    for name in ("adaptive", "bridge_correction", "horizon"):
        p.write_text(json.dumps({"preset": "identity-zero",
                                 "mc": {name: False}}))
        res = runner.invoke(main, ["deficit", "--config", str(p)])
        assert res.exit_code == 1
        assert "error: mc: " in res.output and name in res.output


@pytest.mark.parametrize("command, raw, prefix", [
    ("jump", {"preset": "poisson-U4",
              "triplet": {"base": {"b": ["0"], "sigma": [["1"]]},
                          "cprate": 5,
                          "cp_dist": {"support": [1.0], "probs": [1.0]}}},
     "triplet: unknown key 'cprate'"),
    ("deficit", {"preset": "identity-zero",
                 "spec": {"b": ["0"], "sigma": [["1"]], "xo": [1.0]}},
     "spec: unknown key 'xo'"),
    ("hilbert", {"preset": "running-sup-1",
                 "functional": {"kind": "running_sup", "weights": [1.0],
                                "direction": [1.0],
                                "claimed_lipschits": 0.5}},
     "functional: unknown key 'claimed_lipschits'"),
    ("deficit", {"preset": "identity-zero", "tt": 2.0},
     "unknown key 'tt'"),
    ("deficit", {"preset": "identity-zero",
                 "spec": {"dim": 1, "b": ["0"], "sigma": [["1"]]}},
     "spec: unknown key 'dim'"),
    ("hilbert", {"preset": "running-sup-1",
                 "covariance": {"modes": 1, "eigenvalues": [1.0]}},
     "covariance: unknown key 'modes'"),
    ("deficit", {"preset": "identity-zero", "kind": "diffusion"},
     "unknown key 'kind'"),
], ids=["cprate", "xo", "claimed_lipschits", "tt", "spec.dim",
        "covariance.modes", "kind"])
def test_exit_1_on_a_key_no_run_reads(runner, tmp_path, command, raw,
                                     prefix):
    # each of these once ran a different problem, or repeated a value,
    # and exited 0
    p = tmp_path / "typo.json"
    p.write_text(json.dumps(raw))
    res = runner.invoke(main, [command, "--config", str(p)])
    assert res.exit_code == 1
    assert res.output.splitlines()[-1].startswith(f"error: {prefix}; ")


@pytest.mark.parametrize("raw, field", [
    ({"preset": "identity-zero", "t": "abc"}, "t"),
    ({"preset": "identity-zero", "t": None}, "t"),
    ({"preset": "identity-zero",
      "plan": {"levels": [1, "x"], "time_caps": [2, 2]}}, "plan"),
    ({"spec": {"b": ["0"], "sigma": [["1"]], "x0": ["a"]},
      "exponent": {"beta": ["x"]}}, "spec"),
    ({"triplet": {"base": {"b": ["0"], "sigma": [["1"]]}, "cp_rate": "x"},
      "girsanov": {"K": "0", "U": "1"}}, "triplet"),
    ([{"preset": "identity-zero"}], "--config"),
    ({"preset": "identity-zero", "mc": {"n_paths": 10.5}}, "mc"),
    ({"preset": "identity-zero", "mc": {"seed": 2.5}}, "mc"),
    ({"preset": "identity-zero", "mc": {"seed": "5"}}, "mc"),
    ({"preset": "identity-zero", "mc": {"n_paths": True}}, "mc"),
    ({"preset": ["identity-zero"]}, "preset"),
], ids=["t-string", "t-null", "plan-level", "x0", "cp_rate",
        "top-level-array", "n_paths-float", "seed-float", "seed-string",
        "n_paths-true", "preset-array"])
def test_exit_1_on_a_malformed_value(runner, tmp_path, raw, field):
    # a value that cannot be read is named by its field, not a traceback
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(raw))
    res = runner.invoke(main, ["novikov", "--config", str(p)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit), res.exception
    assert res.output.splitlines()[-1].startswith(f"error: {field}: ")


_NAN, _INF = float("nan"), float("inf")
_BM_BASE = {"b": ["0"], "sigma": [["1"]]}
_RUNNING_SUP = {"kind": "running_sup", "weights": [1.0], "direction": [1.0]}


def _cp(support, probs, rate=1.0):
    return {"triplet": {"base": _BM_BASE, "cp_rate": rate,
                        "cp_dist": {"support": support, "probs": probs}}}


@pytest.mark.parametrize("command, raw, field", [
    ("deficit", {"preset": "identity-zero",
                 "mc": {"explosion_guard": _NAN}}, "mc"),
    ("deficit", {"preset": "identity-zero",
                 "mc": {"explosion_guard": _INF}}, "mc"),
    ("deficit", {"preset": "identity-zero",
                 "plan": {"levels": [1, 2], "time_caps": [2, _NAN]}}, "plan"),
    ("deficit", {"preset": "identity-zero",
                 "spec": {"b": [_NAN], "sigma": [["1"]]}}, "spec"),
    ("jump", {"preset": "atom-half", "triplet": {
        "base": _BM_BASE, "atoms": [{"time": _NAN, "mass": 0.5, "dist": {
            "support": [1.0], "probs": [1.0]}}]}}, "triplet.atoms[0]"),
    ("jump", {"preset": "poisson-U4", **_cp([1.0], [_NAN])},
     "triplet.cp_dist"),
    ("jump", {"preset": "poisson-U4", **_cp([1.0, 2.0], [0.5, _INF])},
     "triplet.cp_dist"),
    ("jump", {"preset": "poisson-U4", **_cp([_INF], [1.0])},
     "triplet.cp_dist"),
    ("jump", {"preset": "poisson-U4", **_cp([1.0], [1.0], rate=_INF)},
     "triplet"),
    ("jump", {"preset": "poisson-U4", **_cp([1.0], [1.0], rate=_NAN)},
     "triplet"),
    ("hilbert", {"preset": "running-sup-1",
                 "covariance": {"eigenvalues": [_NAN]}}, "covariance"),
    ("hilbert", {"preset": "running-sup-1",
                 "covariance": {"eigenvalues": [_INF]}}, "covariance"),
    ("hilbert", {"preset": "running-sup-1",
                 "functional": {**_RUNNING_SUP, "weights": [_NAN]}},
     "functional"),
    ("hilbert", {"preset": "running-sup-1",
                 "functional": {**_RUNNING_SUP, "direction": [_NAN]}},
     "functional"),
    ("hilbert", {"preset": "running-sup-1",
                 "functional": {**_RUNNING_SUP, "claimed_growth": "1"}},
     "functional"),
    ("hilbert", {"preset": "running-sup-1",
                 "functional": {**_RUNNING_SUP, "claimed_lipschitz": _NAN}},
     "functional"),
], ids=["guard", "guard-inf", "time-cap", "drift", "atom-time", "prob", "prob-sum",
        "jump-size", "cp_rate-inf", "cp_rate-nan", "eigenvalue",
        "eigenvalue-inf", "weights", "direction", "claimed_growth-string",
        "claimed_lipschitz"])
def test_exit_1_on_a_non_finite_number(runner, tmp_path, command, raw,
                                       field):
    # JSON readers take NaN and Infinity; each of these once ran with it,
    # exited 2 or raised a Python error
    p = tmp_path / "nan.json"
    p.write_text(json.dumps(raw))
    res = runner.invoke(main, [command, "--config", str(p)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit), res.exception
    assert res.output.splitlines()[-1].startswith(f"error: {field}: ")


@pytest.mark.parametrize("seed, code", [
    ("-1", 1), ("18446744073709551616", 1), ("18446744073709551615", 0)])
def test_seed_must_lie_below_2_to_the_64(runner, tmp_path, seed, code):
    # the streams key on the seed modulo 2^64: -1 would alias 2^64 - 1
    res = runner.invoke(main, [
        "novikov", "--config", _small(tmp_path, "running-sup-1", n_paths=50),
        "--seed", seed, "--output", str(tmp_path / "r.json")])
    assert res.exit_code == code
    if code:
        assert res.output.splitlines()[-1].startswith("error: mc: seed ")


def test_exit_1_on_bad_expression(runner, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({
        "spec": {"b": ["0"], "sigma": [["1"]]},
        "exponent": {"beta": ["x +"]},
        "mc": {"n_paths": 10, "dt_max": 0.1}}))
    res = runner.invoke(main, ["classify", "--config", str(p)])
    assert res.exit_code == 1


def test_coarse_plan_tolerated_by_classify(runner, tmp_path):
    # survival gap far beyond the noise level: curve not converged, but
    # classify reports it instead of failing
    p = tmp_path / "coarse.json"
    p.write_text(json.dumps({
        "preset": "brownian-cubic",
        "plan": {"levels": [0.5, 1.0], "time_caps": [2.0, 2.0]},
        "mc": {"n_paths": 2000, "dt_max": 0.01}}))
    res = runner.invoke(main, ["classify", "--config", str(p)])
    assert res.exit_code == 0


def test_exit_1_on_degenerate_sigma(runner, tmp_path):
    # c = log(x)^2 is degenerate/undefined on the state grid: caught by
    # the validation gate before any computation
    p = tmp_path / "dom.json"
    p.write_text(json.dumps({
        "spec": {"b": ["0"], "sigma": [["log(x)"]], "x0": [1.0]},
        "exponent": {"beta": ["x"]},
        "mc": {"n_paths": 10, "dt_max": 0.1}}))
    res = runner.invoke(main, ["classify", "--config", str(p)])
    assert res.exit_code == 1


def test_exit_2_on_numerical_failure(runner, tmp_path):
    # q = 1/x^2 is unbounded on every level region: the uniform-
    # integrability certificate fails numerically, exit code 2
    p = tmp_path / "unbounded.json"
    p.write_text(json.dumps({
        "spec": {"b": ["0"], "sigma": [["1"]], "x0": [1.0]},
        "exponent": {"beta": ["1/x"]},
        "mc": {"n_paths": 10, "dt_max": 0.1}}))
    res = runner.invoke(main, ["deficit", "--config", str(p)])
    assert res.exit_code == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("beta, sigma, code", [
    ("x * t", "1", 1), ("x", "1 + t", 1), ("x", "1", 0), ("0", "1 + t", 0)])
def test_an_infinite_time_cap_where_q_reads_t_exits_1(runner, tmp_path,
                                                      beta, sigma, code):
    # q = beta^2 sigma^2 reads t where beta does, or sigma does and beta
    # is not zero: no time grid spans an infinite cap, so such a config
    # is refused before the bound check builds one
    p = tmp_path / "inf-cap.json"
    p.write_text(json.dumps({
        "preset": "brownian-linear",
        "spec": {"b": ["0"], "sigma": [[sigma]]},
        "exponent": {"beta": [beta]},
        "plan": {"levels": [4, 8, 16, 32],
                 "time_caps": [2, 2, "inf", "inf"]},
        "mc": {"n_paths": 200}}))
    res = runner.invoke(main, ["deficit", "--config", str(p)])
    assert res.exit_code == code, res.output
    if code:
        assert res.output.splitlines()[-1] == (
            "error: level 16.0: q = beta^T c beta reads t, so its time cap "
            "must be finite")


@pytest.mark.parametrize("command", ["hilbert", "novikov"])
def test_exit_2_on_a_non_finite_phi(runner, tmp_path, command):
    # phi = 1/x is infinite where every path starts
    p = tmp_path / "domain.json"
    p.write_text(json.dumps({
        "covariance": {"eigenvalues": [1.0]},
        "functional": {"kind": "pointwise", "exprs": ["1/x"]},
        "t": 1.0,
        "mc": {"n_paths": 200, "dt_max": 0.01, "seed": 3}}))
    res = runner.invoke(main, [command, "--config", str(p)])
    assert res.exit_code == 2
    assert ("numerical failure: phi is not finite in mode 0 at t=0, "
            "x=[0.0]") in res.output


def test_exit_2_when_both_jump_triplets_fail(runner, tmp_path):
    # b = log(x + 1) - 10 is non-finite once x < -1, which paths of both
    # triplets reach; the message is the original triplet's, met first
    p = tmp_path / "domain.json"
    p.write_text(json.dumps({
        "triplet": {"base": {"b": ["log(x + 1) - 10"], "sigma": [["1"]]}},
        "girsanov": {"K": "10", "U": "1"},
        "mc": {"n_paths": 20, "dt_max": 0.01, "seed": 1}}))
    res = runner.invoke(main, ["jump", "--config", str(p)])
    assert res.exit_code == 2
    assert "on path 5 at t=0.07" in res.output


def test_plan_less_config_past_t_4_keeps_live_levels(runner, tmp_path):
    # beta = 0, so Z = 1 and the deficit is 0; the default time caps
    # exceed t, so no level is dead by construction
    p = tmp_path / "flat.json"
    p.write_text(json.dumps({
        "t": 5, "spec": {"b": ["0"], "sigma": [["1"]]},
        "exponent": {"beta": ["0"]},
        "mc": {"n_paths": 200, "dt_max": 0.1}}))
    out = tmp_path / "r.json"
    res = runner.invoke(main, ["deficit", "--config", str(p),
                               "--output", str(out)])
    assert res.exit_code == 0
    rep = json.loads(out.read_text())
    assert rep["resolved_config"]["plan"]["time_caps"] == [6, 7, 8, 9]
    curve = rep["curves"]["deficit"]
    assert curve["converged"]
    assert curve["deficit"] < 0.05


def test_csv_without_curve_is_validation_error(runner):
    res = runner.invoke(main, ["novikov", "--preset", "identity-zero",
                               "--format", "csv"])
    assert res.exit_code == 1
