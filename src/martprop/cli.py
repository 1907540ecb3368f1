"""Command-line front end.

Validation happens before any computation; every report embeds the fully
resolved config and seed so runs are reproducible byte-for-byte.  Exit
codes: 0 success, 1 a `ValidationError` (bad input), 2 any other
`MartpropError` (numerical failure), 3 self-test failure.
"""

from __future__ import annotations

import sys

import click

from . import catalog, config as cfgmod, report as repmod
from .errors import ConfigError, MartpropError, ValidationError
from .feller import martingale_verdict
from .hilbert import (
    check_conditions,
    estimate_hilbert_expectation,
    hilbert_novikov_estimate,
    sample_path_array,
)
from .jumpkit import analyze_jump
from .mc import (
    deficit_for,
    estimate_mean_direct,
    novikov_estimate,
)

# paths sampled for the Hilbert kit's empirical condition checks
CONDITION_PATHS = 128


def _common(fn):
    fn = click.option("--config", "config_path", type=click.Path(),
                      default=None, help="JSON config file.")(fn)
    fn = click.option("--preset", default=None,
                      help="Named preset from the built-in catalog.")(fn)
    fn = click.option("--seed", type=int, default=None,
                      help="Override the RNG seed.")(fn)
    fn = click.option("--threads", type=int, default=1,
                      help="Worker threads (never affects outputs).")(fn)
    fn = click.option("--output", "output_path", default=None,
                      help="Report destination ('-' for stdout).")(fn)
    fn = click.option("--format", "fmt",
                      type=click.Choice(["json", "csv"]),
                      default="json", help="Report format.")(fn)
    return fn


def _resolve(config_path, preset, seed, kind=None):
    raw = cfgmod.load_file(config_path) if config_path else {}
    rc = cfgmod.resolve(raw, preset_name=preset, seed=seed)
    if kind is not None and rc.kind != kind:
        raise ConfigError(
            f"this command needs a {kind} config, got {rc.kind}")
    return rc


def _emit(rep, output_path, fmt, curve=None):
    if fmt == "csv":
        if curve is None:
            raise ConfigError("csv format is only available for "
                              "commands that produce a curve",
                              field="--format")
        text = repmod.curve_csv(curve)
    else:
        text = repmod.render_json(rep)
    if output_path in (None, "-"):
        click.echo(text, nl=False)
    else:
        with open(output_path, "w") as fh:
            fh.write(text)


def _echo_estimate(label, est):
    flag = "  [heavy-tail]" if est.heavy_tail_flag else ""
    click.echo(f"{label}: {est.mean:.6f} +/- {est.std_error:.6f} "
               f"(n_eff={est.n_effective}){flag}", err=True)


def _echo_curve(curve):
    click.echo(f"{'level':>8} {'time_cap':>9} {'survival':>10} "
               f"{'std_error':>10}", err=True)
    for (m, cap, q, se) in curve.entries:
        click.echo(f"{m:8g} {cap:9g} {q:10.6f} {se:10.6f}", err=True)
    click.echo(f"deficit: {curve.deficit:.6f}  "
               f"converged: {curve.converged}", err=True)


def _run(body):
    try:
        body()
    except ValidationError as exc:
        # a ConfigError's message already starts with its field
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    except MartpropError as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(2)


@click.group()
@click.version_option()
def main():
    """Martingale-property analysis of stochastic exponentials."""


@main.command()
def presets():
    """List the built-in example presets."""
    for name in catalog.names():
        click.echo(f"{name}: {catalog.description(name)}")


@main.command()
@_common
@click.option("--with-mc", is_flag=True,
              help="Attach a Monte Carlo cross-check (direct mean and "
                   "localized deficit curve).")
def classify(config_path, preset, seed, threads, output_path, fmt,
             with_mc):
    """Feller-test classification of a scalar diffusion exponential."""
    def body():
        rc = _resolve(config_path, preset, seed, kind="diffusion")
        verdict = martingale_verdict(rc.spec, rc.exponent)
        click.echo(f"classification: {verdict.classification.value}",
                   err=True)
        estimates = curves = None
        curve = None
        if with_mc:
            direct = estimate_mean_direct(rc.spec, rc.exponent, rc.t,
                                          rc.mc, threads=threads)
            curve = deficit_for(rc.spec, rc.exponent, rc.plan, rc.t,
                                rc.mc, threads=threads)
            _echo_estimate("direct mean", direct)
            _echo_curve(curve)
            estimates = {"direct_mean": direct}
            curves = {"deficit": curve}
        rep = repmod.build_report("classify", rc, verdict=verdict,
                                  estimates=estimates, curves=curves)
        _emit(rep, output_path, fmt, curve=curve)
    _run(body)


@main.command()
@_common
def deficit(config_path, preset, seed, threads, output_path, fmt):
    """Localized martingale-deficit curve for a diffusion exponential."""
    def body():
        rc = _resolve(config_path, preset, seed, kind="diffusion")
        curve = deficit_for(rc.spec, rc.exponent, rc.plan, rc.t, rc.mc,
                            threads=threads)
        _echo_curve(curve)
        rep = repmod.build_report("deficit", rc,
                                  curves={"deficit": curve})
        _emit(rep, output_path, fmt, curve=curve)
    _run(body)


@main.command()
@_common
def novikov(config_path, preset, seed, threads, output_path, fmt):
    """Monte Carlo probe of Novikov's condition E[exp(q/2 . t)]."""
    def body():
        rc = _resolve(config_path, preset, seed)
        if rc.kind == "diffusion":
            est = novikov_estimate(rc.spec, rc.exponent, rc.t, rc.mc,
                                   threads=threads)
        elif rc.kind == "hilbert":
            est = hilbert_novikov_estimate(rc.functional, rc.covariance,
                                           rc.t, rc.mc, threads=threads)
        else:
            raise ConfigError("novikov needs a diffusion or hilbert "
                              "config")
        _echo_estimate("novikov mean", est)
        rep = repmod.build_report("novikov", rc,
                                  estimates={"novikov": est})
        _emit(rep, output_path, fmt)
    _run(body)


@main.command()
@_common
def jump(config_path, preset, seed, threads, output_path, fmt):
    """Jump-diffusion density-process analysis."""
    def body():
        rc = _resolve(config_path, preset, seed, kind="jump")
        verdict, curve, comp = analyze_jump(rc.triplet, rc.girsanov, rc.t,
                                            rc.plan, rc.mc, threads=threads)
        click.echo(f"classification: {verdict.classification.value}",
                   err=True)
        _echo_curve(curve)
        click.echo(f"compensator identity: "
                   f"{'pass' if comp.passed else 'FAIL'} "
                   f"(gap {comp.mean_gap:.3e} +/- {comp.std_error:.3e})",
                   err=True)
        rep = repmod.build_report(
            "jump", rc, verdict=verdict,
            estimates={"compensator_identity": comp},
            curves={"deficit": curve})
        _emit(rep, output_path, fmt, curve=curve)
    _run(body)


@main.command()
@_common
def hilbert(config_path, preset, seed, threads, output_path, fmt):
    """Cylindrical exponent over truncated Q-Brownian motion."""
    def body():
        rc = _resolve(config_path, preset, seed, kind="hilbert")
        rc.functional.check_modes(rc.covariance.modes)
        times, states = sample_path_array(rc.covariance, rc.mc,
                                          CONDITION_PATHS)
        cond = check_conditions(rc.functional, rc.covariance, times,
                                states)
        direct, curve = estimate_hilbert_expectation(
            rc.functional, rc.covariance, rc.t, rc.plan, rc.mc,
            threads=threads, conditions=cond)
        click.echo(f"conditions: "
                   f"{'pass' if cond.passed else 'FAIL'} "
                   f"(L_hat={cond.lipschitz_hat:.4f}, "
                   f"lambda_hat={cond.growth_hat:.4f})", err=True)
        _echo_estimate("direct mean", direct)
        _echo_curve(curve)
        rep = repmod.build_report(
            "hilbert", rc,
            estimates={"direct_mean": direct, "conditions": cond},
            curves={"deficit": curve})
        _emit(rep, output_path, fmt, curve=curve)
    _run(body)


@main.command()
@click.option("--threads", type=int, default=1)
@click.option("--fast", is_flag=True,
              help="Skip the slowest criteria (runs 1, 6, 9 only).")
def selftest(threads, fast):
    """Run the built-in acceptance suite; exit 3 on any failure."""
    from . import acceptance
    results = acceptance.run_all(threads=threads, fast=fast)
    failed = False
    for (name, passed, details) in results:
        status = "PASS" if passed else "FAIL"
        click.echo(f"{status}  {name}: {details}")
        failed = failed or not passed
    if failed:
        sys.exit(3)


if __name__ == "__main__":
    main()
