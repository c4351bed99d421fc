"""Command line front end.

Every subcommand reads an optional JSON config file, applies flag
overrides on top, runs the seeded experiment, and emits one report to
stdout or --out.  The process exits nonzero exactly when some record
failed its check.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from .experiments import ExperimentConfig, parse_exponent, run


def _list_of(parse):
    """Click callback reading a comma separated list with `parse`."""

    def callback(_ctx, _param, value):
        if value is None:
            return None
        try:
            return tuple(parse(x) for x in value.split(","))
        except ValueError as exc:
            raise click.BadParameter(str(exc))

    return callback


_COMMON = [
    click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None, help="JSON config file; flags override its fields."),
    click.option("--seed", type=click.IntRange(min=0), default=None, help="Base RNG seed."),
    click.option("--trials", type=click.IntRange(min=1), default=None, help="Number of seeded trials."),
    click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None, help="Write the report here instead of stdout."),
    click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True, help="Report format."),
    click.option("--tolerance", type=float, default=None, help="Override the subcommand's default tolerance."),
    click.option("--dims", callback=_list_of(int), default=None, help="Comma separated dimensions, e.g. 4,8,16."),
    click.option("--p", "p_list", callback=_list_of(parse_exponent), default=None, help="Comma separated exponents, inf allowed, e.g. 1,2,inf."),
    click.option("--s", "s_value", type=float, default=None, help="Summability exponent."),
]


def _with_common(fn):
    for opt in reversed(_COMMON):
        fn = opt(fn)
    return fn


def _load_config(subcommand: str, config_path, overrides: dict) -> ExperimentConfig:
    data: dict = {}
    if config_path is not None:
        data = json.loads(Path(config_path).read_text())
        if not isinstance(data, dict):
            raise click.ClickException("config file must hold a JSON object")
    file_sub = data.pop("subcommand", None)
    if file_sub is not None and file_sub != subcommand:
        raise click.ClickException(
            f"config file names subcommand {file_sub!r}, not {subcommand!r}"
        )
    for key, value in overrides.items():
        if value is not None:
            data[key] = value
    data["subcommand"] = subcommand
    try:
        return ExperimentConfig.from_dict(data)
    except ValueError as exc:
        raise click.ClickException(str(exc))


def _emit(report, fmt: str, out_path) -> None:
    text = report.to_json_text() if fmt == "json" else report.to_csv_text()
    if out_path is None:
        click.echo(text)
    else:
        Path(out_path).write_text(text + ("" if text.endswith("\n") else "\n"))


def _execute(subcommand: str, config_path, fmt, out_path, overrides: dict) -> None:
    config = _load_config(subcommand, config_path, overrides)
    try:
        report = run(config)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    _emit(report, fmt, out_path)
    if report.failed:
        sys.exit(1)


@click.group()
def main():
    """Numerical experiments on sequence spaces and trace formulas."""


@main.command()
@_with_common
@click.option("--length", type=click.IntRange(min=1), default=None, help="Max sequence length per draw.")
@click.option("--a", "a_values", callback=_list_of(parse_exponent), default=None, help="Fixed left sequence, comma separated.")
@click.option("--b", "b_values", callback=_list_of(parse_exponent), default=None, help="Fixed right sequence, comma separated.")
def holder(config_path, seed, trials, out_path, fmt, tolerance, dims, p_list, s_value, length, a_values, b_values):
    """Product bound against l_1, with sharpness witnesses."""
    _execute("holder", config_path, fmt, out_path, {
        "seed": seed, "trials": trials, "tolerance": tolerance,
        "dims": dims, "p": p_list, "s": s_value, "length": length,
        "a": a_values, "b": b_values,
    })


@main.command()
@_with_common
@click.option("--r", "r_value", type=float, default=None, help="Lorentz index r.")
@click.option("--w", "w_value", callback=lambda c, p, v: parse_exponent(v) if v is not None else None, default=None, help="Lorentz index w, inf allowed.")
@click.option("--length", type=click.IntRange(min=1), default=None, help="Sequence length per draw.")
def lorentz(config_path, seed, trials, out_path, fmt, tolerance, dims, p_list, s_value, r_value, w_value, length):
    """Lorentz quasi-norm sanity checks on random sequences."""
    _execute("lorentz", config_path, fmt, out_path, {
        "seed": seed, "trials": trials, "tolerance": tolerance,
        "dims": dims, "p": p_list, "s": s_value,
        "r": r_value, "w": w_value, "length": length,
    })


@main.command()
@_with_common
@click.option("--beta", type=float, default=None, help="Fixed decay exponent; random in [beta-min, beta-max] otherwise.")
@click.option("--beta-min", type=float, default=None)
@click.option("--beta-max", type=float, default=None)
@click.option("--truncation", type=click.IntRange(min=1), default=None, help="Sequence length.")
@click.option("--gamma", type=float, default=None, help="Envelope exponent for the weak factor.")
def factorize(config_path, seed, trials, out_path, fmt, tolerance, dims, p_list, s_value, beta, beta_min, beta_max, truncation, gamma):
    """Exact l_1 times weak-tail splits of power-decay sequences."""
    _execute("factorize", config_path, fmt, out_path, {
        "seed": seed, "trials": trials, "tolerance": tolerance,
        "dims": dims, "p": p_list, "s": s_value, "beta": beta,
        "beta_min": beta_min, "beta_max": beta_max,
        "truncation": truncation, "gamma": gamma,
    })


@main.command("trace-audit")
@_with_common
def trace_audit(config_path, seed, trials, out_path, fmt, tolerance, dims, p_list, s_value):
    """Nuclear trace versus eigenvalue sum on random representations."""
    _execute("trace-audit", config_path, fmt, out_path, {
        "seed": seed, "trials": trials, "tolerance": tolerance,
        "dims": dims, "p": p_list, "s": s_value,
    })


@main.command("eigen-type")
@_with_common
@click.option("--beta", type=float, default=None, help="Decay exponent of the diagonal family.")
def eigen_type(config_path, seed, trials, out_path, fmt, tolerance, dims, p_list, s_value, beta):
    """Ratio sweep of eigenvalue mass against the quasi-norm."""
    _execute("eigen-type", config_path, fmt, out_path, {
        "seed": seed, "trials": trials, "tolerance": tolerance,
        "dims": dims, "p": p_list, "s": s_value, "beta": beta,
    })


@main.command()
@_with_common
@click.option("--epsilon", type=float, default=None, help="Target sup error.")
@click.option("--alpha", type=float, default=None, help="Projection growth exponent in [0, 1/2].")
@click.option("--beta", type=float, default=None, help="Decay exponent of the vector norms.")
@click.option("--profile", type=click.Choice(["coordinate", "random"]), default=None, help="Deterministic coordinate family or seeded random directions.")
def approx(config_path, seed, trials, out_path, fmt, tolerance, dims, p_list, s_value, epsilon, alpha, beta, profile):
    """Finite-rank approximation certificates for decaying systems."""
    _execute("approx", config_path, fmt, out_path, {
        "seed": seed, "trials": trials, "tolerance": tolerance,
        "dims": dims, "p": p_list, "s": s_value, "epsilon": epsilon,
        "alpha": alpha, "beta": beta, "profile": profile,
    })


@main.command()
@_with_common
def similarity(config_path, seed, trials, out_path, fmt, tolerance, dims, p_list, s_value):
    """Nonzero spectrum of AB against BA for random rectangular pairs."""
    _execute("similarity", config_path, fmt, out_path, {
        "seed": seed, "trials": trials, "tolerance": tolerance,
        "dims": dims, "p": p_list, "s": s_value,
    })


if __name__ == "__main__":
    main()
