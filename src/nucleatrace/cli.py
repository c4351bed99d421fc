"""Command line front end.

Every subcommand reads an optional JSON config file, applies flag
overrides on top, runs the seeded experiment, and emits one report to
stdout or --out.  The process exits nonzero exactly when some record
failed its check.

Each flag sets the config field of the same name (click derives the
parameter name from the flag, so ``--beta-min`` sets ``beta_min``);
only ``--config``, ``--out`` and ``--format`` are not config fields.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from .experiments import ExperimentConfig, parse_exponent, run


def _parsed(parse):
    """Click callback reading an option's text with `parse`; a ValueError is a usage error."""

    def callback(_ctx, _param, value):
        if value is None:
            return None
        try:
            return parse(value)
        except ValueError as exc:
            raise click.BadParameter(str(exc))

    return callback


def _list_of(parse):
    """Click callback reading a comma separated list with `parse`."""
    return _parsed(lambda text: tuple(parse(x) for x in text.split(",")))


_COMMON = [
    click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None, help="JSON config file; flags override its fields."),
    click.option("--seed", type=click.IntRange(min=0), default=None, help="Base RNG seed."),
    click.option("--trials", type=click.IntRange(min=1), default=None, help="Number of seeded trials."),
    click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None, help="Write the report here instead of stdout."),
    click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True, help="Report format."),
    click.option("--tolerance", type=float, default=None, help="Override the subcommand's default tolerance."),
    click.option("--dims", callback=_list_of(int), default=None, help="Comma separated dimensions, e.g. 4,8,16."),
    click.option("--p", callback=_list_of(parse_exponent), default=None, help="Comma separated exponents, inf allowed, e.g. 1,2,inf."),
    click.option("--s", type=float, default=None, help="Summability exponent."),
]

# subcommand -> (help line, options it adds to _COMMON)
_SUBCOMMANDS = {
    "holder": ("Product bound against l_1, with sharpness witnesses.", [
        click.option("--length", type=click.IntRange(min=1), default=None, help="Max sequence length per draw."),
        click.option("--a", callback=_list_of(parse_exponent), default=None, help="Fixed left sequence, comma separated."),
        click.option("--b", callback=_list_of(parse_exponent), default=None, help="Fixed right sequence, comma separated."),
    ]),
    "lorentz": ("Lorentz quasi-norm sanity checks on random sequences.", [
        click.option("--r", type=float, default=None, help="Lorentz index r."),
        click.option("--w", callback=_parsed(parse_exponent), default=None, help="Lorentz index w, inf allowed."),
        click.option("--length", type=click.IntRange(min=1), default=None, help="Sequence length per draw."),
    ]),
    "factorize": ("Exact l_1 times weak-tail splits of power-decay sequences.", [
        click.option("--beta", type=float, default=None, help="Fixed decay exponent; random in [beta-min, beta-max] otherwise."),
        click.option("--beta-min", type=float, default=None),
        click.option("--beta-max", type=float, default=None),
        click.option("--truncation", type=click.IntRange(min=1), default=None, help="Sequence length."),
        click.option("--gamma", type=float, default=None, help="Envelope exponent for the weak factor."),
    ]),
    "trace-audit": ("Nuclear trace versus eigenvalue sum on random representations.", []),
    "eigen-type": ("Ratio sweep of eigenvalue mass against the quasi-norm.", [
        click.option("--beta", type=float, default=None, help="Decay exponent of the diagonal family."),
    ]),
    "approx": ("Finite-rank approximation certificates for decaying systems.", [
        click.option("--epsilon", type=float, default=None, help="Target sup error."),
        click.option("--alpha", type=float, default=None, help="Projection growth exponent in [0, 1/2]."),
        click.option("--beta", type=float, default=None, help="Decay exponent of the vector norms."),
        click.option("--profile", type=click.Choice(["coordinate", "random"]), default=None, help="Deterministic coordinate family or seeded random directions."),
    ]),
    "similarity": ("Nonzero spectrum of AB against BA for random rectangular pairs.", []),
}


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


def _execute(subcommand: str, config_path, out_path, fmt, overrides: dict) -> None:
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


def _register(name: str, help_line: str, options: list) -> None:
    def command(config_path, out_path, fmt, **overrides):
        _execute(name, config_path, out_path, fmt, overrides)

    for option in reversed(_COMMON + options):
        command = option(command)
    main.command(name, help=help_line)(command)


for _name, (_help_line, _options) in _SUBCOMMANDS.items():
    _register(_name, _help_line, _options)


if __name__ == "__main__":
    main()
