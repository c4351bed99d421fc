"""Command line front end.

Every subcommand reads an optional JSON config file, applies flag
overrides on top, runs the seeded experiment, and emits one report to
stdout or --out.  The process exits nonzero exactly when some record
failed its check.

A subcommand offers a flag for each config field that its row in
``experiments.COMMANDS`` reads, typed by the field's kind in
``experiments.FIELDS``, and no other.  Each flag sets the config field
of the same name (``--beta-min`` sets ``beta_min``); only ``--config``,
``--out`` and ``--format`` are not config fields.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from .experiments import COMMANDS, FIELDS, ExperimentConfig, parse_exponent, run


def _callback(parse, many: bool):
    """Click callback reading a flag's text with `parse`, comma separated if `many`; ValueError is a usage error."""

    def callback(_ctx, _param, text):
        if text is None:
            return None
        try:
            return tuple(parse(x) for x in text.split(",")) if many else parse(text)
        except ValueError as exc:
            raise click.BadParameter(str(exc))

    return callback


def _option(name: str, one_value: bool):
    """The click option of config field `name`, as its kind in FIELDS says."""
    kind, bound, help_line = FIELDS[name]
    if kind == "int":
        kwargs = {"type": click.IntRange(min=bound)}
    elif kind in ("number", "choice"):
        kwargs = {"type": float if kind == "number" else click.Choice(bound)}
    else:
        kwargs = {"callback": _callback(int if kind == "ints" else parse_exponent, kind != "exponent")}
    help_line += " Exactly one value here." if one_value else ""
    return click.option("--" + name.replace("_", "-"), default=None, help=help_line, **kwargs)


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


def _register(name: str, row) -> None:
    def command(config_path, out_path, fmt, **overrides):
        _execute(name, config_path, out_path, fmt, overrides)

    options = [
        click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None, help="JSON config file; flags override its fields."),
        *(_option(field, field in row.one_value) for field in row.fields),
        click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None, help="Write the report here instead of stdout."),
        click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True, help="Report format."),
    ]
    for option in reversed(options):
        command = option(command)
    main.command(name, help=row.help)(command)


for _name, _row in COMMANDS.items():
    _register(_name, _row)


if __name__ == "__main__":
    main()
