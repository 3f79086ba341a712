"""Command-line front end: config ingestion, experiments, CSV/JSON output.

Every setting is one entry of ``SETTINGS``. Precedence is flags over
config-file values over ``SimConfig``'s defaults, except that the CLI runs
10 trials by default. Data goes to --out (or stdout); diagnostics go to
stderr. Output is byte-identical across runs of the same config and seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import replace
from functools import cache

from .engine import (PROTOCOL_TRIALS, PROTOCOLS, STOP_RULES, ExperimentAggregate, SimConfig,
                     SimulationReport, run_grid)

AGGREGATE_COLUMNS = ("protocol", "range", "trials", "connectivity", "mean_lifetime",
                     "sd_lifetime", "mean_energy_per_round", "mean_delay_per_round",
                     "mean_energy_delay", "mean_leaf_fraction")
PER_ROUND_COLUMNS = ("trial", "round", "energy_j", "delay_slots", "alive")

# Every setting, as flag and config-file key: its type (or its allowed values)
# and its place in SimConfig, a path of field names and tuple positions
SETTINGS = {
    "protocol": (PROTOCOLS, ("protocol",)),
    "nodes": (int, ("field", "node_count")),
    "width": (float, ("field", "width")),
    "height": (float, ("field", "height")),
    "range": (float, ("range_m",)),
    "sink-x": (float, ("field", "sink_position", 0)),
    "sink-y": (float, ("field", "sink_position", 1)),
    "trials": (int, ("trials",)),
    "seed": (int, ("master_seed",)),
    "initial-energy": (float, ("initial_energy",)),
    "packet-bits": (int, ("radio", "packet_bits")),
    "e-elec": (float, ("radio", "e_elec")),
    "eps-amp": (float, ("radio", "eps_amp")),
    "e-fuse": (float, ("radio", "e_fuse")),
    "leach-p": (float, ("leach_p",)),
    "rebuild-period": (int, ("rebuild_period",)),
    "max-rounds": (int, ("max_rounds",)),
    "stop-rule": (STOP_RULES, ("stop_rule",)),
}
DEFAULT_CONFIG = SimConfig(trials=10)  # the CLI runs 10 trials unless told otherwise


class UsageError(Exception):
    pass


def read_config_file(path) -> dict:
    """Parse a flat key=value config file; '#' starts a comment."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value")
            key, _, text = (part.strip() for part in line.partition("="))
            if key not in SETTINGS:
                raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
            kind = SETTINGS[key][0]
            try:
                values[key] = text if isinstance(kind, tuple) else kind(text)
            except ValueError:
                raise UsageError(f"{path}:{lineno}: bad value for {key}: {text!r}") from None
    return values


@cache  # one parser per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gathersim",
        description="Round-based sensor-network data-gathering simulator.")
    add = parser.add_argument
    add("--config", metavar="FILE", help="key=value config file")
    for key, (kind, _) in SETTINGS.items():
        if isinstance(kind, tuple):
            add(f"--{key}", dest=key, choices=kind)
        else:
            add(f"--{key}", dest=key, type=kind)
    add("--sweep", metavar="R1,R2,...", help="comma-separated ranges; one experiment each")
    add("--compare", action="store_true", help="run all protocols on identical deployments")
    add("--per-round", action="store_true", help="emit per-round rows instead of aggregates")
    add("--out", metavar="FILE", help="output path (default stdout)")
    add("--format", choices=("csv", "json"), default="csv")
    add("--workers", type=int, default=1, help="parallel trial workers")
    return parser


def _with(value, path, new):
    """``value`` with the part at ``path`` (field names and tuple positions) set to ``new``."""
    if not path:
        return new
    step, rest = path[0], path[1:]
    if isinstance(step, int):
        return value[:step] + (_with(value[step], rest, new),) + value[step + 1:]
    return replace(value, **{step: _with(getattr(value, step), rest, new)})


def parse_config(argv=None):
    """Resolve flags, file, and defaults into a SimConfig plus run options.

    Raises UsageError (or SystemExit via argparse) on unknown keys,
    unparsable values or a config file it cannot read. Warns on stderr when
    --range is given for a protocol that ignores it.
    """
    args = _build_parser().parse_args(argv)
    try:
        file_values = read_config_file(args.config) if args.config is not None else {}
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {args.config}: "
                         f"{getattr(exc, 'strerror', None) or exc}") from None
    flag_values = {key: vars(args)[key] for key in SETTINGS if vars(args)[key] is not None}
    given = {**file_values, **flag_values}
    config = DEFAULT_CONFIG
    for key, value in given.items():
        config = _with(config, SETTINGS[key][1], value)
    try:
        config.validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if ("range" in given and not PROTOCOL_TRIALS[config.protocol].builds_tree
            and not args.compare and args.sweep is None):
        print(f"warning: --range is ignored for protocol {config.protocol}", file=sys.stderr)

    sweep = None
    if args.sweep is not None:
        try:
            sweep = [float(part) for part in args.sweep.split(",") if part.strip()]
        except ValueError:
            raise UsageError(f"bad --sweep list: {args.sweep!r}") from None
        if not sweep:
            raise UsageError("--sweep list is empty")
        try:
            for range_m in sweep:
                replace(config, range_m=range_m).validate()
        except ValueError as exc:
            raise UsageError(f"bad --sweep range: {exc}") from None
    if sum(map(bool, (args.per_round, sweep, args.compare))) > 1:
        raise UsageError("--per-round, --sweep and --compare exclude each other")
    if args.workers < 1:
        raise UsageError("--workers must be >= 1")
    return config, args, sweep


def aggregate_row(agg: ExperimentAggregate) -> list:
    return [agg.protocol, agg.range_m, agg.trials, agg.connectivity, agg.mean_lifetime,
            agg.sd_lifetime, agg.mean_energy_per_round, agg.mean_delay_per_round,
            agg.mean_energy_delay, agg.mean_leaf_fraction]


def per_round_rows(reports: list[SimulationReport]):
    for trial, report in enumerate(reports):
        rounds = report.completed_rounds
        yield from zip([trial] * rounds, range(1, rounds + 1), report.energy_per_round.tolist(),
                       report.delay_per_round.tolist(), report.alive_per_round.tolist())


def render(rows, columns, fmt: str) -> str:
    """Rows as CSV (a header, None as an empty cell, floats numpy's included as their
    shortest round-trip text) or JSON (null for NaN)."""
    buf = io.StringIO()
    _write(buf, rows, columns, fmt)
    return buf.getvalue()


def _write(fh, rows, columns, fmt: str) -> None:
    """Write ``render``'s text to ``fh``, CSV rows one by one as ``rows`` gives them."""
    if fmt == "csv":
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
    elif fmt == "json":  # JSON has no NaN or infinity: such a float is written as null
        records = [{key: None if isinstance(v, float) and not math.isfinite(v) else v
                    for key, v in zip(columns, row)} for row in rows]
        fh.write(json.dumps(records, indent=2) + "\n")
    else:
        raise UsageError(f"unknown format {fmt!r}")


def emit_results(rows, columns, fmt: str = "csv", out=None) -> None:
    """Write rendered rows to ``out`` or stdout, as they come."""
    fh = sys.stdout if out is None else open(out, "w", newline="")
    try:
        _write(fh, rows, columns, fmt)
    finally:
        if out is not None:
            fh.close()


def main(argv=None) -> int:
    try:
        config, args, sweep = parse_config(argv)
    except UsageError as exc:
        print(f"gathersim: error: {exc}", file=sys.stderr)
        return 2

    if args.compare:
        configs = [replace(config, protocol=protocol) for protocol in PROTOCOLS]
    elif sweep:
        configs = [replace(config, range_m=range_m) for range_m in sweep]
    else:
        configs = [config]
    try:
        results = run_grid(configs, workers=args.workers, keep_reports=args.per_round)
        if args.per_round:
            rows, columns = per_round_rows(results[0].reports), PER_ROUND_COLUMNS
        else:
            rows, columns = [aggregate_row(r.aggregate) for r in results], AGGREGATE_COLUMNS
        emit_results(rows, columns, fmt=args.format, out=args.out)
    except (OSError, MemoryError) as exc:
        print(f"gathersim: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
