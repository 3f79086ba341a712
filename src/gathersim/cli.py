"""Command-line front end: config ingestion, experiments, CSV/JSON output.

Precedence for every setting is flags over config-file values over the
built-in defaults. Data goes to --out (or stdout); diagnostics go to
stderr. Output is byte-identical across runs of the same config and seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import replace
from functools import cache

from .engine import (PROTOCOLS, STOP_RULES, ExperimentAggregate, SimConfig, SimulationReport,
                     range_sweep, run_experiment)
from .network import FieldConfig
from .radio import RadioParams

AGGREGATE_COLUMNS = ("protocol", "range", "trials", "connectivity", "mean_lifetime",
                     "sd_lifetime", "mean_energy_per_round", "mean_delay_per_round",
                     "mean_energy_delay", "mean_leaf_fraction")
PER_ROUND_COLUMNS = ("trial", "round", "energy_j", "delay_slots", "alive")

DEFAULTS = {
    "protocol": "emln",
    "nodes": 100,
    "width": 100.0,
    "height": 100.0,
    "range": 25.0,
    "sink-x": 50.0,
    "sink-y": 300.0,
    "trials": 10,
    "seed": 1,
    "initial-energy": 1.0,
    "packet-bits": 2000,
    "e-elec": 50e-9,
    "eps-amp": 100e-12,
    "e-fuse": 5e-9,
    "leach-p": 0.05,
    "rebuild-period": 1,
    "max-rounds": 100_000,
    "stop-rule": "first-death",
}

_KEY_TYPES = {
    "protocol": str, "nodes": int, "width": float, "height": float, "range": float,
    "sink-x": float, "sink-y": float, "trials": int, "seed": int,
    "initial-energy": float, "packet-bits": int, "e-elec": float, "eps-amp": float,
    "e-fuse": float, "leach-p": float, "rebuild-period": int, "max-rounds": int,
    "stop-rule": str,
}


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
            if key not in _KEY_TYPES:
                raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = _KEY_TYPES[key](text)
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
    add("--protocol", choices=PROTOCOLS)
    add("--nodes", type=int)
    add("--width", type=float)
    add("--height", type=float)
    add("--range", type=float, dest="range_m")
    add("--sink-x", type=float)
    add("--sink-y", type=float)
    add("--trials", type=int)
    add("--seed", type=int)
    add("--initial-energy", type=float)
    add("--packet-bits", type=int)
    add("--e-elec", type=float)
    add("--eps-amp", type=float)
    add("--e-fuse", type=float)
    add("--leach-p", type=float)
    add("--rebuild-period", type=int)
    add("--max-rounds", type=int)
    add("--stop-rule", choices=STOP_RULES)
    add("--sweep", metavar="R1,R2,...", help="comma-separated ranges; one experiment each")
    add("--compare", action="store_true", help="run all protocols on identical deployments")
    add("--per-round", action="store_true", help="emit per-round rows instead of aggregates")
    add("--out", metavar="FILE", help="output path (default stdout)")
    add("--format", choices=("csv", "json"), default="csv")
    add("--workers", type=int, default=1, help="parallel trial workers")
    return parser


def parse_config(argv=None):
    """Resolve flags, file, and defaults into a SimConfig plus run options.

    Raises UsageError (or SystemExit via argparse) on unknown keys or
    unparsable values. Warns on stderr when --range is given for a protocol
    that ignores it.
    """
    args = _build_parser().parse_args(argv)

    merged = dict(DEFAULTS)
    file_values = read_config_file(args.config) if args.config else {}
    merged.update(file_values)
    flag_values = {
        "protocol": args.protocol, "nodes": args.nodes, "width": args.width,
        "height": args.height, "range": args.range_m, "sink-x": args.sink_x,
        "sink-y": args.sink_y, "trials": args.trials, "seed": args.seed,
        "initial-energy": args.initial_energy, "packet-bits": args.packet_bits,
        "e-elec": args.e_elec, "eps-amp": args.eps_amp, "e-fuse": args.e_fuse,
        "leach-p": args.leach_p, "rebuild-period": args.rebuild_period,
        "max-rounds": args.max_rounds, "stop-rule": args.stop_rule,
    }
    range_given = args.range_m is not None or "range" in file_values
    merged.update({k: v for k, v in flag_values.items() if v is not None})

    if merged["protocol"] not in PROTOCOLS:
        raise UsageError(f"unknown protocol {merged['protocol']!r}")
    if range_given and merged["protocol"] != "emln" and not args.compare and not args.sweep:
        print(f"warning: --range is ignored for protocol {merged['protocol']}",
              file=sys.stderr)

    config = SimConfig(
        field=FieldConfig(width=merged["width"], height=merged["height"],
                          node_count=merged["nodes"],
                          sink_position=(merged["sink-x"], merged["sink-y"])),
        radio=RadioParams(e_elec=merged["e-elec"], eps_amp=merged["eps-amp"],
                          e_fuse=merged["e-fuse"], packet_bits=merged["packet-bits"]),
        protocol=merged["protocol"],
        range_m=merged["range"],
        initial_energy=merged["initial-energy"],
        max_rounds=merged["max-rounds"],
        trials=merged["trials"],
        master_seed=merged["seed"],
        rebuild_period=merged["rebuild-period"],
        stop_rule=merged["stop-rule"],
        leach_p=merged["leach-p"],
    )
    try:
        config.validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    sweep = None
    if args.sweep:
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
    if args.per_round and (sweep or args.compare):
        raise UsageError("--per-round applies only to a single experiment")
    if args.workers < 1:
        raise UsageError("--workers must be >= 1")
    return config, args, sweep


def compare_protocols(config: SimConfig, workers: int = 1) -> list[ExperimentAggregate]:
    """Run all five protocols over identical deployments and seeds."""
    return [
        run_experiment(replace(config, protocol=p), workers=workers).aggregate
        for p in PROTOCOLS
    ]


def _format_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)  # shortest round-trip representation
    return str(value)


def aggregate_row(agg: ExperimentAggregate) -> list:
    return [agg.protocol, agg.range_m, agg.trials, agg.connectivity, agg.mean_lifetime,
            agg.sd_lifetime, agg.mean_energy_per_round, agg.mean_delay_per_round,
            agg.mean_energy_delay, agg.mean_leaf_fraction]


def per_round_rows(reports: list[SimulationReport]):
    for trial, report in enumerate(reports):
        for i in range(report.completed_rounds):
            yield [trial, i + 1, float(report.energy_per_round[i]),
                   int(report.delay_per_round[i]), int(report.alive_per_round[i])]


def render(rows, columns, fmt: str) -> str:
    """Render rows as CSV (header + shortest-round-trip floats) or JSON."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])
        return buf.getvalue()
    if fmt == "json":
        records = [dict(zip(columns, row)) for row in rows]
        return json.dumps(records, indent=2) + "\n"
    raise UsageError(f"unknown format {fmt!r}")


def emit_results(rows, columns, fmt: str = "csv", out=None) -> None:
    """Write rendered rows to ``out`` or stdout."""
    text = render(rows, columns, fmt)
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def main(argv=None) -> int:
    try:
        config, args, sweep = parse_config(argv)
    except UsageError as exc:
        print(f"gathersim: error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.compare:
            rows = [aggregate_row(a) for a in compare_protocols(config, workers=args.workers)]
            columns = AGGREGATE_COLUMNS
        elif sweep:
            rows = [aggregate_row(a) for a in range_sweep(config, sweep, workers=args.workers)]
            columns = AGGREGATE_COLUMNS
        elif args.per_round:
            result = run_experiment(config, workers=args.workers, keep_reports=True)
            rows = list(per_round_rows(result.reports))
            columns = PER_ROUND_COLUMNS
        else:
            result = run_experiment(config, workers=args.workers)
            rows = [aggregate_row(result.aggregate)]
            columns = AGGREGATE_COLUMNS
        emit_results(rows, columns, fmt=args.format, out=args.out)
    except (OSError, MemoryError) as exc:
        print(f"gathersim: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
