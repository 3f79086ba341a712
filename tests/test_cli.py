import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import read_aggregate_csv
import gathersim
from gathersim import PROTOCOLS, NodeState, cli, parse_config, run_grid
from gathersim.cli import (AGGREGATE_COLUMNS, PER_ROUND_COLUMNS, aggregate_row, main,
                           per_round_rows, render)
from gathersim.engine import FieldConfig, SimConfig


FAST = ["--nodes", "20", "--width", "40", "--height", "40", "--sink-x", "20",
        "--sink-y", "120", "--range", "18", "--initial-energy", "0.02",
        "--trials", "2", "--seed", "11"]


def test_defaults_match_reference_setup():
    config, args, sweep = parse_config([])
    assert config.field.node_count == 100
    assert config.field.width == 100.0 and config.field.height == 100.0
    assert config.field.sink_position == (50.0, 300.0)
    assert config.initial_energy == 1.0
    assert config.protocol == "emln"
    assert config.range_m == 25.0
    assert config.radio.packet_bits == 2000
    assert config.radio.e_elec == 50e-9
    assert config.radio.eps_amp == 100e-12
    assert config.leach_p == 0.05
    assert config.rebuild_period == 1
    assert sweep is None
    assert config == SimConfig(trials=10)


# a value other than the default for every setting, and where it lands in SimConfig
SETTING_CASES = {
    "protocol": ("leach", "leach", lambda c: c.protocol),
    "nodes": ("50", 50, lambda c: c.field.node_count),
    "width": ("80", 80.0, lambda c: c.field.width),
    "height": ("120", 120.0, lambda c: c.field.height),
    "range": ("30", 30.0, lambda c: c.range_m),
    "sink-x": ("10", 10.0, lambda c: c.field.sink_position[0]),
    "sink-y": ("200", 200.0, lambda c: c.field.sink_position[1]),
    "trials": ("3", 3, lambda c: c.trials),
    "seed": ("7", 7, lambda c: c.master_seed),
    "initial-energy": ("0.5", 0.5, lambda c: c.initial_energy),
    "packet-bits": ("4000", 4000, lambda c: c.radio.packet_bits),
    "e-elec": ("6e-08", 6e-08, lambda c: c.radio.e_elec),
    "eps-amp": ("2e-10", 2e-10, lambda c: c.radio.eps_amp),
    "e-fuse": ("1e-08", 1e-08, lambda c: c.radio.e_fuse),
    "leach-p": ("0.1", 0.1, lambda c: c.leach_p),
    "rebuild-period": ("2", 2, lambda c: c.rebuild_period),
    "max-rounds": ("500", 500, lambda c: c.max_rounds),
    "stop-rule": ("energy-exhausted", "energy-exhausted", lambda c: c.stop_rule),
}


@pytest.mark.parametrize("key", list(cli.SETTINGS))
def test_setting_as_flag_equals_setting_in_config_file(key, tmp_path):
    text, value, read = SETTING_CASES[key]
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{key}={text}\n")
    by_flag, _, _ = parse_config([f"--{key}", text])
    by_file, _, _ = parse_config(["--config", str(cfg_file)])
    assert by_flag == by_file
    assert read(by_flag) == value != read(SimConfig(trials=10))
    assert type(read(by_flag)) is type(value)


def test_zero_trials_is_usage_error(capsys):
    assert main(["--trials", "0"]) == 2
    assert "trials" in capsys.readouterr().err


def test_reused_parser_keeps_no_value_between_calls(capsys):
    assert parse_config(["--seed", "5"])[0].master_seed == 5
    assert parse_config([])[0].master_seed == 1
    fresh_help = cli._build_parser.__wrapped__().format_help()
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            parse_config(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == fresh_help


def test_unknown_flag_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        parse_config(["--frobnicate", "1"])
    assert exc.value.code != 0


def test_unparsable_number_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        parse_config(["--trials", "many"])
    assert exc.value.code != 0


def test_flag_overrides_config_file(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("range=30\nnodes=50  # inline comment\n\n# full comment\n")
    config, _, _ = parse_config(["--config", str(cfg_file)])
    assert config.range_m == 30.0 and config.field.node_count == 50
    config, _, _ = parse_config(["--config", str(cfg_file), "--range", "25"])
    assert config.range_m == 25.0 and config.field.node_count == 50


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("nodez=50\n")
    assert main(["--config", str(cfg_file)]) == 2
    assert "nodez" in capsys.readouterr().err


def test_bad_config_value_rejected(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("nodes=fifty\n")
    assert main(["--config", str(cfg_file)]) == 2


@pytest.mark.parametrize("name, content", [
    ("missing.cfg", None), (".", None), ("latin1.cfg", "# caf\xe9\nnodes=5\n".encode("latin-1")),
    ("", None)])
def test_unreadable_config_file_exits_2_naming_it(name, content, tmp_path, capsys):
    path = str(tmp_path / name) if name else ""
    if content is not None:
        with open(path, "wb") as fh:
            fh.write(content)
    assert main(["--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"gathersim: error: cannot read config file {path}: ")


def test_range_with_direct_warns_but_runs(capsys):
    config, _, _ = parse_config(["--protocol", "direct", "--range", "30"])
    assert "ignored" in capsys.readouterr().err
    assert config.protocol == "direct"


# The top-level modules that importing gathersim adds to a process that has
# imported numpy. Each spawn of the CLI imports them, so a new one costs start-up
# time: a change that needs one adds it here and records what it costs.
IMPORTED_AFTER_NUMPY = {"__future__", "_csv", "_json", "argparse", "copy", "csv", "dataclasses",
                        "gathersim", "gettext", "json"}


def test_import_adds_no_module_beyond_the_known_set():
    code = ("import sys, numpy\n"
            "before = set(sys.modules)\n"
            "import gathersim\n"
            "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))")
    # the child imports the same gathersim as this process, installed or not
    src = str(Path(gathersim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "gathersim" in added
    assert added <= IMPORTED_AFTER_NUMPY, sorted(added - IMPORTED_AFTER_NUMPY)


def test_empty_rows_render_header_only():
    assert render([], AGGREGATE_COLUMNS, "csv") == ",".join(AGGREGATE_COLUMNS) + "\n"


def test_csv_writes_floats_as_shortest_round_trip_text():
    rows = [["emln", np.float64(0.1), 0.1 + 0.2, float("nan"), np.int64(3), None]]
    text = render(rows, AGGREGATE_COLUMNS[:6], "csv")
    assert text.splitlines()[1] == "emln,0.1,0.30000000000000004,nan,3,"


def test_streamed_per_round_csv_is_the_rendered_text(tmp_path, capsys):
    # rows are written as they are rendered, to --out and to stdout, with
    # the bytes of one render of every row
    args = ["--trials", "3", "--initial-energy", "0.03", "--seed", "4",
            "--per-round"]
    config, _, _ = parse_config(args)
    reports = run_grid([config], keep_reports=True)[0].reports
    want = render(list(per_round_rows(reports)), PER_ROUND_COLUMNS, "csv").encode()
    assert want.count(b"\n") > 100
    out = tmp_path / "rounds.csv"
    assert main(args + ["--out", str(out)]) == 0
    assert out.read_bytes() == want
    capsys.readouterr()
    assert main(args) == 0
    assert capsys.readouterr().out.encode() == want


def test_aggregate_roundtrip(tmp_path):
    code = main(FAST + ["--out", str(tmp_path / "agg.csv")])
    assert code == 0
    (row,) = read_aggregate_csv(tmp_path / "agg.csv")
    assert row.protocol == "emln"
    assert row.trials == 2
    # parse back and re-emit: byte identical
    text1 = (tmp_path / "agg.csv").read_text()
    text2 = render([aggregate_row(row)], AGGREGATE_COLUMNS, "csv")
    assert text1 == text2


def test_json_mirror_carries_identical_values(tmp_path):
    assert main(FAST + ["--out", str(tmp_path / "a.csv")]) == 0
    assert main(FAST + ["--format", "json", "--out", str(tmp_path / "a.json")]) == 0
    (row,) = read_aggregate_csv(tmp_path / "a.csv")
    (rec,) = json.loads((tmp_path / "a.json").read_text())
    assert list(rec) == list(AGGREGATE_COLUMNS)
    assert rec["protocol"] == row.protocol
    for key, value in (("range", row.range_m), ("trials", row.trials),
                       ("connectivity", row.connectivity),
                       ("mean_lifetime", row.mean_lifetime),
                       ("sd_lifetime", row.sd_lifetime),
                       ("mean_energy_per_round", row.mean_energy_per_round),
                       ("mean_delay_per_round", row.mean_delay_per_round),
                       ("mean_energy_delay", row.mean_energy_delay),
                       ("mean_leaf_fraction", row.mean_leaf_fraction)):
        assert rec[key] == value


def test_json_writes_null_for_undefined_means(capsys):
    # range 1 m disconnects every trial, so every mean is NaN
    argv = ["--range", "1", "--trials", "2"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[1] == "emln,1.0,2,0.0,nan,nan,nan,nan,nan,nan"

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    assert main(argv + ["--format", "json"]) == 0
    (rec,) = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert rec["connectivity"] == 0.0
    assert all(rec[key] is None for key in AGGREGATE_COLUMNS[4:])


def test_output_is_byte_identical_across_runs(tmp_path):
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(FAST + ["--out", str(out1)]) == 0
    assert main(FAST + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_per_round_schema(tmp_path):
    out = tmp_path / "rounds.csv"
    assert main(FAST + ["--per-round", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(PER_ROUND_COLUMNS)
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "1"
    assert int(first[4]) == 20
    assert float(first[2]) > 0


def test_per_round_incompatible_with_sweep(capsys):
    for pair in (["--per-round", "--sweep", "15,20"], ["--per-round", "--compare"],
                 ["--compare", "--sweep", "20,30"]):
        assert main(FAST + pair) == 2
        assert capsys.readouterr().err.startswith("gathersim: error:")


def test_sweep_emits_one_row_per_range(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    ranges = "15,20,25,30,35,40,45,50"
    assert main(FAST + ["--sweep", ranges, "--out", str(out)]) == 0
    rows = read_aggregate_csv(out)
    assert [r.range_m for r in rows] == [15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0]
    for empty in ("", ",", " , "):
        # no "--range is ignored" warning either: the sweep sets the ranges
        assert main(FAST + ["--protocol", "direct", "--range", "30", "--sweep", empty]) == 2
        assert capsys.readouterr() == ("", "gathersim: error: --sweep list is empty\n")


def test_compare_emits_five_rows(tmp_path):
    out = tmp_path / "cmp.csv"
    assert main(FAST + ["--compare", "--out", str(out)]) == 0
    rows = read_aggregate_csv(out)
    assert [r.protocol for r in rows] == ["emln", "leach", "pegasis-tdma",
                                          "pegasis-cdma", "direct"]


def test_unwritable_out_path_fails(tmp_path):
    assert main(FAST + ["--out", str(tmp_path / "missing" / "x.csv")]) == 1


@pytest.mark.parametrize("message", ["Unable to allocate 149. GiB for an array", ""])
def test_size_beyond_memory_fails_with_an_error_line(message, monkeypatch, capsys):
    # stands in for a run that cannot allocate its nodes; nothing is allocated
    def run_grid(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "run_grid", run_grid)
    assert main(["--nodes", "10000000000"]) == 1
    err = capsys.readouterr().err
    assert err == f"gathersim: error: {message or 'out of memory'}\n"


def test_data_goes_to_stdout_without_out_flag(capsys):
    assert main(FAST) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(",".join(AGGREGATE_COLUMNS))
    assert captured.err == ""


def test_module_entry_prints_what_main_prints(capsys):
    # `python -m gathersim` runs the CLI without runpy's warning about a
    # module imported before its execution
    src = str(Path(gathersim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "gathersim", *FAST], capture_output=True,
                          text=True, timeout=120, env=env)
    assert main(FAST) == 0
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, capsys.readouterr().out, "")


def test_protocol_grid_degenerate_single_node():
    # one node 250 m from the sink: every protocol completes floor(1/debit)
    # rounds, the delays collapse to 0 or 1
    node = (NodeState(0, (50.0, 50.0), 1.0),)
    cfg = SimConfig(field=FieldConfig(node_count=1), trials=1,
                    nodes_override=node, master_seed=4)
    rows = [r.aggregate for r in run_grid([replace(cfg, protocol=p) for p in PROTOCOLS])]
    sink_tx = 1.26e-2
    fuse_own = 5e-9 * 2000
    for row in rows:
        if row.protocol == "direct":
            debit, delay = sink_tx, 1.0
        elif row.protocol == "leach":
            debit, delay = sink_tx + fuse_own, 1.0
        else:
            debit, delay = sink_tx + fuse_own, 0.0
        assert row.mean_delay_per_round == delay
        assert row.mean_lifetime == math.floor(1.0 / debit)
