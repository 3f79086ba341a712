"""Tests of the benchmark itself, on tiny versions of its workloads.

    python3 -m pytest bench/selftest.py -q

The file name keeps these tests out of the repository's own test run; they
test the measuring harness, not gathersim.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import record  # noqa: E402
import run  # noqa: E402

TINY_FIELD = ["--nodes", "40", "--width", "50", "--height", "50", "--max-rounds", "40",
              "--trials", "2"]
TINY = {
    "emln-lifetime": dict(run.WORKLOADS["emln-lifetime"], argv=TINY_FIELD),
    "baselines-lifetime": dict(run.WORKLOADS["baselines-lifetime"], argv=TINY_FIELD),
    "large-round1": dict(run.WORKLOADS["large-round1"], per_pass=2,
                         argv=["--nodes", "200", "--width", "141.4", "--height", "141.4",
                               "--sink-x", "70.7", "--sink-y", "341.4"]),
}
DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """Tiny expected outputs, recorded from the code under test, and an out dir."""
    out = tmp_path_factory.mktemp("out")
    tables = {name: record.record(name, spec, range(1, 4), out=out)["outputs"]
              for name, spec in TINY.items()}
    return tables, out


def run_tiny(tiny, name, trace, table=None):
    tables, out = tiny
    return run.run_workload(name, TINY[name], table or tables[name], seed=3, seconds=0.3,
                            trace=trace, out=out, probes=1)


@pytest.mark.parametrize("name", TINY)
@pytest.mark.parametrize("trace", [False, True])
def test_every_declared_metric_printed_with_unit(tiny, name, trace, capsys):
    result = run_tiny(tiny, name, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = DECLARED["per_layer" if trace else "end_to_end"]
    run.emit(name, result, wanted)
    lines = capsys.readouterr().out.splitlines()
    for m in wanted:
        assert any(line.startswith(m["name"] + " ") and line.endswith(" " + m["unit"])
                   for line in lines), m["name"]
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}


@pytest.mark.parametrize("name", TINY)
def test_self_times_fit_in_traced_wall_time(tiny, name):
    metrics = run_tiny(tiny, name, True)["metrics"]
    assert sum(metrics[f"{layer}.share"] for layer in run.LAYERS) <= 1.0
    assert all(metrics[f"{layer}.self_s"] >= 0 for layer in run.LAYERS)


def test_layer_split_follows_the_workload(tiny):
    _, out = tiny
    emln = run_tiny(tiny, "emln-lifetime", True)["metrics"]
    assert emln["emln.construct_tree.calls"] > 0
    assert emln["emln.promotions_per_tree"] > 0
    baselines = run_tiny(tiny, "baselines-lifetime", True)["metrics"]
    assert baselines["baselines.leach_elect.calls"] > 0
    names = {line.split(",")[1]
             for line in (out / "trace-baselines-lifetime.csv").read_text().splitlines()[1:]}
    assert not any(n.startswith(("emln.", "radio.")) for n in names), names
    large = run_tiny(tiny, "large-round1", True)["metrics"]
    assert large["network.is_connected.calls"] > 0
    assert large["engine.graph_builds_per_trial"] == 1.0


@pytest.mark.parametrize("name", TINY)
def test_wrong_expected_hash_counts_as_failed(tiny, name):
    tables, _ = tiny
    table = json.loads(json.dumps(tables[name]))
    for groups in table.values():
        for trials in groups.values():
            trials[0][0] = "0" * 64
    result = run_tiny(tiny, name, False, table)
    assert result["failed"] > 0 and not result["correct"]


def test_recorded_outputs_match_the_workloads():
    outputs = run.load_expected()
    assert set(outputs) == set(run.WORKLOADS)
    assert all(len(table) >= 8 for table in outputs.values())


def test_fails_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "emln-lifetime",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
