"""tools/bench_pairs.py: the pair summary on fixed run records, and the run parser on a stub.

No real benchmark runs here. ``summarize`` gets hand-made records of a
few pairs per workload and must give the medians, quartiles, wins and the
verdict against each metric's bound in BENCHMARK.json; ``run_bench`` reads
a stub ``bench/run.py`` that prints fixed lines.
"""

import ast
import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from gathersim.cli import parse_config

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

DECLARED = {"end_to_end": [
    {"name": "rounds_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2}]}


def records(workload, base, change, failed=0):
    """Run records of len(base) pairs: rounds_per_s as given, wall_s its inverse."""
    runs = []
    for pair, values in enumerate(zip(base, change)):
        for side, value in zip(("base", "change"), values):
            runs.append({"workload": workload, "pair": pair, "side": side, "correct": True,
                         "attempted": 10, "failed": failed if side == "change" else 0,
                         "metrics": {"rounds_per_s": value, "wall_s": 1.0 / value}})
    return runs


def test_a_clear_gain_and_a_noisy_flat_workload():
    base = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]
    faster = [v * 1.1 for v in base]
    noisy_base = [100.0, 50.0, 150.0, 100.0]
    summary = bench_pairs.summarize(records("fast", base, faster)
                                    + records("flat", noisy_base, [99.0, 150.0, 51.0, 100.0]),
                                    DECLARED)
    fast = summary["fast"]
    assert fast["pairs"] == 10 and fast["change"]["all_correct"] and fast["base"]["failed"] == 0
    rate = fast["metrics"]["rounds_per_s"]
    assert (rate["base_q1"], rate["base_median"], rate["base_q3"]) == (102.25, 104.5, 106.75)
    assert rate["change_median"] == pytest.approx(114.95)
    assert rate["ratio"] == pytest.approx(1.1)
    assert (rate["wins"], rate["losses"], rate["verdict"]) == (10, 0, "gain")
    assert rate["worse_frac"] == pytest.approx(-0.1)
    # lower is better for wall_s, so the smaller times win
    assert fast["metrics"]["wall_s"]["wins"] == 10
    assert fast["metrics"]["wall_s"]["verdict"] == "gain"
    flat = summary["flat"]["metrics"]["rounds_per_s"]
    # one tie, which counts for neither side; the base's IQR (25) is over 20% of 100
    assert (flat["wins"], flat["losses"], flat["verdict"]) == (1, 2, "unresolved")


@pytest.mark.parametrize("change, verdict", [
    ([70.0, 71.0, 72.0], "regressed"),   # 28% lower than the base's median of 100
    ([95.0, 99.0, 97.0], "within bound"),
    ([101.0, 100.5, 99.0], "within bound"),  # wins 2 of 3: no gain
    ([130.0, 131.0, 132.0], "within bound"),  # every pair won, but fewer than ten pairs
])
def test_verdict_against_the_bound(change, verdict):
    summary = bench_pairs.summarize(records("w", [99.0, 100.0, 101.0], change), DECLARED)
    assert summary["w"]["metrics"]["rounds_per_s"]["verdict"] == verdict


def test_failed_runs_and_unpaired_runs():
    runs = records("w", [100.0, 100.0], [110.0, 120.0], failed=1)
    runs.append(dict(runs[0], pair=2))  # a base run whose pair never ran
    summary = bench_pairs.summarize(runs, DECLARED)["w"]
    assert summary["pairs"] == 2
    assert summary["change"] == {"all_correct": True, "attempted": 20, "failed": 2}
    assert summary["metrics"]["rounds_per_s"]["base"] == [100.0, 100.0]


def test_run_bench_reads_the_env_and_last_json_line(tmp_path):
    (tmp_path / "bench").mkdir()
    result = {"correct": True, "attempted": 4, "failed": 0,
              "metrics": {"rounds_per_s": {"value": 12.5, "unit": "1/s"}}}
    (tmp_path / "bench" / "run.py").write_text(
        "import sys\n"
        "assert sys.argv[1:] == ['--workload', 'w', '--seed', '3', '--seconds', '0.5',"
        " '--trace', '0']\n"
        f"print('env ' + {json.dumps(json.dumps({'python': '3'}))})\n"
        "print('rounds_per_s 12.5 1/s')\n"
        f"print({json.dumps(json.dumps(result))})\n")
    run = bench_pairs.run_bench(tmp_path, "w", 3, 0.5)
    assert run == {"correct": True, "attempted": 4, "failed": 0, "env": {"python": "3"},
                   "metrics": {"rounds_per_s": 12.5}}


def test_the_tool_imports_nothing_from_gathersim():
    imported = set()
    for node in ast.walk(ast.parse(TOOL.read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert not any(name.split(".")[0] == "gathersim" for name in imported)


def test_run_command_runs_the_tree_through_a_wrapper(tmp_path):
    package = tmp_path / "src" / "gathersim"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "__main__.py").write_text("import sys\nprint(' '.join(sys.argv[1:]))\n")
    run = bench_pairs.run_command(tmp_path, ["--trials", "3"])
    assert run["sha256"] == hashlib.sha256(b"--trials 3\n").hexdigest()
    assert run["wall_s"] > 0 and run["peak_rss_mb"] > 0
    (package / "__main__.py").write_text("raise SystemExit(2)\n")
    with pytest.raises(RuntimeError, match="exited with 2"):
        bench_pairs.run_command(tmp_path, [])


def test_command_pairs_whose_outputs_differ_fail():
    runs = []
    for pair, (base, change) in enumerate([(50.0, 40.0), (52.0, 41.0), (51.0, 42.0)]):
        for side, rss in (("base", base), ("change", change)):
            sha = "b" if side == "change" and pair == 1 else "a"
            runs.append({"command": "emln-192", "pair": pair, "side": side, "sha256": sha,
                         "wall_s": 2.0, "peak_rss_mb": rss})
    entry = bench_pairs.summarize_commands(runs, 0.05)["emln-192"]
    assert entry["argv"] == bench_pairs.COMMANDS["emln-192"]
    assert (entry["pairs"], entry["failed_pairs"], entry["bound"]) == (3, [1], 0.05)
    rss = entry["metrics"]["peak_rss_mb"]
    assert (rss["base_median"], rss["change_median"], rss["wins"]) == (51.0, 41.0, 3)
    assert rss["bound"] == 0.05 and rss["verdict"] == "within bound"  # three pairs: no gain
    assert entry["metrics"]["wall_s"]["wins"] == 0


@pytest.mark.parametrize("name", sorted(bench_pairs.COMMANDS))
def test_every_standard_command_parses(name):
    parse_config(bench_pairs.COMMANDS[name])  # raises on a bad flag or value
