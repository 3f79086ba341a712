"""gathersim benchmark: run one workload, check its output, print its metrics.

    python3 bench/run.py --workload emln-lifetime --seed 1 --seconds 30 --trace 0

Probe processes first time set-up alone. Then one worker process
(bench/worker.py), which imports gathersim from ./src, repeats a pass until
the next one would overrun ``--seconds``; ``--seed`` picks the pass's inputs
from the workload's recorded pool (bench/expected.json). Every trial or
deployment is checked byte for byte against the output recorded at the seed
commit, and each call is timed between two runs of a calibration loop.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
each pass also runs traced and the per-layer metrics are printed instead.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics. See bench/README.md for how to read them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
EXPECTED = BENCH / "expected.json"
PROBES = 9
# Seconds the worker's calibration loop (bench/worker.py) takes on an idle core
# of the reference host (2-core x86-64 VM, Python 3.11, numpy 2.4). Times are
# reported in reference seconds: measured seconds x CAL_REF_S / the calibration
# time measured around the same call, which cancels most host contention.
CAL_REF_S = 0.0046
PROBE_TIMEOUT_S = 30
WORKER_TIMEOUT_S = 150

BASELINES = ["leach", "pegasis-tdma", "pegasis-cdma", "direct"]
# The lifetime workloads keep the CLI defaults (100 nodes, 100 x 100 m, range 25 m,
# 10 trials, first death) but for a smaller battery, so that one call takes well
# under a second: contention on a shared host comes in bursts, and only short
# calls let the calibration around each call track the contention it met.
WORKLOADS = {
    "emln-lifetime": {"kind": "lifetime", "groups": ["emln"], "per_pass": 4,
                      "streaming": False,
                      "argv": ["--initial-energy", "0.03"]},
    "baselines-lifetime": {"kind": "lifetime", "groups": BASELINES, "per_pass": 2,
                           "streaming": False,
                           "argv": ["--initial-energy", "0.1"]},
    # default density at 2,000 nodes; sink 200 m beyond the top edge's centre
    "large-round1": {"kind": "round1", "groups": ["survey"], "per_pass": 3,
                     "streaming": True,
                     "argv": ["--nodes", "2000", "--width", "447.2", "--height", "447.2",
                              "--sink-x", "223.6", "--sink-y", "647.2", "--range", "25"]},
}

LAYERS = ("network.deploy", "network.build_graph", "network.is_connected",
          "emln.construct_tree", "emln.compute_delay", "radio.tree_round_energy",
          "baselines.build_chain", "baselines.leach_elect", "baselines.leach_round",
          "baselines.pegasis_tdma_round", "baselines.pegasis_cdma_round",
          "baselines.direct_round", "engine.run_trial", "cli.parse_config", "cli.render")


class WorkerError(Exception):
    pass


def spawn_worker(job: dict, timeout: float) -> tuple[dict, float]:
    """Run one worker on ``job``; return its result and its set-up time."""
    t_spawn = perf_counter()
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py")], input=json.dumps(job),
                          capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["ready"] - t_spawn


def order_inputs(table: dict, seed: int) -> list:
    """The workload's recorded inputs in the order ``seed`` gives them."""
    keys = sorted(table, key=int)
    random.Random(seed).shuffle(keys)
    return [[int(k), {group: len(trials) for group, trials in table[k].items()}]
            for k in keys]


def check_group(group: dict, table: dict) -> tuple[int, int, int]:
    """(attempted, failed, rounds) of one call against the recorded outputs."""
    want = table[str(group["seed"])][group["group"]]
    got = group.get("trials")
    if got is None or len(got) != len(want):
        return len(want), len(want), 0
    failed = sum(list(w) != list(g) for w, g in zip(want, got))
    return len(want), failed, sum(g[1] for g in got)


def typical_calls(passes: list, table: dict) -> tuple[int, int, float, int]:
    """Check every call; return (attempted, failed, wall, rounds) of a typical pass.

    ``wall`` sums, over the pass's calls, the median over repeats of each
    call's time in reference seconds (fully verified repeats only), and
    ``rounds`` the rounds those calls completed.
    """
    attempted = failed = 0
    times: dict = {}
    rounds: dict = {}
    for record in passes:
        for group in record["groups"]:
            a, f, done = check_group(group, table)
            attempted, failed = attempted + a, failed + f
            if f == 0:
                key = (group["seed"], group["group"])
                times.setdefault(key, []).append(group["wall"] * CAL_REF_S / group["cal"])
                rounds[key] = done
    wall = sum(statistics.median(t) for t in times.values())
    return attempted, failed, wall, sum(rounds.values())


def layer_metrics(worker: dict, traced: list, overhead: float) -> dict:
    """Per-layer metrics of a traced run; shares are of the total traced time."""
    layers, counts = worker["layers"], worker["counts"]
    traced_wall = sum(record["wall"] for record in traced)
    metrics = {}
    for name in LAYERS:
        calls, self_s = layers.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = self_s
        metrics[f"{name}.us_per_call"] = self_s / calls * 1e6 if calls else 0.0
        metrics[f"{name}.share"] = self_s / traced_wall
    metrics["seeding.derive_seed.calls"] = layers.get("seeding.derive_seed", (0,))[0]
    trees = counts["trees"]
    metrics["emln.promotions_per_tree"] = counts["intermediates"] / trees if trees else 0.0
    trials = metrics["engine.run_trial.calls"] or sum(len(r["groups"]) for r in traced)
    metrics["engine.graph_builds_per_trial"] = metrics["network.build_graph.calls"] / trials
    renders = counts["render_calls"]
    metrics["cli.bytes_out"] = counts["render_bytes"] / renders if renders else 0.0
    metrics["trace_overhead_frac"] = overhead
    return metrics


def run_workload(name: str, spec: dict, table: dict, seed: int, seconds: float,
                 trace: bool, out: Path = OUT, probes: int = PROBES) -> dict:
    """One benchmark run; raises WorkerError if a worker process fails.

    The pass is the first ``per_pass`` inputs in the order ``seed`` gives
    them. Probe processes time set-up; then the worker repeats the pass, and
    each call's median time over the repeats, in reference seconds, gives the
    timings.
    """
    base = {"root": str(ROOT), "workload": name, "spec": spec, "out": str(out),
            "trace": trace, "probe": False}
    setups = []
    for job in [dict(base, probe=True, inputs=[])] * probes + [
            dict(base, inputs=order_inputs(table, seed)[:spec["per_pass"]], seconds=seconds)]:
        worker, setup = spawn_worker(job, PROBE_TIMEOUT_S if job["probe"] else WORKER_TIMEOUT_S)
        setups.append(setup)

    passes = worker["passes"]
    attempted, failed, wall, rounds = typical_calls(passes, table)
    if trace:
        traced = [record["traced"] for record in passes]
        a, f, traced_wall, _ = typical_calls(traced, table)
        attempted, failed = attempted + a, failed + f
        metrics = layer_metrics(worker, traced, traced_wall / wall - 1 if wall else 0.0)
    else:
        metrics = {"rounds_per_s": rounds / wall if wall else 0.0, "wall_s": wall,
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": worker["peak_rss_mb"]}
    cals = [group["cal"] for record in passes for group in record["groups"]]
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "passes": len(passes), "setups": setups,
            "host_slowdown": statistics.median(cals) / CAL_REF_S, "numpy": worker["numpy"]}


def environment(numpy_version: str) -> dict:
    """Versions, cores, git state and the size of src/ for the run record."""
    env = {"python": platform.python_version(), "numpy": numpy_version,
           "nproc": os.cpu_count(), "git_sha": None, "git_dirty": None,
           "src_lines": sum(len(p.read_bytes().splitlines())
                            for p in sorted((ROOT / "src").rglob("*.py")))}
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                                  timeout=30).stdout.strip()
        env["git_sha"] = git("rev-parse", "HEAD") or None
        env["git_dirty"] = bool(git("status", "--porcelain", "--untracked-files=no"))
    return env


def load_expected(path: Path = EXPECTED) -> dict:
    """Recorded outputs per workload; refuses a record made for other inputs."""
    recorded = json.loads(path.read_text())
    for name, spec in WORKLOADS.items():
        entry = recorded[name]
        if entry["argv"] != spec["argv"] or entry["groups"] != spec["groups"]:
            raise ValueError(f"{path}: {name} was recorded for other inputs")
    return {name: recorded[name]["outputs"] for name in WORKLOADS}


def emit(workload: str, result: dict, wanted: list) -> None:
    """Print the declared metrics with their units; the last line is the JSON result."""
    print(f"workload {workload}: {result['passes']} passes, {result['attempted']} "
          f"operations, {result['failed']} failed "
          f"(failed_frac {result['failed'] / result['attempted']}), host slowdown "
          f"{result['host_slowdown']:.2f}")
    metrics = {}
    for m in wanted:
        value = result["metrics"][m["name"]]
        print(f"{m['name']} {value} {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gathersim").is_dir():
        print(f"bench: no gathersim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    try:
        table = load_expected()[args.workload]
        result = run_workload(args.workload, WORKLOADS[args.workload], table, args.seed,
                              args.seconds, bool(args.trace))
    except (WorkerError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        print(f"bench: metrics not measured: {missing}", file=sys.stderr)
        return 1

    env = environment(result["numpy"])
    OUT.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=env)
    (OUT / f"run-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print("env " + json.dumps(env))
    emit(args.workload, result, wanted)
    return 0


if __name__ == "__main__":
    sys.exit(main())
