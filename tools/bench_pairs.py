#!/usr/bin/env python3
"""Run the benchmark in pairs, base revision against the working tree, and judge each metric.

    python3 tools/bench_pairs.py --base HEAD~1 --out BENCH_29.json \\
        --workload large-round1 --pairs 10 --seconds 10 --seed 2901

The base revision is exported (``git archive``) into a temporary directory,
removed at the end; an interrupted run leaves nothing behind in the
repository. The script stops if ``bench/`` or ``BENCHMARK.json`` differ
between the two trees, because then the two sides would not run the same
benchmark. For each workload it runs ``python3 bench/run.py --workload W
--seed S --seconds X --trace 0`` once in each tree per pair, seeds S, S + 1,
..., the base first in even pairs and the change first in odd ones, and
reads each run's ``env`` line and last JSON line.

The output file holds every run, and per workload and end-to-end metric:
the per-pair values, both sides' medians and quartiles, the ratio of the
medians, the pairs the change won (ties count for neither side), and a
verdict against the bound ``BENCHMARK.json`` gives that metric, with no
bound of its own. It imports nothing from gathersim, so it runs any
revision's benchmark.

With ``--command NAME`` (repeatable) it runs, instead, entries of
``COMMANDS``: ``python3 -m gathersim ARGS`` in each tree, in alternating
pairs as above, each run in a fresh wrapper process that records its wall
time, the peak RSS of the command (``RUSAGE_CHILDREN``) and the sha256 of
its output. A pair whose two outputs differ counts as failed. The summary
goes under ``commands``, each metric judged against ``--bound``, which is
written next to its verdict. An existing ``--out`` file keeps its other
keys, so that one file can hold both modes.

    python3 tools/bench_pairs.py --base HEAD~1 --out BENCH_31.json \\
        --command emln-192 --command sweep-48 --pairs 3 --bound 0.05
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAME = ("bench", "BENCHMARK.json")  # must be identical in both trees
# the standard commands (--command NAME): arguments of ``python3 -m gathersim``
COMMANDS = {
    "emln-192": ["--trials", "192"],
    "sweep-48": ["--sweep", "15,20,25,30,35,40,45,50", "--trials", "48"],
    "aggregate-48": ["--trials", "48"],
    "per-round-48": ["--trials", "48", "--per-round"],
    "rebuild-3": ["--rebuild-period", "3", "--trials", "48", "--per-round"],
    "exhausted-emln": ["--stop-rule", "energy-exhausted", "--initial-energy", "0.03",
                       "--per-round"],
    "grid-3x24": ["--sweep", "20,25,30", "--trials", "24"],
}
COMMAND_METRICS = {"wall_s": "lower", "peak_rss_mb": "lower"}
# one run of a command in a fresh process: argv[1:] is the command line
WRAPPER = """import hashlib, json, resource, subprocess, sys, time
start = time.perf_counter()
proc = subprocess.run(sys.argv[1:], stdout=subprocess.PIPE)
print(json.dumps({"returncode": proc.returncode, "wall_s": time.perf_counter() - start,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
                  "sha256": hashlib.sha256(proc.stdout).hexdigest()}))
"""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), with the inclusive method; one value gives itself three times."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def judge(base: list[float], change: list[float], better: str, bound: float) -> dict:
    """Compare one metric's paired runs; ``better`` is "higher" or "lower".

    ``worse_frac`` is how much worse the change's median is than the base's,
    as a fraction of the base's (negative when better). The verdict is:
    "regressed" when that exceeds ``bound``; "gain" when there are at least
    ten pairs, the change wins at least nine in ten and its median is better
    by more than the base's interquartile range; "unresolved" when the base's own interquartile
    range exceeds ``bound`` of its median and not every change run beats
    every base run; otherwise "within bound".
    """
    sign = 1.0 if better == "higher" else -1.0
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    losses = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    worse_frac = sign * (bmed - cmed) / bmed if bmed else 0.0
    iqr = bq3 - bq1
    every_run_better = min(sign * c for c in change) > max(sign * b for b in base)
    if worse_frac > bound:
        verdict = "regressed"
    elif len(base) >= 10 and wins * 10 >= 9 * len(base) and sign * (cmed - bmed) > iqr:
        verdict = "gain"
    elif iqr > bound * abs(bmed) and not every_run_better:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"base": base, "change": change, "base_median": bmed, "base_q1": bq1,
            "base_q3": bq3, "base_iqr": iqr, "change_median": cmed, "change_q1": cq1,
            "change_q3": cq3, "ratio": cmed / bmed if bmed else None, "wins": wins,
            "losses": losses, "pairs": len(base), "better": better, "bound": bound,
            "worse_frac": worse_frac, "verdict": verdict}


def summarize(runs: list[dict], declared: dict) -> dict:
    """Per workload: correctness and each end-to-end metric judged over its pairs.

    ``runs`` are records with "workload", "pair", "side" ("base" or
    "change"), "correct", "attempted", "failed" and "metrics" ({name: value});
    ``declared`` is BENCHMARK.json. A pair counts only when both sides ran.
    """
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        sides: dict = {"base": {}, "change": {}}
        for run in runs:
            if run["workload"] == workload:
                sides[run["side"]][run["pair"]] = run
        pairs = sorted(sides["base"].keys() & sides["change"].keys())
        entry: dict = {"pairs": len(pairs)}
        for side, by_pair in sides.items():
            chosen = [by_pair[p] for p in pairs]
            entry[side] = {"all_correct": all(r["correct"] for r in chosen),
                           "attempted": sum(r["attempted"] for r in chosen),
                           "failed": sum(r["failed"] for r in chosen)}
        entry["metrics"] = {
            m["name"]: judge([sides["base"][p]["metrics"][m["name"]] for p in pairs],
                             [sides["change"][p]["metrics"][m["name"]] for p in pairs],
                             m["better"], m["bound"])
            for m in declared["end_to_end"]} if pairs else {}
        summary[workload] = entry
    return summary


def summarize_commands(runs: list[dict], bound: float) -> dict:
    """Per command: the pairs, the failed pairs (outputs differ) and each metric judged.

    ``runs`` are records with "command", "pair", "side", "sha256" and each
    metric of ``COMMAND_METRICS``; a pair counts only when both sides ran.
    """
    summary = {}
    for command in dict.fromkeys(run["command"] for run in runs):
        sides: dict = {"base": {}, "change": {}}
        for run in runs:
            if run["command"] == command:
                sides[run["side"]][run["pair"]] = run
        pairs = sorted(sides["base"].keys() & sides["change"].keys())
        failed = [p for p in pairs if sides["base"][p]["sha256"] != sides["change"][p]["sha256"]]
        summary[command] = {"argv": COMMANDS.get(command), "pairs": len(pairs),
                            "failed_pairs": failed, "bound": bound, "metrics": {
            name: judge([sides["base"][p][name] for p in pairs],
                        [sides["change"][p][name] for p in pairs], better, bound)
            for name, better in COMMAND_METRICS.items()} if pairs else {}}
    return summary


def run_command(tree: Path, args: list[str]) -> dict:
    """One ``python3 -m gathersim ARGS`` run in ``tree``, through a fresh ``WRAPPER`` process."""
    proc = subprocess.run([sys.executable, "-c", WRAPPER, sys.executable, "-m", "gathersim",
                           *args], cwd=tree, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(tree / "src")})
    result = json.loads(proc.stdout) if proc.returncode == 0 else {"returncode": proc.returncode}
    if result["returncode"] != 0:
        raise RuntimeError(f"gathersim {' '.join(args)} in {tree} exited with "
                           f"{result['returncode']}:\n{proc.stderr.strip()}")
    return {name: result[name] for name in ("wall_s", "peak_rss_mb", "sha256")}


def git(*args: str, binary: bool = False):
    out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout
    return out if binary else out.decode().strip()


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py --trace 0`` run in ``tree``: its env record and JSON result."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed",
                           str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"bench/run.py in {tree} exited with {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "env": env,
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the revision to compare against")
    parser.add_argument("--out", required=True, type=Path, help="the JSON file to write")
    parser.add_argument("--workload", action="append",
                        help="repeat for several; default every workload of BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=1, help="the first pair's seed")
    parser.add_argument("--command", action="append", choices=COMMANDS,
                        help="run these standard commands instead of the benchmark")
    parser.add_argument("--bound", type=float, default=0.05,
                        help="the bound each command metric is judged against")
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in declared["workloads"]]
    base_sha = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    if git("diff", "--name-only", base_sha, "--", *SAME) or git(
            "ls-files", "--others", "--exclude-standard", "--", *SAME):
        print(f"bench_pairs: {', '.join(SAME)} differ from {args.base}; the two sides "
              "would not run the same benchmark", file=sys.stderr)
        return 2
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record.update({"base": base_sha, "change": git("rev-parse", "HEAD"),
                   "change_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
                   "order": "base first in even pairs, change first in odd pairs"})
    if args.command:
        record.update(command_pairs=args.pairs, command_runs=[])
    else:
        record.update({"command": "python3 bench/run.py --workload W --seed S --seconds X "
                       "--trace 0", "seconds": args.seconds, "pairs": args.pairs,
                       "first_seed": args.seed, "runs": []})
    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        with tarfile.open(fileobj=io.BytesIO(git("archive", base_sha, binary=True))) as tar:
            tar.extractall(scratch, filter="data")
        trees = {"base": scratch, "change": ROOT}
        for command in args.command or ():
            for pair in range(args.pairs):
                order = ("base", "change") if pair % 2 == 0 else ("change", "base")
                for side in order:
                    run = run_command(trees[side], COMMANDS[command])
                    record["command_runs"].append(dict(run, command=command, pair=pair,
                                                       side=side))
                    print(f"{command} pair {pair} {side}: {run['wall_s']:.2f} s, "
                          f"{run['peak_rss_mb']:.1f} MB", flush=True)
        for workload in [] if args.command else workloads:
            for pair in range(args.pairs):
                seed = args.seed + pair
                order = ("base", "change") if pair % 2 == 0 else ("change", "base")
                for side in order:
                    run = run_bench(trees[side], workload, seed, args.seconds)
                    record["runs"].append(dict(run, workload=workload, pair=pair, seed=seed,
                                               side=side, first=side == order[0]))
                    print(f"{workload} pair {pair} seed {seed} {side}: correct "
                          f"{run['correct']}, rounds_per_s {run['metrics']['rounds_per_s']:.1f}",
                          flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if args.command:
        record["commands"] = summarize_commands(record["command_runs"], args.bound)
    else:
        record["summary"] = summarize(record["runs"], declared)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for command, entry in record.get("commands", {}).items() if args.command else ():
        for name, m in entry["metrics"].items():
            print(f"{command} {name}: {m['base_median']:.6g} -> {m['change_median']:.6g}, "
                  f"{len(entry['failed_pairs'])} failed pairs, {m['verdict']}")
    for workload, entry in record["summary"].items() if not args.command else ():
        for name, m in entry["metrics"].items():
            print(f"{workload} {name}: {m['base_median']:.6g} -> {m['change_median']:.6g} "
                  f"(base IQR {m['base_iqr']:.3g}), {m['wins']}/{m['pairs']} better, "
                  f"{m['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
