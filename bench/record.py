"""Record the reference outputs of every workload into bench/expected.json.

Run it at the commit whose outputs are the reference (the benchmark then
fails any trial or deployment whose output differs from it):

    python3 bench/record.py

The pools below are the inputs a run's ``--seed`` draws from: CLI master
seeds for the lifetime workloads, deployment seeds for large-round1.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import EXPECTED, OUT, ROOT, WORKLOADS, WorkerError, spawn_worker

POOLS = {"emln-lifetime": range(1, 49), "baselines-lifetime": range(1, 49),
         "large-round1": range(1, 97)}


def record(name: str, spec: dict, seeds, out: Path = OUT) -> dict:
    """Run every seed once and return its expected-output entry."""
    job = {"root": str(ROOT), "workload": name, "spec": spec, "out": str(out),
           "trace": False, "probe": False, "seconds": None,
           "inputs": [[seed, dict.fromkeys(spec["groups"])] for seed in seeds]}
    worker, _ = spawn_worker(job, timeout=None)
    outputs: dict = {}
    for pass_ in worker["passes"]:
        for group in pass_["groups"]:
            if "error" in group:
                raise WorkerError(f"{name} seed {group['seed']}: {group['error']}")
            outputs.setdefault(str(group["seed"]), {})[group["group"]] = group["trials"]
    return {"argv": spec["argv"], "groups": spec["groups"], "outputs": outputs}


def main() -> int:
    recorded = {}
    for name, spec in WORKLOADS.items():
        print(f"recording {name} over {len(POOLS[name])} seeds", file=sys.stderr)
        recorded[name] = record(name, spec, POOLS[name])
    EXPECTED.write_text(json.dumps(recorded, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
