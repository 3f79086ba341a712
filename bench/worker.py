"""Benchmark worker: runs one workload's passes in a fresh process.

Reads a job (JSON) on stdin and prints one JSON result on stdout. The job
names the checkout root; gathersim is imported from ``<root>/src`` and from
nowhere else, so a directory without the sources fails here. The moment
just before the first workload call is reported as ``ready`` (a
``perf_counter`` reading, which on Linux is CLOCK_MONOTONIC and so comparable
with the parent's clock); a probe job stops there.

A pass runs every input of the job once: per seed, one ``gathersim ...
--per-round`` call per protocol (lifetime workloads) or one round-1 survey
(``large-round1``). Its wall time counts only the calls into gathersim; the
benchmark's own checks (reading the output back, hashing) run outside it.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from spans import Tracer

# where the engine and the CLI look up the layers they call
ENGINE_HOOKS = ("deploy", "build_graph", "construct_tree", "compute_delay",
                "tree_round_energy", "build_chain", "leach_elect", "leach_round",
                "pegasis_tdma_round", "pegasis_cdma_round", "direct_round",
                "derive_seed", "run_trial")
CLI_HOOKS = ("parse_config", "render")
# and the calls the benchmark makes through its own API namespace
API_HOOKS = ("parse_config", "render", "deploy", "build_graph", "is_connected",
                "construct_tree", "compute_delay", "tree_round_energy", "build_chain",
                "leach_elect", "leach_round", "pegasis_tdma_round",
                "pegasis_cdma_round", "direct_round", "derive_seed")
CAL_LOOPS = 1000
CAL_STREAM_PASSES = 10
_CAL_DATA = np.random.default_rng(0).random(100)
_CAL_IDS = np.arange(100)
ROUND1_COLUMNS = ("protocol", "connected", "energy_j", "delay_slots", "intermediates",
                  "leaves", "height")


def load_api(root: Path) -> SimpleNamespace:
    """Import gathersim from ``root/src`` and collect the calls the benchmark makes."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import gathersim
    if Path(gathersim.__file__).resolve().parent.parent != src:
        raise ImportError(f"gathersim imported from {gathersim.__file__}, not {src}")
    from gathersim import baselines, cli, emln, engine, network, radio, seeding
    return SimpleNamespace(
        main=cli.main, parse_config=cli.parse_config, render=cli.render,
        deploy=network.deploy, build_graph=network.build_graph,
        is_connected=network.is_connected, positions_of=network.positions_of,
        alive_of=network.alive_of, energies_of=network.energies_of,
        construct_tree=emln.construct_tree,
        compute_delay=emln.compute_delay, tree_round_energy=radio.tree_round_energy,
        build_chain=baselines.build_chain, leach_elect=baselines.leach_elect,
        leach_round=baselines.leach_round,
        pegasis_tdma_round=baselines.pegasis_tdma_round,
        pegasis_cdma_round=baselines.pegasis_cdma_round,
        direct_round=baselines.direct_round, derive_seed=seeding.derive_seed,
        engine=engine, cli=cli, numpy_version=np.__version__)



class Calibration:
    """Times a fixed reference loop; host contention slows it like the workload.

    The interpreter loop mixes small numpy calls with interpreter work, like
    the simulator's per-round loops. With ``streaming`` its time is combined
    (geometric mean) with in-place passes over a 4 MB buffer, which load
    memory like the large-array passes of a 2,000-node deployment. The
    collector is off meanwhile, so that the program's heap cannot slow it.
    """

    def __init__(self, streaming: bool):
        self.buffer = np.random.default_rng(0).random(500_000) if streaming else None

    def __call__(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            for _ in range(CAL_LOOPS):
                picked = _CAL_IDS[_CAL_DATA > 0.5]
                _CAL_DATA[picked].argmax()
                np.flatnonzero(_CAL_DATA > 0.3)
                sum(range(20))
            seconds = perf_counter() - t0
            if self.buffer is not None:
                t0 = perf_counter()
                for _ in range(CAL_STREAM_PASSES):
                    np.multiply(self.buffer, 1.0, out=self.buffer)
                    self.buffer.sum()
                seconds = (seconds * (perf_counter() - t0)) ** 0.5
            return seconds
        finally:
            if enabled:
                gc.enable()


def split_trials(data: bytes, trials: int) -> list[list]:
    """Per-trial ``[sha256, rounds]`` of a per-round CSV (header included in each)."""
    header, _, body = data.partition(b"\n")
    chunks: list[list[bytes]] = [[] for _ in range(trials)]
    for line in body.splitlines(keepends=True):
        chunks[int(line[:line.index(b",")])].append(line)
    return [[hashlib.sha256(header + b"\n" + b"".join(c)).hexdigest(), len(c)]
            for c in chunks]


def survey(api, argv: list[str], seed: int):
    """Round 1 of every protocol on one seeded deployment.

    Returns the CLI-rendered dump of round-1 energies, delays and tree sizes
    plus the per-node debits, which the caller hashes.
    """
    config, _, _ = api.parse_config(argv)
    field, radio = config.field, config.radio
    sink = field.sink_position
    nodes = api.deploy(field, api.derive_seed(seed, 0), config.initial_energy)
    graph = api.build_graph(nodes, config.range_m)
    connected = api.is_connected(graph)
    positions, alive = api.positions_of(nodes), api.alive_of(nodes)
    round_seed = api.derive_seed(seed, 1)

    rows, ledgers = [], []
    tree = api.construct_tree(graph, api.energies_of(nodes), tie_seed=round_seed)
    if tree is not None:
        ledger = api.tree_round_energy(tree, positions, sink, radio)
        rows.append(["emln", connected, ledger.total, api.compute_delay(tree),
                     len(tree.intermediate_set), len(tree.leaf_set), tree.height])
        ledgers.append(ledger)
    assignment, _ = api.leach_elect(positions, alive, 0, config.leach_p, round_seed)
    chain = api.build_chain(positions, sink, alive)
    for name, (ledger, delay) in (
            ("leach", api.leach_round(assignment, positions, sink, radio)),
            ("pegasis-tdma", api.pegasis_tdma_round(chain, alive, round_seed, positions,
                                                    sink, radio)),
            ("pegasis-cdma", api.pegasis_cdma_round(chain, alive, round_seed, positions,
                                                    sink, radio)),
            ("direct", api.direct_round(alive, positions, sink, radio))):
        rows.append([name, connected, ledger.total, delay, None, None, None])
        ledgers.append(ledger)
    return api.render(rows, ROUND1_COLUMNS, "csv"), ledgers


class Runner:
    def __init__(self, api, job: dict, calibrate: Calibration, tracer: Tracer | None):
        self.api = api
        self.spec = job["spec"]
        self.out_csv = Path(job["out"]) / f"{job['workload']}-output.csv"
        self.calibrate = calibrate
        self.tracer = tracer
        self._cal = None

    def _call(self, fn, *args):
        """One operation, timed; inside a root span when traced."""
        if self.tracer is not None:
            fn = self.tracer.wrap(fn, "bench.op")
        t0 = perf_counter()
        result = fn(*args)
        return perf_counter() - t0, result

    def _lifetime(self, seed: int, protocol: str, trials: int):
        argv = self.spec["argv"] + ["--protocol", protocol, "--per-round",
                                    "--seed", str(seed), "--out", str(self.out_csv)]
        wall, code = self._call(self.api.main, argv)
        if code != 0:
            raise RuntimeError(f"gathersim exited with {code}")
        if trials is None:  # recording: take the count the CLI resolved
            trials = self.api.parse_config(argv)[0].trials
        return wall, split_trials(self.out_csv.read_bytes(), trials)

    def _round1(self, seed: int):
        wall, (text, ledgers) = self._call(survey, self.api, self.spec["argv"], seed)
        digest = hashlib.sha256(text.encode())
        for ledger in ledgers:
            digest.update(ledger.per_node.tobytes())
        return wall, [[digest.hexdigest(), text.count("\n") - 1]]

    def run_pass(self, inputs: list) -> dict:
        """Run each (seed, {group: trials}) input; one error fails only its group.

        Each call records its wall time and ``cal``, the mean of the
        calibration times just before and just after it.
        """
        wall, groups = 0.0, []
        for seed, group_trials in inputs:
            for group, trials in group_trials.items():
                entry = {"seed": seed, "group": group}
                before = self._cal if self._cal is not None else self.calibrate()
                try:
                    if self.spec["kind"] == "lifetime":
                        entry["wall"], entry["trials"] = self._lifetime(seed, group, trials)
                    else:
                        entry["wall"], entry["trials"] = self._round1(seed)
                    wall += entry["wall"]
                except Exception:
                    entry["error"] = traceback.format_exc(limit=3)
                self._cal = self.calibrate()
                entry["cal"] = (before + self._cal) / 2
                groups.append(entry)
        return {"wall": wall, "groups": groups}


def run_passes(api, job: dict) -> dict:
    """Repeat the pass over ``inputs`` until the next would overrun ``seconds``.

    It runs at least once; with ``seconds`` null it runs exactly once (used
    to record the expected outputs). A traced job runs each repeat untraced
    and then traced, so the pair gives the tracing overhead.
    """
    calibrate = Calibration(job["spec"]["streaming"])
    tracer = Tracer() if job["trace"] else None
    plain = Runner(api, job, calibrate, None)
    traced = Runner(api, job, calibrate, tracer)
    hooks = [(api.engine, ENGINE_HOOKS), (api.cli, CLI_HOOKS), (api, API_HOOKS)]
    passes, start, longest = [], perf_counter(), 0.0
    while not passes or (job["seconds"] is not None
                         and perf_counter() - start + longest <= job["seconds"]):
        t0 = perf_counter()
        record = plain.run_pass(job["inputs"])
        if tracer is not None:
            for target, attrs in hooks:
                tracer.install(target, attrs)
            try:
                record["traced"] = traced.run_pass(job["inputs"])
            finally:
                tracer.uninstall()
        passes.append(record)
        longest = max(longest, perf_counter() - t0)
    result = {"passes": passes}
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["counts"] = {"trees": tracer.trees, "intermediates": tracer.intermediates,
                            "render_calls": tracer.render_calls,
                            "render_bytes": tracer.render_bytes}
        tracer.dump(Path(job["out"]) / f"trace-{job['workload']}.csv")
    return result


def main() -> int:
    job = json.load(sys.stdin)
    api = load_api(Path(job["root"]))
    ready = perf_counter()
    if job["probe"]:
        result = {}
    else:
        Path(job["out"]).mkdir(parents=True, exist_ok=True)
        result = run_passes(api, job)
    result.update(ready=ready, numpy=api.numpy_version,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
