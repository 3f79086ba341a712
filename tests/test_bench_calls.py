"""The benchmark's workloads, run through the calls bench/worker.py makes.

bench/worker.py looks gathersim's functions up by name and hands what one
returns to the next (the chain to the PEGASIS rounds, the LEACH election to
its round). A reshaped return value breaks its ``large-round1`` workload,
which only a full benchmark run would otherwise notice. This runs that
workload's survey for three seeds, reading bench/ without changing it, and
hashes each result as the worker's ``Runner._round1`` does, against the
hashes recorded in bench/expected.json.

The lifetime workloads run one ``gathersim ... --per-round`` call per
protocol and seed, as ``Runner._lifetime`` does; each trial's rows are
hashed with the worker's ``split_trials``. Two recorded seeds of
``emln-lifetime`` and ``baselines-lifetime`` catch a round loop whose output
drifts before a benchmark run does.
"""

import hashlib
import importlib
import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def worker():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCH))
        module = importlib.import_module("worker")
        yield module, module.load_api(BENCH.parent)


@pytest.fixture(scope="module")
def recorded():
    return json.loads((BENCH / "expected.json").read_text())


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_large_round1_survey_matches_the_recorded_hashes(worker, recorded, seed):
    module, api = worker
    expected = recorded["large-round1"]
    text, ledgers = module.survey(api, expected["argv"], seed)
    digest = hashlib.sha256(text.encode())
    for ledger in ledgers:
        digest.update(ledger.per_node.tobytes())
    got = [[digest.hexdigest(), text.count("\n") - 1]]
    assert got == expected["outputs"][str(seed)]["survey"]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", ["emln-lifetime", "baselines-lifetime"])
def test_lifetime_calls_match_the_recorded_hashes(worker, recorded, workload, seed, tmp_path):
    module, api = worker
    expected = recorded[workload]
    for protocol, trials in expected["outputs"][str(seed)].items():
        out = tmp_path / f"{protocol}.csv"
        argv = expected["argv"] + ["--protocol", protocol, "--per-round", "--seed", str(seed),
                                   "--out", str(out)]
        assert api.main(argv) == 0
        assert module.split_trials(out.read_bytes(), len(trials)) == trials, protocol
