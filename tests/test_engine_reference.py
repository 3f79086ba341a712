"""The block engine against the per-round reference loop, byte for byte.

``run_trial`` debits baseline rounds in blocks and must give exactly the
``SimulationReport`` of the per-round loop in tests/reference_engine.py:
every field, arrays compared by dtype, shape and bytes, floats by their
bits (NaN included). The cases cover the four baselines under both stop
rules with ``max_rounds`` on both sides of a 64-attempt seed block, 30 to
130 nodes, blocks of 1 to 64 rounds, head probabilities up to 1, injected
nodes that are dead or start with no energy, and the tree protocol, whose
blocks hold one round.
"""

import dataclasses
import struct

import numpy as np
import pytest

import reference_engine as ref

from gathersim import FieldConfig, NodeState, SimConfig, SimulationReport, derive_seed, run_trial
from gathersim import engine

BASELINES = ("leach", "pegasis-tdma", "pegasis-cdma", "direct")
STOP_RULES = ("first-death", "energy-exhausted")


def assert_same_report(got: SimulationReport, want: SimulationReport):
    for field in dataclasses.fields(SimulationReport):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert type(a) is type(b), field.name
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, field.name
            assert a.tobytes() == b.tobytes(), field.name
        elif isinstance(a, float):
            assert struct.pack("<d", a) == struct.pack("<d", b), field.name
        else:
            assert a == b, field.name


def assert_same_trials(config: SimConfig, trials: int = 2):
    for trial in range(trials):
        seed = derive_seed(config.master_seed, trial)
        assert_same_report(run_trial(config, seed), ref.run_trial(config, seed))


@pytest.mark.parametrize("max_rounds", [1, 63, 64, 65, 130])
@pytest.mark.parametrize("stop_rule", STOP_RULES)
@pytest.mark.parametrize("protocol", BASELINES)
def test_baselines_match_the_per_round_loop(protocol, stop_rule, max_rounds):
    # at 0.1 J the first node dies after about 40 to 130 rounds
    config = SimConfig(field=FieldConfig(node_count=50), protocol=protocol,
                       initial_energy=0.1, max_rounds=max_rounds, stop_rule=stop_rule,
                       master_seed=max_rounds)
    assert_same_trials(config)


@pytest.mark.parametrize("nodes", [100, 130])
@pytest.mark.parametrize("protocol", BASELINES)
def test_baselines_match_the_per_round_loop_until_everyone_is_dead(protocol, nodes):
    # 130 nodes leave blocks of 7 rounds (BLOCK_ENTRIES = 1,024)
    config = SimConfig(field=FieldConfig(node_count=nodes), protocol=protocol,
                       initial_energy=0.05, stop_rule="energy-exhausted", master_seed=7)
    assert_same_trials(config, trials=1)


@pytest.mark.parametrize("leach_p", [0.1, 0.3, 1.0])
@pytest.mark.parametrize("stop_rule", STOP_RULES)
def test_leach_head_probabilities_match_the_per_round_loop(leach_p, stop_rule):
    config = SimConfig(field=FieldConfig(node_count=50), protocol="leach", leach_p=leach_p,
                       initial_energy=0.1, stop_rule=stop_rule, max_rounds=300)
    assert_same_trials(config)


@pytest.mark.parametrize("stop_rule", STOP_RULES)
@pytest.mark.parametrize("protocol", BASELINES)
def test_injected_dead_and_empty_nodes_match_the_per_round_loop(protocol, stop_rule):
    rng = np.random.default_rng(17)
    states = tuple(
        NodeState(i, (float(x), float(y)), 0.0 if i % 11 == 3 else float(e), bool(i % 7))
        for i, (x, y, e) in enumerate(zip(rng.random(40) * 100, rng.random(40) * 100,
                                          0.02 + 0.1 * rng.random(40))))
    config = SimConfig(field=FieldConfig(node_count=40), protocol=protocol,
                       nodes_override=states, stop_rule=stop_rule, max_rounds=200)
    assert_same_trials(config)


@pytest.mark.parametrize("stop_rule", STOP_RULES)
@pytest.mark.parametrize("rebuild_period", [1, 3])
def test_tree_rounds_match_the_per_round_loop(rebuild_period, stop_rule):
    config = SimConfig(field=FieldConfig(width=40.0, height=40.0, node_count=20,
                                         sink_position=(20.0, 120.0)),
                       range_m=18.0, initial_energy=0.02, rebuild_period=rebuild_period,
                       stop_rule=stop_rule)
    assert_same_trials(config)


@pytest.mark.parametrize("block_rounds", [1, 64])
@pytest.mark.parametrize("protocol", BASELINES)
def test_block_sizes_match_the_per_round_loop(protocol, block_rounds, monkeypatch):
    monkeypatch.setattr(engine, "BLOCK_ROUNDS", block_rounds)
    monkeypatch.setattr(engine, "BLOCK_ENTRIES", 1 << 20)
    config = SimConfig(field=FieldConfig(node_count=30), protocol=protocol,
                       initial_energy=0.05, stop_rule="energy-exhausted", max_rounds=150)
    assert_same_trials(config, trials=1)
