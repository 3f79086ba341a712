"""The block engine against the per-round reference loop, byte for byte.

``run_trial`` debits baseline rounds in blocks and must give exactly the
``SimulationReport`` of the per-round loop in tests/reference_engine.py:
every field, arrays compared by dtype, shape and bytes, floats by their
bits (NaN included). The cases cover the four baselines under both stop
rules with ``max_rounds`` on both sides of a 64-attempt seed block, 30 to
130 nodes, blocks of 1 to 64 rounds, head probabilities up to 1, injected
nodes that are dead or start with no energy, and the tree protocol, whose
blocks hold one round. EMLN experiments of 1 to 12 trials cover trees grown
in lockstep by groups of 1 to 5 trials, and a long one covers delays and
leaf counts folded over queues of many steps' trees. A derandomized
``hypothesis`` test draws further configurations, checks
``run_experiment``'s reports too, and asserts invariants that need no
reference.
"""

import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_engine as ref

from gathersim import (PROTOCOLS, FieldConfig, NodeState, SimConfig, SimulationReport,
                       derive_seed, run_experiment, run_trial)
from gathersim import engine
from gathersim.emln import compute_delays

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


TREE_CONFIG = SimConfig(field=FieldConfig(width=40.0, height=40.0, node_count=20,
                                          sink_position=(20.0, 120.0)),
                        range_m=18.0, initial_energy=0.02)


@pytest.mark.parametrize("stop_rule", STOP_RULES)
@pytest.mark.parametrize("rebuild_period", [1, 3])
@pytest.mark.parametrize("trials", [1, 2, 3, 4, 12])
def test_lockstep_tree_experiments_match_the_per_round_loop(trials, rebuild_period, stop_rule,
                                                            monkeypatch):
    # groups of at most 5 trials: 12 trials run as three groups of 5, 5 and 2;
    # every group grows its trees in lockstep, 1 to 5 at a step as trials end
    monkeypatch.setattr(engine, "LOCKSTEP_ENTRIES", 5 * 20)
    config = dataclasses.replace(TREE_CONFIG, trials=trials, rebuild_period=rebuild_period,
                                 stop_rule=stop_rule, master_seed=trials)
    reports = run_experiment(config, keep_reports=True).reports
    for trial, got in enumerate(reports):
        assert_same_report(got, ref.run_trial(config, derive_seed(config.master_seed, trial)))


def test_tree_rounds_folded_in_batches_match_the_per_round_loop(monkeypatch):
    # two trials of about 2,000 rounds, a tree every third round: their trees
    # fill the queue three times before the last fold, and trees still in use
    # and the abandoned rounds of the many deaths meet the folds
    folds = []

    def counted(*trees):
        folds.append(trees)
        return compute_delays(*trees)

    monkeypatch.setattr(engine, "compute_delays", counted)
    config = dataclasses.replace(TREE_CONFIG, trials=2, rebuild_period=3, initial_energy=0.8,
                                 stop_rule="energy-exhausted", master_seed=3)
    reports = run_experiment(config, keep_reports=True).reports
    assert len(folds) >= 4
    for trial, got in enumerate(reports):
        assert got.lifetime < got.completed_rounds  # rounds were abandoned on the way
        assert_same_report(got, ref.run_trial(config, derive_seed(config.master_seed, trial)))


def test_mixed_rebuild_periods_in_one_group_match_the_per_round_loop():
    # the group key is protocol, node count, sink and radio, so these configs
    # share one group: trials that reuse a tree step beside trials that grow one
    configs = [dataclasses.replace(TREE_CONFIG, trials=2, rebuild_period=period,
                                   stop_rule=stop_rule, master_seed=period)
               for period in (1, 2, 5) for stop_rule in STOP_RULES]
    for config, result in zip(configs, engine.run_grid(configs, keep_reports=True), strict=True):
        for trial, got in enumerate(result.reports):
            assert_same_report(got, ref.run_trial(config, derive_seed(config.master_seed, trial)))


def test_range_grid_trees_grown_together_match_one_by_one():
    # a grid steps every range's trials together, so its lockstep trees
    # stack graphs of two ranges; an experiment per range stacks one range's
    config = dataclasses.replace(TREE_CONFIG, trials=4, stop_rule="energy-exhausted")
    configs = [dataclasses.replace(config, range_m=r) for r in (14.0, 18.0)]
    swept = [result.aggregate for result in engine.run_grid(configs)]
    assert swept == [run_experiment(c).aggregate for c in configs]


@pytest.mark.parametrize("protocol", ["emln", "leach"])
def test_worker_processes_give_the_serial_reports(protocol):
    config = dataclasses.replace(TREE_CONFIG, protocol=protocol, trials=7,
                                 stop_rule="energy-exhausted")
    serial = run_experiment(config, workers=1, keep_reports=True)
    parallel = run_experiment(config, workers=2, keep_reports=True)
    assert parallel.aggregate == serial.aggregate
    for got, want in zip(parallel.reports, serial.reports, strict=True):
        assert_same_report(got, want)


@st.composite
def drawn_configs(draw, protocol: str, stop_rule: str) -> SimConfig:
    """A small experiment: field, sink, node states, protocol, stop rule and caps."""
    n = draw(st.integers(1, 130))
    width, height = draw(st.floats(10.0, 200.0)), draw(st.floats(10.0, 200.0))
    if draw(st.booleans()):  # sink inside the field
        sink = (draw(st.floats(0.0, width)), draw(st.floats(0.0, height)))
    else:
        sink = (draw(st.floats(-50.0, width + 50.0)), height + draw(st.floats(1.0, 300.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    positions = rng.random((n, 2)) * (width, height)
    scale = draw(st.sampled_from([0.02, 0.1, 0.5]))
    energies = {
        "equal": np.full(n, scale),
        "random": scale * rng.random(n),
        "ties": scale * rng.integers(1, 4, n) / 3,  # 1/3, 2/3 and 1 of the scale
    }[draw(st.sampled_from(["equal", "random", "ties"]))]
    energies[rng.random(n) < draw(st.sampled_from([0.0, 0.0, 0.0, 0.05]))] = 0.0
    alive = rng.random(n) >= draw(st.sampled_from([0.0, 0.0, 0.1]))
    states = tuple(NodeState(i, (float(x), float(y)), float(e), bool(a))
                   for i, ((x, y), e, a) in enumerate(zip(positions, energies, alive)))
    return SimConfig(
        field=FieldConfig(width=width, height=height, node_count=n, sink_position=sink),
        protocol=protocol,
        # multiples of the range at which a uniform layout's graph gets connected
        range_m=draw(st.sampled_from([0.9, 1.3, 1.8, 2.5]))
        * math.sqrt(width * height * math.log(n + 1) / n / math.pi) + 1.0,
        max_rounds=draw(st.sampled_from([1, 2, 63, 64, 65, 127, 128, 129])),
        trials=draw(st.integers(1, 4)),
        master_seed=draw(st.integers(0, 2**32 - 1)),
        rebuild_period=draw(st.integers(1, 4)),
        stop_rule=stop_rule,
        leach_p=draw(st.sampled_from([0.05, 0.3, 0.8, 1.0])),
        nodes_override=states,
    )


def assert_invariants(config: SimConfig, report: SimulationReport):
    alive = report.alive_per_round
    assert (np.diff(alive) <= 0).all()
    assert (report.final_energies >= 0).all()
    assert report.lifetime <= report.completed_rounds <= config.max_rounds
    if config.protocol == "emln":
        assert (report.leaf_per_round <= alive - 1).all()
    elif config.protocol == "pegasis-cdma":
        assert report.delay_per_round.tolist() == [(m - 1).bit_length() for m in alive.tolist()]
    elif config.protocol == "direct":
        assert report.delay_per_round.tolist() == alive.tolist()


@pytest.mark.parametrize("stop_rule", STOP_RULES)
@pytest.mark.parametrize("protocol", PROTOCOLS)
@settings(max_examples=20, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_drawn_configs_match_the_per_round_loop(protocol, stop_rule, data):
    config = data.draw(drawn_configs(protocol, stop_rule))
    seeds = [derive_seed(config.master_seed, trial) for trial in range(config.trials)]
    want = [ref.run_trial(config, seed) for seed in seeds]
    assert_same_report(run_trial(config, seeds[0]), want[0])
    for got, expected in zip(run_experiment(config, keep_reports=True).reports, want):
        assert_same_report(got, expected)
        assert_invariants(config, got)
