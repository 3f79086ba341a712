import concurrent.futures
import dataclasses
import sys

import numpy as np
import pytest

from conftest import count_loads
from test_engine_reference import assert_same_report
from gathersim import (FieldConfig, NodeState, RadioParams, SimConfig, derive_seed,
                       run_experiment, run_grid, run_trial)
from gathersim import engine
from gathersim.seeding import ROUND_BLOCK

SMALL = SimConfig(field=FieldConfig(width=40.0, height=40.0, node_count=20,
                                    sink_position=(20.0, 120.0)),
                  range_m=18.0, initial_energy=0.02, trials=3, master_seed=11)


def small(**kw):
    return dataclasses.replace(SMALL, **kw)


@pytest.mark.parametrize("proto", ["pegasis-tdma", "pegasis-cdma"])
def test_chain_leaders_load_no_generator(proto, monkeypatch):
    # leaders come from PCG64 states; a Generator is loaded only for a draw
    # numpy rejects, which a chain of m nodes gives with odds below m / 2^32.
    # Loading is the only way to a Generator, so none is built either
    loads = count_loads(monkeypatch)
    config = SimConfig(protocol=proto, initial_energy=0.1, stop_rule="energy-exhausted")
    rounds = sum(len(run_trial(config, derive_seed(21, t)).energy_per_round) for t in range(2))
    assert config.field.node_count == 100 and rounds > 500
    reports = run_experiment(dataclasses.replace(config, trials=10, master_seed=21),
                             keep_reports=True).reports
    assert sum(r.completed_rounds for r in reports) > 2500
    assert loads == []


def test_config_validation():
    for bad in (dict(trials=0), dict(max_rounds=0), dict(rebuild_period=0),
                dict(protocol="nope"), dict(stop_rule="sometimes"),
                dict(leach_p=0.0), dict(leach_p=1e-9), dict(range_m=0.0), dict(initial_energy=-1.0),
                dict(max_rounds=2.5), dict(rebuild_period=1.5), dict(trials=2.0),
                dict(master_seed=1.5), dict(radio=RadioParams(packet_bits=2000.5)),
                dict(field=dataclasses.replace(SMALL.field, node_count=10.5))):
        with pytest.raises(ValueError):
            small(**bad).validate()


def test_zero_initial_energy_means_zero_lifetime():
    dead = tuple(NodeState(i, (8.0 * i, 20.0), 0.0, alive=False) for i in range(5))
    for proto in ("emln", "leach", "pegasis-tdma", "pegasis-cdma", "direct"):
        for config in (small(protocol=proto, initial_energy=0.0),
                       small(protocol=proto, field=dataclasses.replace(SMALL.field, node_count=5),
                             nodes_override=dead)):
            report = run_trial(config, 5)
            assert report.lifetime == 0
            assert report.completed_rounds == 0


def test_direct_single_node_lifetime_is_79():
    # per-round debit at 250 m is 1.26e-2 J; floor(1.0 / 1.26e-2) = 79
    node = (NodeState(0, (50.0, 50.0), 1.0),)
    cfg = SimConfig(field=FieldConfig(node_count=1), protocol="direct",
                    nodes_override=node, trials=1)
    report = run_trial(cfg, 1)
    assert report.lifetime == 79
    assert report.delay_per_round[0] == 1
    assert report.final_energies[0] == pytest.approx(1.0 - 79 * 1.26e-2, rel=1e-9)


@pytest.mark.parametrize("proto", ["emln", "leach", "pegasis-tdma", "pegasis-cdma", "direct"])
def test_trials_are_reproducible(proto):
    a = run_trial(small(protocol=proto), 42)
    b = run_trial(small(protocol=proto), 42)
    assert a.lifetime == b.lifetime
    assert np.array_equal(a.energy_per_round, b.energy_per_round)
    assert np.array_equal(a.delay_per_round, b.delay_per_round)
    assert np.array_equal(a.final_energies, b.final_energies)


@pytest.mark.parametrize("proto", ["emln", "leach", "pegasis-tdma", "pegasis-cdma", "direct"])
def test_energy_bookkeeping_every_round(proto):
    report = run_trial(small(protocol=proto), 7)
    assert report.connected
    spent = np.cumsum(report.energy_per_round)
    drained = report.initial_total - report.residual_total_per_round
    rounds = np.arange(1, report.completed_rounds + 1)
    assert np.all(np.abs(drained - spent) <= 1e-9 * rounds)
    assert np.all(np.diff(report.residual_total_per_round) <= 0)
    assert np.all(report.final_energies >= 0)


def test_lifetime_respects_max_rounds_cap():
    free_radio = RadioParams(e_elec=0.0, eps_amp=0.0, e_fuse=0.0)
    cfg = small(radio=free_radio, max_rounds=37)
    report = run_trial(cfg, 3)
    assert report.lifetime == 37
    assert report.completed_rounds == 37
    assert np.all(report.energy_per_round == 0.0)


def test_round_metrics_product_invariant():
    report = run_trial(small(), 9)
    rounds = report.completed_rounds
    assert len(report.delay_per_round) == len(report.alive_per_round) == rounds > 0
    assert np.all(report.alive_per_round == 20)
    products = report.energy_per_round * report.delay_per_round
    assert report.mean_energy_delay == float(np.mean(products[:report.lifetime]))


def test_disconnected_deployment_flagged_not_faulted():
    cfg = small(range_m=2.0)  # far below the connectivity threshold
    report = run_trial(cfg, 1)
    assert not report.connected
    assert report.lifetime == 0
    assert report.completed_rounds == 0


def test_rebuild_period_reuses_tree_between_rebuilds():
    cfg = small(rebuild_period=4)
    report = run_trial(cfg, 13)
    assert report.connected and report.lifetime > 8
    leafs = report.leaf_per_round
    for start in range(0, report.completed_rounds - 4, 4):
        assert len(set(leafs[start:start + 4].tolist())) == 1
    # per-round energy is constant while the tree is reused
    energy = report.energy_per_round
    for start in range(0, report.completed_rounds - 4, 4):
        assert np.ptp(energy[start:start + 4]) == 0.0


def test_energy_exhausted_continues_past_first_death():
    cfg = small(protocol="direct", stop_rule="energy-exhausted", max_rounds=100000)
    report = run_trial(cfg, 21)
    first_death = run_trial(small(protocol="direct"), 21)
    assert report.lifetime == first_death.lifetime
    assert report.completed_rounds > report.lifetime
    assert report.alive_per_round[-1] < 20
    # the round that kills a node is abandoned: bookkeeping still closes
    spent = np.cumsum(report.energy_per_round)
    drained = report.initial_total - report.residual_total_per_round
    assert np.all(np.abs(drained - spent) <= 1e-9 * np.arange(1, len(spent) + 1))


def test_emln_energy_exhausted_runs_to_the_end():
    cfg = small(stop_rule="energy-exhausted")
    report = run_trial(cfg, 2)
    assert report.completed_rounds >= report.lifetime
    assert np.all(np.diff(report.alive_per_round) <= 0)


def test_experiment_single_trial_equals_report():
    cfg = small(trials=1)
    result = run_experiment(cfg, keep_reports=True)
    (report,) = result.reports
    agg = result.aggregate
    assert agg.mean_lifetime == report.lifetime
    assert agg.sd_lifetime == 0.0
    assert agg.mean_energy_per_round == report.mean_energy_per_round
    assert agg.mean_delay_per_round == report.mean_delay_per_round
    assert agg.mean_energy_delay == report.mean_energy_delay
    assert agg.connectivity == 1.0


def test_experiment_seed_derivation_is_documented_mix():
    cfg = small(trials=3)
    result = run_experiment(cfg, keep_reports=True)
    for i, report in enumerate(result.reports):
        redo = run_trial(cfg, derive_seed(cfg.master_seed, i))
        assert redo.lifetime == report.lifetime
        assert np.array_equal(redo.energy_per_round, report.energy_per_round)


def test_parallel_workers_match_serial():
    cfg = small(trials=4)
    serial = run_experiment(cfg, workers=1).aggregate
    parallel = run_experiment(cfg, workers=2).aggregate
    assert serial == parallel


def test_protocol_grid_workers_match_serial():
    # every protocol's trials are cells of one run, so the workers share them
    cfg = small(trials=3, stop_rule="energy-exhausted")
    configs = [dataclasses.replace(cfg, protocol=p) for p in engine.PROTOCOLS]
    serial = [r.aggregate for r in run_grid(configs, workers=1)]
    assert [r.aggregate for r in run_grid(configs, workers=2)] == serial
    assert serial == [run_experiment(c).aggregate for c in configs]


def test_worker_pool_never_outnumbers_the_trials(monkeypatch):
    # a process pool may start all its workers at the first task, so the
    # pool is never asked for more workers than there are trials
    asked = []

    class RecordingPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    cfg = small(protocol="direct", trials=2)
    serial = run_experiment(cfg).aggregate
    assert run_experiment(cfg, workers=100_000).aggregate == serial
    assert run_experiment(dataclasses.replace(cfg, trials=3), workers=2).aggregate.trials == 3
    assert run_experiment(dataclasses.replace(cfg, trials=1), workers=8).aggregate.trials == 1
    assert asked == [2, 2]


def test_a_group_holds_one_kind_and_every_worker_gets_groups(monkeypatch):
    # the runner splits the cells once: a lockstep group runs one protocol on
    # one node count, sink and radio, and the pool maps over such groups, at
    # most a workers-th of a kind's cells each
    kinds, tasks = [], []
    run_group = engine._run_group

    def recording_run_group(cells):
        kinds.append({(config.protocol, config.field.node_count,
                       tuple(config.field.sink_position), config.radio) for config, _ in cells})
        return run_group(cells)

    class RecordingPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, groups, chunksize=1):
            groups = list(groups)
            tasks.append([len(group) for group in groups])
            return map(fn, groups)

    monkeypatch.setattr(engine, "_run_group", recording_run_group)
    configs = [small(protocol=p, field=dataclasses.replace(SMALL.field, node_count=n))
               for p in ("emln", "leach") for n in (20, 30)]
    grid = run_grid(configs, workers=1, keep_reports=True)
    assert len(kinds) == 4 and all(len(kind) == 1 for kind in kinds)
    for result, config in zip(grid, configs, strict=True):
        solo = run_experiment(config, keep_reports=True)
        assert repr(result.aggregate) == repr(solo.aggregate)
        for got, want in zip(result.reports, solo.reports, strict=True):
            assert_same_report(got, want)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    config = small(protocol="direct", trials=10)
    assert run_experiment(config, workers=2).aggregate == run_experiment(config).aggregate
    assert tasks == [[5, 5]]
    assert all(len(kind) == 1 for kind in kinds)


def test_connectivity_fraction_counts_disconnected_trials(monkeypatch):
    cfg = small(range_m=2.0, trials=4)
    agg = run_experiment(cfg).aggregate
    assert agg.connectivity == 0.0
    assert np.isnan(agg.mean_lifetime)
    assert np.isnan(agg.mean_leaf_fraction)
    # a baseline that finds no structure to gather over has no leaf fraction at all
    monkeypatch.setattr(engine._DirectTrial, "blocks", lambda trials, memo: [])
    agg = run_experiment(small(protocol="direct", trials=4)).aggregate
    assert agg.connectivity == 0.0
    assert np.isnan(agg.mean_lifetime)
    assert agg.mean_leaf_fraction is None


BASELINES = ("leach", "pegasis-tdma", "pegasis-cdma", "direct")
DYING = SimConfig(field=FieldConfig(node_count=50), initial_energy=0.05, trials=12,
                  stop_rule="energy-exhausted", master_seed=29)


@pytest.mark.parametrize("stop_rule", ["first-death", "energy-exhausted"])
@pytest.mark.parametrize("proto", BASELINES)
def test_baseline_trials_in_lockstep_match_single_trials(proto, stop_rule, monkeypatch):
    # at 0.05 J nodes die every few rounds, so under energy-exhausted one
    # step holds trials in different 64-attempt blocks and chains of
    # different sizes, which take one ledger call per size
    steps, ledger_steps = [], []
    hash_rounds = engine.hash_rounds
    monkeypatch.setattr(engine, "hash_rounds", lambda streams, attempts, rows: (
        steps.append(attempts), hash_rounds(streams, attempts, rows)))
    kind = engine.PROTOCOL_TRIALS[proto]
    if proto.startswith("pegasis"):
        ledgers = kind.ledgers
        monkeypatch.setattr(kind, "ledgers", staticmethod(lambda chains, leaders: (
            ledger_steps.append(len(steps)), ledgers(chains, leaders))[1]))
    config = dataclasses.replace(DYING, protocol=proto, stop_rule=stop_rule)
    reports = run_experiment(config, keep_reports=True).reports
    for trial, report in enumerate(reports):
        assert_same_report(report, run_trial(config, derive_seed(config.master_seed, trial)))
    if stop_rule == "energy-exhausted" and proto != "direct":
        assert any(len({a // ROUND_BLOCK for a in attempts}) > 1 for attempts in steps)
        if proto.startswith("pegasis"):
            assert len(set(ledger_steps)) < len(ledger_steps)
    # a 1-trial config beside a 12-trial one
    grid = run_grid([dataclasses.replace(config, trials=1, master_seed=5), config],
                    keep_reports=True)
    assert_same_report(grid[0].reports[0], run_trial(config, derive_seed(5, 0)))
    for got, want in zip(grid[1].reports, reports, strict=True):
        assert_same_report(got, want)


def test_fold_boundary_leaves_reports_unchanged(monkeypatch):
    # EMLN at two node counts (two tree queues) beside LEACH, each tree used
    # for three rounds: folding after every tree resolves a tree's later
    # rounds after its queue has folded, and 2**40 folds only when the
    # trials report
    configs = [small(protocol=p, field=dataclasses.replace(SMALL.field, node_count=n), trials=4,
                     rebuild_period=3, max_rounds=60, stop_rule="energy-exhausted")
               for p, n in (("emln", 30), ("emln", 45), ("leach", 30))]

    def reports():
        return [r for result in run_grid(configs, keep_reports=True) for r in result.reports]

    want = reports()
    assert len(want) == 12 and sum(r.completed_rounds for r in want) > 500
    assert any(r.lifetime < r.completed_rounds < 60 for r in want)
    for fold_nodes in (1, 2**40):
        monkeypatch.setattr(engine, "FOLD_NODES", fold_nodes)
        for got, expected in zip(reports(), want, strict=True):
            assert_same_report(got, expected)


def test_range_grid_matches_individual_experiments():
    cfg = small(trials=2)
    rows = [r.aggregate for r in run_grid([dataclasses.replace(cfg, range_m=r)
                                           for r in (14.0, 18.0)])]
    assert [r.range_m for r in rows] == [14.0, 18.0]
    solo = run_experiment(dataclasses.replace(cfg, range_m=14.0)).aggregate
    assert rows[0] == solo


@pytest.mark.parametrize("workers", [1, 2])
def test_mixed_grid_matches_separate_experiments(workers):
    # two protocols by two ranges, with unequal trial counts: each config's
    # trials are the next cells of the one run
    configs = [small(protocol=p, range_m=r, trials=trials, stop_rule="energy-exhausted")
               for p, r, trials in (("emln", 14.0, 3), ("emln", 18.0, 1),
                                    ("leach", 14.0, 2), ("leach", 18.0, 4))]
    grid = run_grid(configs, workers=workers, keep_reports=True)
    solo = [run_experiment(c, keep_reports=True) for c in configs]
    assert [len(r.reports) for r in grid] == [3, 1, 2, 4]
    # repr spells every float exactly, NaN and -0.0 included; in arrays too,
    # with every element printed in its shortest round-trip form
    with np.printoptions(floatmode="unique", threshold=sys.maxsize):
        assert repr([r.aggregate for r in grid]) == repr([r.aggregate for r in solo])
        assert repr([r.reports for r in grid]) == repr([r.reports for r in solo])


def test_empty_grid_runs_nothing():
    assert run_grid([]) == []
    assert run_grid([], workers=2, keep_reports=True) == []


def test_leaf_fraction_only_for_tree_protocol():
    assert run_experiment(small(trials=2)).aggregate.mean_leaf_fraction is not None
    assert run_experiment(small(trials=2, protocol="direct")).aggregate.mean_leaf_fraction is None


def test_no_two_reports_share_an_array():
    # trials end at different steps: deaths under energy-exhausted, a tree
    # reused for three rounds and a cap, in EMLN and a baseline at once
    configs = [small(protocol=p, initial_energy=0.03, trials=4, rebuild_period=3,
                     max_rounds=80, stop_rule="energy-exhausted") for p in ("emln", "leach")]
    reports = [r for result in run_grid(configs, keep_reports=True) for r in result.reports]
    assert len({r.completed_rounds for r in reports}) > 2
    assert any(r.completed_rounds == 80 for r in reports)
    arrays = [(i, value) for i, report in enumerate(reports)
              for value in vars(report).values() if isinstance(value, np.ndarray)]
    for i, a in arrays:
        for j, b in arrays:
            assert i == j or not np.shares_memory(a, b)

