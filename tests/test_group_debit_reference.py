"""Grids whose blocks differ in row count, against the per-round loop.

A lockstep step debits the blocks of every live trial of a group, one call
per row count; a group runs one protocol, so its blocks differ in rows only
at a trial's ``max_rounds`` cap. In a grid of every protocol at 100 nodes
the EMLN trials' blocks hold one round and the baselines' ten
(``BLOCK_ENTRIES // 100``), and at 600 nodes every block holds one round.
Each report must be the per-round loop's of tests/reference_engine.py byte
for byte, and each aggregate the one the loop's reports give.
"""

import dataclasses

import pytest

import reference_engine as ref
from test_engine_reference import assert_same_report

from gathersim import PROTOCOLS, FieldConfig, SimConfig, derive_seed
from gathersim import engine


def assert_compared_protocols_match(config: SimConfig):
    configs = [dataclasses.replace(config, protocol=p) for p in PROTOCOLS]
    want = [[ref.run_trial(c, derive_seed(c.master_seed, trial)) for trial in range(c.trials)]
            for c in configs]
    results = engine.run_grid(configs, keep_reports=True)
    for result, want_reports in zip(results, want, strict=True):
        for got, expected in zip(result.reports, want_reports, strict=True):
            assert_same_report(got, expected)
    # repr spells every float exactly, NaN and -0.0 included
    assert repr([result.aggregate for result in results]) == repr(
        [engine._aggregate(c, reports) for c, reports in zip(configs, want)])


def test_one_and_ten_row_blocks_share_a_group():
    # the EMLN trials' one-row blocks and the baselines' ten-row blocks share
    # one grid, each protocol's trials stepped in groups of their own
    assert engine.BLOCK_ENTRIES // 100 == 10
    assert_compared_protocols_match(SimConfig(initial_energy=0.03, trials=2, master_seed=5))


def test_every_block_has_one_row_at_600_nodes():
    field = FieldConfig(width=245.0, height=245.0, node_count=600, sink_position=(122.5, 320.0))
    assert engine.BLOCK_ENTRIES // field.node_count == 1
    assert_compared_protocols_match(SimConfig(field=field, initial_energy=0.02, max_rounds=6,
                                              stop_rule="energy-exhausted", master_seed=3))


@pytest.mark.parametrize("max_rounds", [9, 10, 11])
def test_deaths_and_rebuilds_with_caps_around_a_block(max_rounds):
    # the baselines' 10-row blocks end one short of, at and one past the cap;
    # near it the capped blocks of trials that deaths have put out of step
    # differ in row count within one step of a group
    assert_compared_protocols_match(SimConfig(initial_energy=0.02, trials=2, rebuild_period=3,
                                              stop_rule="energy-exhausted",
                                              max_rounds=max_rounds, master_seed=max_rounds))
