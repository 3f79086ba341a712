import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_oracles import cdma_schedule, recount_relay_ledger, tdma_schedule

from gathersim import (FieldConfig, RadioParams, build_chain, deploy, derive_seed,
                       direct_round, leach_elect, leach_round, make_rng, pegasis_cdma_round,
                       pegasis_tdma_round, positions_of, tx_cost)

P = RadioParams()
SINK = np.array([50.0, 300.0])


def seed_for_leader(m: int, target_pos: int) -> int:
    """Find a seed whose single draw lands the leader at ``target_pos``."""
    for seed in range(10_000):
        if int(make_rng(seed).integers(m)) == target_pos:
            return seed
    raise AssertionError("no seed found")


def random_layout(seed, n):
    nodes = deploy(FieldConfig(node_count=n), derive_seed(8888, seed))
    return positions_of(nodes)


def heads_of(head_of) -> set[int]:
    return set(np.flatnonzero(head_of == np.arange(len(head_of))).tolist())


def membership(head_of) -> dict[int, int]:
    """Each member's head: the participants that do not head themselves."""
    return {u: h for u, h in enumerate(head_of.tolist()) if h not in (-1, u)}


# ----------------------------------------------------------------------- chain

def test_chain_single_node():
    chain = build_chain(np.array([[1.0, 2.0]]), SINK)
    assert chain.tolist() == [0]
    assert chain.dtype == np.int64 and not chain.flags.writeable


def test_chain_three_collinear_nodes():
    # sink far beyond the right end, so the chain starts at x=0
    pos = np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0]])
    assert build_chain(pos, np.array([300.0, 0.0])).tolist() == [0, 1, 2]


def test_chain_is_permutation_of_alive():
    pos = random_layout(0, 40)
    alive = np.ones(40, bool)
    alive[[3, 17]] = False
    order = build_chain(pos, SINK, alive).tolist()
    assert sorted(order) == sorted(set(range(40)) - {3, 17})
    assert all(a != b for a, b in zip(order, order[1:]))


def test_chain_second_half_hops_longer_on_average():
    # greedy construction leaves the stragglers for the end of the chain
    firsts, seconds = [], []
    for s in range(1000):
        pos = random_layout(s, 100)
        order = build_chain(pos, SINK)
        hops = np.linalg.norm(pos[order[1:]] - pos[order[:-1]], axis=1)
        half = len(hops) // 2
        firsts.append(hops[:half].mean())
        seconds.append(hops[half:].mean())
    assert np.mean(seconds) > np.mean(firsts)


# ---------------------------------------------------------------- pegasis tdma

def test_tdma_single_alive_node():
    pos = np.array([[50.0, 50.0]])
    ledger, delay = pegasis_tdma_round([0], [True], 0, pos, SINK, P)
    assert delay == 0
    expected = P.e_fuse * 2000 + tx_cost(P, 2000, 250.0)
    assert ledger.per_node[0] == pytest.approx(expected, rel=1e-12)


def test_tdma_delay_is_longer_side():
    pos = random_layout(1, 5)
    chain = build_chain(pos, SINK)
    alive = np.ones(5, bool)
    for leader_pos in range(5):
        seed = seed_for_leader(5, leader_pos)
        _, delay = pegasis_tdma_round(chain, alive, seed, pos, SINK, P)
        assert delay == max(leader_pos, 4 - leader_pos)
    # leader at either end serializes the whole chain
    assert pegasis_tdma_round(chain, alive, seed_for_leader(5, 0), pos, SINK, P)[1] == 4
    assert pegasis_tdma_round(chain, alive, seed_for_leader(5, 4), pos, SINK, P)[1] == 4


@pytest.mark.parametrize("m", [1, 2, 3, 6, 10])
def test_tdma_matches_schedule_simulator(m):
    pos = random_layout(m, m)
    chain = build_chain(pos, SINK)
    alive = np.ones(m, bool)
    for leader_pos in range(m):
        seed = seed_for_leader(m, leader_pos)
        ledger, delay = pegasis_tdma_round(chain, alive, seed, pos, SINK, P)
        slots, transmissions = tdma_schedule(chain.tolist(), leader_pos)
        assert delay == slots
        assert len(transmissions) == m - 1
        tx, rx, fuse = recount_relay_ledger(
            transmissions, int(chain[leader_pos]), pos, SINK, P)
        assert np.allclose(ledger.tx, tx, rtol=1e-12, atol=0)
        assert np.allclose(ledger.rx, rx, rtol=1e-12, atol=0)
        assert np.allclose(ledger.fuse, fuse, rtol=1e-12, atol=0)


def test_tdma_bridges_dead_nodes():
    # a dead interior node is skipped: survivors relay over the gap
    pos = np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0], [30.0, 0.0]])
    chain = build_chain(pos, np.array([500.0, 0.0]))
    assert chain.tolist() == [0, 1, 2, 3]
    alive = np.array([True, False, True, True])
    seed = seed_for_leader(3, 2)  # leader = node 3 within the alive subchain
    ledger, delay = pegasis_tdma_round(chain, alive, seed, pos, SINK, P)
    assert delay == 2
    assert ledger.per_node[1] == 0.0
    assert ledger.tx[0] == pytest.approx(tx_cost(P, 2000, 20.0), rel=1e-12)


def test_pegasis_requires_alive_node():
    with pytest.raises(ValueError):
        pegasis_tdma_round([0], [False], 0, np.zeros((1, 2)), SINK, P)
    with pytest.raises(ValueError):
        pegasis_cdma_round([0], [False], 0, np.zeros((1, 2)), SINK, P)


# ---------------------------------------------------------------- pegasis cdma

def test_cdma_single_alive_node():
    pos = np.array([[50.0, 50.0]])
    ledger, delay = pegasis_cdma_round([0], [True], 0, pos, SINK, P)
    assert delay == 0
    expected = P.e_fuse * 2000 + tx_cost(P, 2000, 250.0)
    assert ledger.per_node[0] == pytest.approx(expected, rel=1e-12)


def test_cdma_delay_is_log2_levels():
    for m, want in ((1, 0), (2, 1), (3, 2), (8, 3), (9, 4), (100, 7)):
        pos = random_layout(m, m)
        chain = build_chain(pos, SINK)
        _, delay = pegasis_cdma_round(chain, np.ones(m, bool), 17, pos, SINK, P)
        assert delay == want


def test_cdma_eight_nodes_is_seven_plus_sink_transmissions():
    pos = random_layout(11, 8)
    chain = build_chain(pos, SINK)
    for leader_pos in range(8):
        seed = seed_for_leader(8, leader_pos)
        ledger, delay = pegasis_cdma_round(chain, np.ones(8, bool), seed, pos, SINK, P)
        assert delay == 3
        levels, transmissions = cdma_schedule(chain.tolist(), int(chain[leader_pos]))
        assert len(transmissions) == 7  # binary aggregation uses m - 1 sends
        assert np.count_nonzero(ledger.tx) == 8  # everyone transmits exactly once


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 10])
def test_cdma_matches_schedule_simulator(m):
    pos = random_layout(m + 20, m)
    chain = build_chain(pos, SINK)
    alive = np.ones(m, bool)
    for leader_pos in range(m):
        seed = seed_for_leader(m, leader_pos)
        leader = int(chain[leader_pos])
        ledger, delay = pegasis_cdma_round(chain, alive, seed, pos, SINK, P)
        levels, transmissions = cdma_schedule(chain.tolist(), leader)
        assert delay == levels
        assert len(transmissions) == m - 1
        tx, rx, fuse = recount_relay_ledger(transmissions, leader, pos, SINK, P)
        assert np.allclose(ledger.tx, tx, rtol=1e-12, atol=0)
        assert np.allclose(ledger.rx, rx, rtol=1e-12, atol=0)
        assert np.allclose(ledger.fuse, fuse, rtol=1e-12, atol=0)


# ----------------------------------------------------------------------- leach

def test_leach_p_one_makes_everyone_head():
    pos = random_layout(2, 10)
    head_of, served = leach_elect(pos, np.ones(10, bool), 0, 1.0, 3)
    assert heads_of(head_of) == set(range(10))
    assert membership(head_of) == {}
    assert served.tolist() == [True] * 10


def test_leach_elect_validates_inputs():
    pos = random_layout(2, 4)
    with pytest.raises(ValueError):
        leach_elect(pos, np.ones(4, bool), 0, 0.0, 1)
    with pytest.raises(ValueError):
        leach_elect(pos, np.zeros(4, bool), 0, 0.5, 1)


def test_leach_mean_heads_near_expected_fraction():
    pos = random_layout(3, 100)
    alive = np.ones(100, bool)
    served = None
    counts = []
    for r in range(400):
        head_of, served = leach_elect(pos, alive, r, 0.05, derive_seed(55, r), served)
        counts.append(len(heads_of(head_of)))
    assert abs(np.mean(counts) - 5.0) <= 1.0


def test_leach_every_node_heads_once_per_epoch():
    pos = random_layout(4, 100)
    alive = np.ones(100, bool)
    served = None
    for epoch in range(3):
        heads_this_epoch = []
        for r in range(20):
            idx = epoch * 20 + r
            head_of, served = leach_elect(pos, alive, idx, 0.05, derive_seed(66, idx), served)
            heads_this_epoch.extend(heads_of(head_of))
        assert sorted(heads_this_epoch) == list(range(100))


def test_leach_members_join_nearest_head():
    pos = np.array([[0.0, 0.0], [100.0, 0.0], [10.0, 0.0], [90.0, 0.0]])
    head_of, _ = leach_elect(pos, np.ones(4, bool), 0, 1.0, 1)
    # p = 1: all heads, so force a crafted row instead: heads 0 and 1, 2 joins 0, 3 joins 1
    crafted = np.array([0, 1, 0, 1])
    ledger, delay = leach_round(crafted, pos, SINK, P)
    assert delay == 1 + 2
    assert ledger.tx[2] == pytest.approx(tx_cost(P, 2000, 10.0), rel=1e-12)
    assert ledger.tx[3] == pytest.approx(tx_cost(P, 2000, 10.0), rel=1e-12)


def test_leach_membership_prefers_nearest():
    pos = np.array([[0.0, 0.0], [50.0, 0.0], [12.0, 0.0], [40.0, 0.0]])
    rng_seed = 0
    # search a seed electing exactly heads {0, 1} at round 0
    for rng_seed in range(5000):
        head_of, _ = leach_elect(pos, np.ones(4, bool), 0, 0.5, rng_seed)
        if heads_of(head_of) == {0, 1}:
            break
    assert heads_of(head_of) == {0, 1}
    assert membership(head_of) == {2: 0, 3: 1}


def test_leach_round_all_heads():
    pos = random_layout(5, 6)
    head_of, _ = leach_elect(pos, np.ones(6, bool), 0, 1.0, 9)
    ledger, delay = leach_round(head_of, pos, SINK, P)
    assert delay == 6  # no member slots, six serialized sink forwards
    assert np.all(ledger.rx == 0.0)
    assert np.allclose(ledger.fuse, P.e_fuse * 2000, rtol=1e-12)


def test_leach_round_single_head_with_members():
    n = 100
    pos = random_layout(6, n)
    ledger, delay = leach_round(np.zeros(n, dtype=np.int64), pos, SINK, P)  # all join node 0
    assert delay == 100  # 99 member slots + 1 sink slot
    assert ledger.fuse[0] == pytest.approx(P.e_fuse * 2000 * 100, rel=1e-12)
    assert ledger.rx[0] == pytest.approx(99 * 1.0e-4, rel=1e-12)


def test_leach_transmission_count():
    pos = random_layout(7, 50)
    head_of, _ = leach_elect(pos, np.ones(50, bool), 0, 0.1, 21)
    ledger, _ = leach_round(head_of, pos, SINK, P)
    assert np.count_nonzero(ledger.tx) == 50  # members once each + heads to sink


# ---------------------------------------------------------------------- direct

def test_direct_single_node_at_250m():
    pos = np.array([[50.0, 50.0]])
    ledger, delay = direct_round([True], pos, SINK, P)
    assert delay == 1
    assert ledger.total == pytest.approx(1.26e-2, rel=1e-12)


def test_direct_no_alive_nodes():
    ledger, delay = direct_round([False, False], np.zeros((2, 2)), SINK, P)
    assert delay == 0
    assert ledger.total == 0.0


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=40, deadline=None)
def test_pegasis_tx_counts(m, seed_val):
    # both variants: alive - 1 in-network transmissions plus one to the sink,
    # each node transmitting exactly once
    pos = random_layout(seed_val % 100, m)
    chain = build_chain(pos, SINK)
    alive = np.ones(m, bool)
    for round_fn in (pegasis_tdma_round, pegasis_cdma_round):
        ledger, _ = round_fn(chain, alive, seed_val, pos, SINK, P)
        assert np.count_nonzero(ledger.tx) == m
