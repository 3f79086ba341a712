import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_geometric_snapshot, seeded_nodes
from helpers_oracles import recount_tree_ledger

from gathersim import (EnergyLedger, Nodes, NodeState, RadioParams, build_graph,
                       construct_tree, energies_of, leach_round, positions_of,
                       tree_round_energy, tx_cost)
from gathersim.radio import dot_hop_lengths

P = RadioParams()


def test_radio_params_validation():
    with pytest.raises(ValueError):
        RadioParams(e_elec=-1e-9).validate()
    with pytest.raises(ValueError):
        RadioParams(packet_bits=0).validate()
    RadioParams().validate()


def test_tx_cost_values():
    assert tx_cost(P, 0, 123.0) == 0.0
    assert tx_cost(P, 2000, 25.0) == pytest.approx(2.25e-4, rel=1e-12)
    assert tx_cost(P, 2000, 250.0) == pytest.approx(1.26e-2, rel=1e-12)


def test_rx_cost_values():
    # every ledger debits a reception as e_elec * bits: tx_cost at distance 0
    assert tx_cost(P, 0, 0.0) == 0.0
    assert tx_cost(P, 2000, 0.0) == pytest.approx(1.0e-4, rel=1e-12)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=50)
def test_rx_equals_tx_at_zero_distance(bits):
    assert P.e_elec * bits == tx_cost(P, bits, 0.0)


@pytest.mark.parametrize("rows", [1, 2, 39, 5000])
@pytest.mark.parametrize("scale", [1e-150, 1.0, 250.0, 1e150])
@pytest.mark.parametrize("offset", [0.0, -0.8])
def test_dot_hop_lengths_are_norm_bit_for_bit(rows, scale, offset):
    # sink hops keep the bits of np.linalg.norm on one row, a BLAS dot product;
    # a sum of squares differs in the last bit for about one hop in ten
    rng = np.random.default_rng(rows)
    a = (rng.random((rows, 2)) + offset) * scale
    for b in (np.array([0.31, -1.9]) * scale, (rng.random((rows, 2)) + offset) * scale):
        want = np.array([np.linalg.norm(row - other) for row, other in
                         zip(a, np.broadcast_to(b, a.shape))])
        assert dot_hop_lengths(a, b).tobytes() == want.tobytes()


def cluster_fuse(members: int) -> np.ndarray:
    """Fuse debits of one cluster round: node 0 heads ``members`` members."""
    n = members + 1
    ledger, _ = leach_round(np.zeros(n, dtype=np.int64), np.zeros((n, 2)), (0.0, 250.0), P)
    return ledger.fuse


def test_fuse_cost_values():
    fuse = cluster_fuse(2)
    assert fuse[1] == 0.0  # a member fuses no signal
    assert fuse[0] == pytest.approx(3.0e-5, rel=1e-12)  # the head fuses 3


@given(st.integers(min_value=0, max_value=1000), st.integers(min_value=0, max_value=1000))
@settings(max_examples=50)
def test_fuse_cost_additive_in_signals(a, b):
    # a head with m members fuses m + 1 signals: a + 1 and b + 1 add up to (a + b + 1) + 1
    assert cluster_fuse(a + b + 1)[0] == pytest.approx(
        cluster_fuse(a)[0] + cluster_fuse(b)[0], rel=1e-12)


def _tree_over(states, range_m):
    nodes = Nodes.from_states(states)
    graph = build_graph(nodes, range_m)
    tree = construct_tree(graph, energies_of(nodes), tie_seed=1)
    assert tree is not None
    return graph, tree


def test_single_node_round_is_fuse_plus_sink_tx():
    nodes = [NodeState(0, (50.0, 50.0), 1.0)]
    _, tree = _tree_over(nodes, 10.0)
    ledger = tree_round_energy(tree, positions_of(Nodes.from_states(nodes)), (50.0, 300.0), P)
    expected = P.e_fuse * 2000 + tx_cost(P, 2000, 250.0)
    assert ledger.per_node[0] == pytest.approx(expected, rel=1e-12)
    assert ledger.total == pytest.approx(expected, rel=1e-12)


def test_star_round_matches_hand_computation():
    # two leaves 10 m from the root, sink 250 m away
    nodes = [NodeState(0, (0.0, 0.0), 1.0), NodeState(1, (10.0, 0.0), 1.0),
             NodeState(2, (-10.0, 0.0), 1.0)]
    _, tree = _tree_over(nodes, 10.0)
    assert tree.root == 0
    ledger = tree_round_energy(tree, positions_of(Nodes.from_states(nodes)), (0.0, 250.0), P)
    assert ledger.per_node[1] == pytest.approx(1.2e-4, rel=1e-12)
    assert ledger.per_node[2] == pytest.approx(1.2e-4, rel=1e-12)
    root_expected = 2 * 1.0e-4 + 3.0e-5 + 1.26e-2
    assert ledger.per_node[0] == pytest.approx(root_expected, rel=1e-12)


def test_doubling_packet_bits_doubles_every_debit():
    nodes = seeded_nodes(3)
    snap = build_graph(nodes, 25.0)
    tree = construct_tree(snap, energies_of(nodes), tie_seed=0)
    sink = (50.0, 300.0)
    base = tree_round_energy(tree, snap.positions, sink, P)
    doubled = tree_round_energy(tree, snap.positions, sink,
                                dataclasses.replace(P, packet_bits=4000))
    assert np.array_equal(doubled.per_node, 2.0 * base.per_node)


def test_leaves_pay_no_rx_or_fuse():
    nodes = seeded_nodes(4)
    snap = build_graph(nodes, 25.0)
    tree = construct_tree(snap, energies_of(nodes), tie_seed=0)
    ledger = tree_round_energy(tree, snap.positions, (50.0, 300.0), P)
    leaves = sorted(tree.leaf_set)
    assert np.all(ledger.rx[leaves] == 0.0)
    assert np.all(ledger.fuse[leaves] == 0.0)
    assert np.all(ledger.tx[leaves] > 0.0)


def test_ledger_matches_independent_recount():
    checked = 0
    for seed in range(12):
        snap = random_geometric_snapshot(seed)
        energies = np.linspace(0.2, 1.0, snap.node_count)
        tree = construct_tree(snap, energies, tie_seed=seed)
        if tree is None:
            continue
        checked += 1
        sink = (50.0, 300.0)
        ledger = tree_round_energy(tree, snap.positions, sink, P)
        tx, rx, fuse = recount_tree_ledger(tree, snap.positions, sink, P)
        assert np.allclose(ledger.tx, tx, rtol=1e-12, atol=0)
        assert np.allclose(ledger.rx, rx, rtol=1e-12, atol=0)
        assert np.allclose(ledger.fuse, fuse, rtol=1e-12, atol=0)
        assert ledger.total == pytest.approx((tx + rx + fuse).sum(), rel=1e-12)
    assert checked >= 5


def test_moving_node_farther_never_decreases_debit():
    base_nodes = [NodeState(0, (0.0, 0.0), 1.0), NodeState(1, (5.0, 0.0), 1.0),
                  NodeState(2, (-5.0, 0.0), 1.0)]
    _, tree = _tree_over(base_nodes, 12.0)
    sink = (0.0, 250.0)
    near = tree_round_energy(tree, positions_of(Nodes.from_states(base_nodes)), sink, P)
    for farther_x in (7.0, 9.0, 12.0):
        moved = [base_nodes[0], NodeState(1, (farther_x, 0.0), 1.0), base_nodes[2]]
        far = tree_round_energy(tree, positions_of(Nodes.from_states(moved)), sink, P)
        assert far.per_node[1] >= near.per_node[1]


def test_tree_node_mismatch_rejected():
    nodes = [NodeState(0, (0.0, 0.0), 1.0), NodeState(1, (1.0, 0.0), 1.0)]
    _, tree = _tree_over(nodes, 2.0)
    with pytest.raises(ValueError):
        tree_round_energy(tree, np.zeros((3, 2)), (0.0, 0.0), P)


def test_empty_ledger_total_is_zero():
    ledger = EnergyLedger.empty(5)
    assert ledger.total == 0.0
    assert np.all(ledger.per_node == 0.0)
