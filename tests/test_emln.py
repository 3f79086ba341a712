import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (path_adjacency, random_connected_adjacency,
                      random_geometric_snapshot, snapshot_from_adjacency,
                      star_adjacency)
from helpers_oracles import (min_slots_over_orderings, optimal_leaf_count,
                             optimal_leaf_count_by_tree_enumeration,
                             tree_delay_bruteforce)

from gathersim import Nodes, build_graph, compute_delay, construct_tree, dump_tree, validate_tree


def build(adj, energies=None, tie_seed=0):
    snap = snapshot_from_adjacency(adj)
    energies = np.ones(snap.node_count) if energies is None else energies
    return snap, construct_tree(snap, energies, tie_seed)


# ---------------------------------------------------------------- construction

@pytest.mark.parametrize("spokes", [2, 3, 8])
def test_star_center_becomes_sole_intermediate(spokes):
    # center weight spokes*e beats every spoke's 1*e
    snap, tree = build(star_adjacency(spokes))
    assert tree.root == 0
    assert tree.intermediate_set == {0}
    assert tree.leaf_set == set(range(1, spokes + 1))
    assert tree.height == 1
    assert validate_tree(tree, snap)


def test_two_node_graph_roots_either_end():
    # both nodes tie at weight 1, so the root is a seeded coin flip
    snap, tree = build(star_adjacency(1), tie_seed=3)
    assert tree.root in (0, 1)
    assert tree.intermediate_set == {tree.root}
    assert len(tree.leaf_set) == 1
    assert tree.height == 1


def test_single_node_tree():
    snap, tree = build([[]])
    assert tree is not None
    assert tree.root == 0
    assert tree.intermediate_set == {0}
    assert tree.leaf_set == frozenset()
    assert tree.height == 0
    assert tree.level.tolist() == [0]
    assert compute_delay(tree) == 0


def test_path_equal_energies_roots_middle():
    # weights: ends 1, middle 2 -> middle wins, both ends covered at level 1
    snap, tree = build(path_adjacency(3), energies=[1.0, 1.0, 1.0])
    assert tree.root == 1
    assert tree.intermediate_set == {1}
    assert tree.leaf_set == {0, 2}
    assert tree.height == 1
    assert validate_tree(tree, snap)


@pytest.mark.parametrize("tie_seed", range(6))
def test_path_weak_middle_gives_two_intermediates(tie_seed):
    # weights: a=1*1, b=2*0.4=0.8, c=1*1 -> an end roots (tie between a, c),
    # then b is the only covered node with an uncovered neighbor
    snap, tree = build(path_adjacency(3), energies=[1.0, 0.4, 1.0], tie_seed=tie_seed)
    assert tree.root in (0, 2)
    far_end = 2 - tree.root
    assert tree.intermediate_set == {tree.root, 1}
    assert tree.leaf_set == {far_end}
    assert tree.level[1] == 1 and tree.level[far_end] == 2
    assert tree.height == 2
    assert validate_tree(tree, snap)


def test_disconnected_graph_returns_none():
    snap, tree = build([[1], [0], [3], [2]])
    assert tree is None
    snap, tree = build([[], []])
    assert tree is None


def test_isolated_node_among_connected_component():
    snap, tree = build([[1], [0], []])
    assert tree is None


def test_zero_energy_everywhere_still_spans():
    # zero-weight candidates stay eligible; only true coverage
    # impossibility may return None
    snap, tree = build(path_adjacency(5), energies=[0.0] * 5)
    assert tree is not None
    assert validate_tree(tree, snap)


def test_energy_length_mismatch_rejected():
    snap = snapshot_from_adjacency(path_adjacency(3))
    with pytest.raises(ValueError):
        construct_tree(snap, [1.0, 1.0], 0)
    with pytest.raises(ValueError):
        construct_tree(snap, [1.0, -1.0, 1.0], 0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_energy_rejected(bad):
    snap = snapshot_from_adjacency(path_adjacency(3))
    with pytest.raises(ValueError, match="finite"):
        construct_tree(snap, [1.0, bad, 1.0], 0)


def test_construction_deterministic():
    snap = random_geometric_snapshot(11)
    energies = np.linspace(0.5, 1.5, snap.node_count)
    t1 = construct_tree(snap, energies, tie_seed=99)
    t2 = construct_tree(snap, energies, tie_seed=99)
    assert dump_tree(t1) == dump_tree(t2)
    assert t1.level.tobytes() == t2.level.tobytes()


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=-6, max_value=6))
@settings(max_examples=40, deadline=None)
def test_energy_scaling_leaves_tree_unchanged(seed_val, power):
    # scaling all energies by 2**k is exact in binary floats, so weights,
    # argmaxes and tie sets are preserved and the tree must be identical
    rng = np.random.default_rng(seed_val)
    adj = random_connected_adjacency(rng, int(rng.integers(2, 10)))
    snap = snapshot_from_adjacency(adj)
    energies = rng.random(len(adj)) + 0.01
    base = construct_tree(snap, energies, tie_seed=5)
    scaled = construct_tree(snap, energies * 2.0**power, tie_seed=5)
    assert dump_tree(base) == dump_tree(scaled)


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=60, deadline=None)
def test_random_graphs_validate_and_leaf_count_bounded(seed_val):
    rng = np.random.default_rng(seed_val)
    n = int(rng.integers(1, 9))
    adj = random_connected_adjacency(rng, n)
    snap = snapshot_from_adjacency(adj)
    energies = rng.choice([0.25, 0.5, 1.0], size=n)
    tree = construct_tree(snap, energies, tie_seed=seed_val)
    assert tree is not None
    assert validate_tree(tree, snap)
    assert len(tree.leaf_set) <= optimal_leaf_count(adj)


def test_leaf_count_oracle_agrees_with_tree_enumeration():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(3, 6))
        adj = random_connected_adjacency(rng, n)
        assert optimal_leaf_count(adj) == optimal_leaf_count_by_tree_enumeration(adj)


# ---------------------------------------------------------------------- delay

def test_delay_root_with_m_leaf_children():
    # each leaf consumes one slot: fold gives exactly m
    for m in (1, 2, 5, 9):
        snap, tree = build(star_adjacency(m))
        assert compute_delay(tree) == m


def test_delay_mixed_children_folds_ascending():
    # children with delays {0, 0, 5}: 1, 2, then max(3, 6) = 6
    # chain of 6 below the root provides the delay-5 child
    adj = [[1, 2, 3], [0], [0], [0, 4], [3, 5], [4, 6], [5, 7], [6, 8], [7]]
    snap = snapshot_from_adjacency(adj)
    # make node 0 root (degree 3) and grow the chain through node 3
    energies = [10.0, 1.0, 1.0, 5.0, 4.0, 3.0, 2.0, 1.5, 1.0]
    tree = construct_tree(snap, energies, tie_seed=0)
    assert tree.root == 0
    assert sorted(compute_delay_of_children(tree, 0)) == [0, 0, 5]
    assert compute_delay(tree) == 6


def compute_delay_of_children(tree, node):
    # recompute child delays independently via the brute-force oracle
    children = {u: list(tree.children[u]) for u in tree.intermediate_set | tree.leaf_set}
    return [tree_delay_bruteforce(children, v) for v in tree.children[node]]


def test_delay_chain_is_length_minus_one():
    for n in (1, 2, 4, 7, 11):
        adj = path_adjacency(n)
        snap = snapshot_from_adjacency(adj)
        # node 0's weight dwarfs everyone, so the tree roots at the chain end
        energies = [100.0] + [float(n - i) for i in range(1, n)]
        tree = construct_tree(snap, energies, tie_seed=0)
        assert tree.root == 0
        assert compute_delay(tree) == n - 1


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=60, deadline=None)
def test_delay_matches_bruteforce_and_bounds(seed_val):
    rng = np.random.default_rng(seed_val)
    n = int(rng.integers(2, 12))
    adj = random_connected_adjacency(rng, n, edge_p=0.3)
    snap = snapshot_from_adjacency(adj)
    tree = construct_tree(snap, rng.random(n) + 0.1, tie_seed=seed_val)
    delay = compute_delay(tree)
    members = tree.intermediate_set | tree.leaf_set
    children = {u: list(tree.children[u]) for u in members}
    assert delay == tree_delay_bruteforce(children, tree.root)
    assert delay >= tree.height
    assert delay >= max(len(tree.children[u]) for u in members)


@given(st.lists(st.integers(min_value=0, max_value=9), min_size=0, max_size=6))
@settings(max_examples=80, deadline=None)
def test_ascending_fold_is_optimal_and_matches_closed_form(delays):
    t = 0
    for d in sorted(delays):
        t = max(t + 1, d + 1)
    assert t == min_slots_over_orderings(delays)
    if delays:
        ordered = sorted(delays)
        m = len(ordered)
        assert t == max(d + m - i for i, d in enumerate(ordered))


# ----------------------------------------------------------------- validation

def test_validate_rejects_tampered_trees():
    snap, tree = build(path_adjacency(4), energies=[4.0, 3.0, 2.0, 1.0])
    assert validate_tree(tree, snap)

    with pytest.raises(ValueError):
        tree.parent[0] = 0  # the arrays are read-only; a tampered tree gets copies

    def tampered(name, node, value):
        array = getattr(tree, name).copy()
        array[node] = value
        return dataclasses.replace(tree, **{name: array})

    victim = int(tree.level.argmax())  # the path's far end, under a non-root relay
    relay = int(tree.parent[victim])
    assert relay != tree.root
    assert not validate_tree(tampered("parent", victim, victim), snap)  # a self-loop
    assert not validate_tree(tampered("level", victim, tree.level[victim] + 1), snap)
    assert not validate_tree(tampered("intermediate", relay, False), snap)  # a leaf with a child


def test_validate_rejects_intermediate_flag_outside_the_tree():
    # node 4 is dead, so the tree spans nodes 0-3 of the path
    nodes = Nodes([(float(i), 0.0) for i in range(5)], np.ones(5), [True] * 4 + [False])
    snap = build_graph(nodes, 1.5)
    tree = construct_tree(snap, nodes.energies, 0)
    assert validate_tree(tree, snap) and tree.level[4] == -1
    flagged = tree.intermediate.copy()
    flagged[4] = True
    assert not validate_tree(dataclasses.replace(tree, intermediate=flagged), snap)


def test_validate_rejects_foreign_graph():
    # tree edges from the path do not all exist in the star
    snap, tree = build(path_adjacency(4), energies=[4.0, 3.0, 2.0, 1.0])
    assert validate_tree(tree, snap)
    assert not validate_tree(tree, snapshot_from_adjacency(star_adjacency(3)))


def test_dump_format_golden():
    snap, tree = build(path_adjacency(3), energies=[1.0, 1.0, 1.0])
    assert dump_tree(tree) == "0 1 1 leaf\n1 0 - root\n2 1 1 leaf\n"
