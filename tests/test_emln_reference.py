"""The EMLN round layers against their loop reference, field for field.

``construct_tree``, ``compute_delay`` and ``tree_round_energy`` must give
exactly what the loop versions in tests/reference_emln.py give: the tree
that module's record holds, read through the arrays and views, with the
same element types, the same delay, and ledgers equal byte for byte. The
cases cover geometric deployments at three ranges, equal energies (ties
from round 1 on), random energies with and without exact zeros, dead
nodes, disconnected graphs, a single node, one 2,000-node deployment with
equal and with random energies, and two small graphs whose only tied maxima
are the first and the last id, at the root pick and at a later promotion.
``construct_trees``, ``compute_delays`` and ``trees_round_energy`` take the
same inputs stacked, 1, 3 or 10 trials at a time, and each row must be the
reference's tree, delay and ledger, also in a stack that mixes an
all-zero-energy row, a disconnected row and two random rows, whose stalls
wait for a step where no row grows. One ``compute_delays`` call over the
stacked rows of random trees of 1 to 40 nodes and many heights, as the
engine folds a queue of steps, must give each tree's reference delay.
Clumped layouts, whose longest neighbor lists spill past the width of
``neighbor_table``, must give the reference's trees too, stacked and
alone, and the CLI's default graphs must not spill.
"""

import numpy as np
import pytest

import reference_emln as ref
from conftest import random_geometric_snapshot, seeded_nodes, snapshot_from_adjacency
from helpers_oracles import random_gather_tree

from gathersim import (FieldConfig, GatherTree, Nodes, RadioParams, build_graph,
                       compute_delay, construct_tree, deploy, derive_seed, tree_round_energy)
from gathersim.emln import compute_delays, construct_trees
from gathersim.network import stack_graphs
from gathersim.radio import trees_round_energy

SEEDS = range(60)
SINK = (50.0, 300.0)
P = RadioParams()


def energies_for(mode: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if mode == "equal":
        return np.full(n, 0.03)
    if mode == "none":
        return np.zeros(n)
    if mode == "012":
        return rng.integers(0, 3, n).astype(float)
    energies = rng.random(n) * 0.03
    if mode == "zeros":
        energies[rng.random(n) < 0.3] = 0.0
    return energies


def root_pick_is_tied(graph, energies) -> bool:
    weights = graph.degrees[graph.alive] * energies[graph.alive]
    return int(np.count_nonzero(weights == weights.max())) > 1


def assert_same_round(graph, energies, tie_seed: int, sink=SINK) -> GatherTree | None:
    """Run both versions of all three layers; return the tree (None if disconnected)."""
    want = ref.construct_tree(graph, energies, tie_seed)
    got = construct_tree(graph, energies, tie_seed)
    if want is None:
        assert got is None
        return None
    assert got.root == want.root and type(got.root) is int
    for name in ("parent", "level"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.intermediate.dtype == bool
    assert got.intermediate.tolist() == [v in want.intermediate_set for v in range(len(got.level))]
    # repr also tells a Python int from a numpy integer
    assert repr(got.children) == repr(want.children)
    assert want.nodes_at_level == tuple(tuple(np.flatnonzero(got.level == lvl).tolist())
                                        for lvl in range(got.height + 1))
    for name in ("intermediate_set", "leaf_set"):
        members = getattr(got, name)
        assert members == getattr(want, name), name
        assert type(members) is frozenset and all(type(v) is int for v in members), name
    assert got.height == want.height and type(got.height) is int

    delay = compute_delay(got)
    assert delay == ref.compute_delay(want) and type(delay) is int

    positions = graph.positions
    ledger = tree_round_energy(got, positions, sink, P)
    expected = ref.tree_round_energy(want, positions, sink, P)
    for name in ("tx", "rx", "fuse", "per_node"):
        a, b = getattr(ledger, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert ledger.total == expected.total
    return got


@pytest.mark.parametrize("mode", ["equal", "random", "zeros"])
@pytest.mark.parametrize("range_m", [15.0, 25.0, 40.0])
def test_geometric_snapshots_match_reference(range_m, mode):
    trees = ties = 0
    for seed in SEEDS:
        graph = random_geometric_snapshot(seed, range_m=range_m)
        energies = energies_for(mode, graph.node_count, seed)
        ties += root_pick_is_tied(graph, energies)
        trees += assert_same_round(graph, energies, derive_seed(seed, 1)) is not None
    if range_m == 15.0:
        assert trees < len(SEEDS)  # some of the sparse graphs are disconnected
    else:
        assert trees > 0
    if mode == "equal":
        assert ties > 0  # the tie-break draw is exercised


@pytest.mark.parametrize("range_m", [15.0, 25.0])
def test_dead_nodes_match_reference(range_m):
    field = FieldConfig()
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        nodes = deploy(field, derive_seed(77, seed))
        dead = rng.random(field.node_count) < 0.2
        nodes = Nodes(nodes.positions, nodes.energies, ~dead)
        graph = build_graph(nodes, range_m)
        energies = energies_for("zeros" if seed % 2 else "equal", field.node_count, seed)
        assert_same_round(graph, energies, derive_seed(seed, 1))


@pytest.mark.parametrize("energy", [0.0, 0.5])
def test_single_node_matches_reference(energy):
    graph = build_graph(deploy(FieldConfig(node_count=1), 3), 25.0)
    tree = assert_same_round(graph, np.array([energy]), 9)
    assert tree.intermediate_set == {0} and not tree.leaf_set


@pytest.mark.parametrize("mode", ["equal", "random"])
def test_two_thousand_nodes_match_reference(mode):
    # equal energies are round 1's: ties at the root pick and at promotions
    field = FieldConfig(width=447.2, height=447.2, node_count=2000,
                        sink_position=(223.6, 647.2))
    graph = build_graph(deploy(field, derive_seed(5, 0)), 25.0)
    energies = energies_for(mode, field.node_count, 5)
    tree = assert_same_round(graph, energies, derive_seed(5, 1), sink=field.sink_position)
    assert tree is not None
    assert root_pick_is_tied(graph, energies) == (mode == "equal")


# Nine nodes with equal energies, whose only tied maxima are the row's first
# and last ids, 0 and 8. "root": hubs 0 and 8 share node 4 and tie for the
# root. "promotion": root 4 covers 0 and 8, which then tie with two uncovered
# neighbors each, one of them shared (6), so node 6's parent shows the pick.
EDGE_TIES = {
    "root": [[1, 2, 3, 4], [0], [0], [0], [0, 8], [8], [8], [8], [4, 5, 6, 7]],
    "promotion": [[1, 4, 6], [0], [4], [4], [0, 2, 3, 5, 8], [4], [0, 8], [8], [4, 6, 7]],
}


def edge_pick(case: str, root: int, parent: np.ndarray) -> int:
    """Which of nodes 0 and 8 won the tie: the root, or the parent of node 6."""
    return root if case == "root" else int(parent[6])


@pytest.mark.parametrize("case", list(EDGE_TIES))
def test_ties_at_both_ends_of_a_row_match_reference(case):
    graph = snapshot_from_adjacency(EDGE_TIES[case])
    energies = np.ones(9)
    picks = set()
    for seed in range(40):
        tree = assert_same_round(graph, energies, seed)
        picks.add(edge_pick(case, tree.root, tree.parent))
    assert picks == {0, 8}
    picks = set()
    stacked = stack_graphs([graph] * 3)
    for first in range(0, 40, 3):
        seeds = list(range(first, first + 3))
        roots, parent, level, intermediate = construct_trees(stacked, np.ones((3, 9)), seeds)
        for t, seed in enumerate(seeds):
            want = ref.construct_tree(graph, energies, seed)
            assert roots[t] == want.root
            assert parent[t].tobytes() == want.parent.tobytes()
            assert level[t].tobytes() == want.level.tobytes()
            assert intermediate[t].tolist() == [v in want.intermediate_set for v in range(9)]
            picks.add(edge_pick(case, int(roots[t]), parent[t]))
    assert picks == {0, 8}


@pytest.mark.parametrize("mode", ["equal", "random", "zeros", "012", "none"])
@pytest.mark.parametrize("trials", [1, 3, 10])
def test_lockstep_rows_match_reference(trials, mode):
    # 30 trials in stacks of `trials`, each stack of one node count, its graphs
    # of ranges 15, 20 and 25 m with 10% of the nodes dead
    connected = disconnected = 0
    for first in range(0, 30, trials):
        n = (30, 100, 160)[first % 3]
        graphs, energies, seeds = [], [], []
        for seed in range(first, first + trials):
            nodes = seeded_nodes(seed, n)
            dead = np.random.default_rng(seed).random(n) < 0.1
            dead[seed % n] = False  # keep one node alive
            graphs.append(build_graph(Nodes(nodes.positions, nodes.energies, ~dead),
                                      (15.0, 20.0, 25.0)[seed % 3]))
            energies.append(energies_for(mode, n, seed))
            seeds.append(derive_seed(seed, 1))
        stacked = stack_graphs(graphs)
        roots, parent, level, intermediate = construct_trees(stacked, np.array(energies), seeds)
        assert roots.dtype == parent.dtype == level.dtype == np.int64
        assert intermediate.dtype == bool
        delays = compute_delays(roots, parent, level)
        ledger = trees_round_energy(roots, parent, intermediate, stacked.positions, SINK, P)
        for t, graph in enumerate(graphs):
            want = ref.construct_tree(graph, energies[t], seeds[t])
            if want is None:
                assert roots[t] == -1
                disconnected += 1
                continue
            connected += 1
            assert roots[t] == want.root
            assert parent[t].tobytes() == want.parent.tobytes()
            assert level[t].tobytes() == want.level.tobytes()
            assert intermediate[t].tolist() == [v in want.intermediate_set for v in range(n)]
            assert delays[t] == ref.compute_delay(want)
            expected = ref.tree_round_energy(want, graph.positions, SINK, P)
            for name in ("tx", "rx", "fuse", "per_node"):
                assert getattr(ledger, name)[t].tobytes() == getattr(expected, name).tobytes()
    assert connected > 0 and disconnected > 0


@pytest.mark.parametrize("order", [(0, 1, 2, 3), (1, 2, 3, 0), (3, 2, 0, 1)])
def test_stalling_rows_in_one_stack_match_reference(order):
    """A zero-top row, a disconnected row and two random rows grow in one stack.

    The all-zero-energy row meets the zero-top rule at every step after its
    root, and the disconnected row stalls for good once its part is covered.
    A row with no positive weight advances only at a step where no row grows,
    so the zero-top row waits while the random rows grow; each row must still
    be the reference's tree of its own graph, energies and seed.
    """
    n = 100
    kinds = [("random", 25.0), ("none", 25.0), ("random", 12.0), ("random", 30.0)]
    for first in (0, 10, 20):
        graphs, energies, seeds = [], [], []
        for t in order:
            mode, range_m = kinds[t]
            graphs.append(random_geometric_snapshot(first + t, n, range_m))
            energies.append(energies_for(mode, n, first + t))
            seeds.append(derive_seed(first + t, 1))
        roots, parent, level, intermediate = construct_trees(stack_graphs(graphs),
                                                             np.array(energies), seeds)
        outcomes = []
        for t, graph in enumerate(graphs):
            want = ref.construct_tree(graph, energies[t], seeds[t])
            outcomes.append((kinds[order[t]][0], want is None))
            if want is None:
                assert roots[t] == -1
                continue
            assert roots[t] == want.root
            assert parent[t].tobytes() == want.parent.tobytes()
            assert level[t].tobytes() == want.level.tobytes()
            assert intermediate[t].tolist() == [v in want.intermediate_set for v in range(n)]
        assert sorted(outcomes) == [("none", False), ("random", False), ("random", False),
                                    ("random", True)]


def tree_of(parents: list[int]) -> GatherTree:
    """The tree rooted at 0 with these parents; the root and every parent are intermediate."""
    parent = np.array(parents, dtype=np.int64)
    level = np.zeros(len(parents), dtype=np.int64)
    for v in range(1, len(parents)):  # each parent comes before its children
        level[v] = level[parent[v]] + 1
    intermediate = np.isin(np.arange(len(parents)), parent)
    intermediate[0] = True
    return GatherTree(0, parent, level, intermediate)


def placed(tree: GatherTree, n: int, rng) -> tuple:
    """``(root, parent, level, intermediate)`` of ``tree`` moved to random ids out of n."""
    ids = rng.permutation(n)[:len(tree.parent)]
    parent, level = np.full(n, -1), np.full(n, -1)
    intermediate = np.zeros(n, dtype=bool)
    parent[ids] = np.where(tree.parent >= 0, ids[tree.parent], -1)
    level[ids] = tree.level
    intermediate[ids] = tree.intermediate
    return int(ids[tree.root]), parent, level, intermediate


def reference_tree(root: int, parent, level, intermediate) -> ref.GatherTree:
    """The reference record of a tree given as arrays."""
    members = np.flatnonzero(level >= 0)
    height = int(level.max())
    return ref.GatherTree(
        root=root, parent=parent, level=level,
        children=tuple(tuple(np.flatnonzero(parent == u).tolist()) for u in range(len(parent))),
        intermediate_set=frozenset(np.flatnonzero(intermediate).tolist()),
        leaf_set=frozenset(members[~intermediate[members]].tolist()),
        nodes_at_level=tuple(tuple(np.flatnonzero(level == h).tolist())
                             for h in range(height + 1)),
        height=height)


def test_stacked_random_trees_match_reference():
    # one call over 63 rows of 40 slots: a single node, a root whose children
    # are all intermediate, a root with leaf and intermediate children, and
    # random trees from paths (at most one child each) to bushes; row 10's
    # root is dropped, so it is a disconnected row whose value is ignored
    rng = np.random.default_rng(2026)
    n, disconnected = 40, 10
    trees = [random_gather_tree(rng, 1), tree_of([-1, 0, 0, 1, 1, 2, 5]),
             tree_of([-1, 0, 0, 0, 2, 2, 3, 6])]
    trees += [random_gather_tree(rng, int(rng.integers(2, n + 1)), max_children)
              for max_children in (1, 2, 3, 6, n) for _ in range(12)]
    rows = [placed(tree, n, rng) for tree in trees]
    roots = np.array([row[0] for row in rows])
    roots[disconnected] = -1
    parent, level, intermediate = (np.array(part) for part in list(zip(*rows))[1:])
    delays = compute_delays(roots, parent, level)
    assert delays.dtype == np.int64 and delays.shape == (len(rows),)
    heights, parent_kinds = set(), set()
    for t, row in enumerate(rows):
        if t == disconnected:
            continue
        want = reference_tree(*row)
        assert delays[t] == ref.compute_delay(want), t
        heights.add(want.height)
        for u in want.intermediate_set:
            parent_kinds.add(frozenset(v in want.intermediate_set for v in want.children[u]))
    assert min(heights) == 0 and len(heights) >= 15
    assert {frozenset({True}), frozenset({True, False})} <= parent_kinds


def clumped_graph(seed: int):
    """150 nodes within 1 m of one spot and 850 spread over 400 x 400 m, range 25 m."""
    rng = np.random.default_rng(seed)
    positions = np.concatenate((200.0 + rng.random((150, 2)) * 0.7, rng.random((850, 2)) * 400.0))
    return build_graph(Nodes(positions, np.full(1000, 0.03), np.ones(1000, dtype=bool)), 25.0)


def assert_table_holds_the_lists(graph) -> bool:
    """The table's bound and rows, and each node's gather, against the CSR lists.

    Returns whether the table spills.
    """
    table, spills = graph.neighbor_table
    size, width = graph.node_count, table.shape[1]
    assert table.dtype == np.int64 and table.shape[0] == size + 1
    assert table.size <= 4 * (graph.indices.size + size + 1)
    assert spills == (graph.degrees > width).any()
    assert (table[size] == size).all()
    for u in range(size):
        nbrs = graph.indices[graph.indptr[u]:graph.indptr[u + 1]]
        kept = min(nbrs.size, width)
        assert table[u, :kept].tolist() == nbrs[:kept].tolist() and (table[u, kept:] == size).all()
        # the gather adds a spilled list's tail: without sentinels, it is the whole list
        got = graph.neighbors_of(np.array([u]))
        assert sorted(got[got < size].tolist()) == nbrs.tolist()
    return spills


@pytest.mark.parametrize("mode", ["equal", "random"])
def test_clumped_stack_spills_and_rows_match_reference(mode):
    # seed 1's spread nodes are not all connected
    graphs = [clumped_graph(seed) for seed in (0, 1, 3)]
    stacked = stack_graphs(graphs)
    assert assert_table_holds_the_lists(stacked)
    energies = [energies_for(mode, 1000, seed) for seed in range(3)]
    seeds = [derive_seed(seed, 1) for seed in range(3)]
    roots, parent, level, intermediate = construct_trees(stacked, np.array(energies), seeds)
    assert (parent < 1000).all()  # local ids: the sentinel, 3,000, never shows
    connected = 0
    for t, graph in enumerate(graphs):
        want = ref.construct_tree(graph, energies[t], seeds[t])
        if want is None:
            assert roots[t] == -1
            continue
        connected += 1
        assert roots[t] == want.root
        assert parent[t].tobytes() == want.parent.tobytes()
        assert level[t].tobytes() == want.level.tobytes()
        assert intermediate[t].tolist() == [v in want.intermediate_set for v in range(1000)]
    assert connected == 2
    # each graph spills alone too, and grows through the one-row loop
    for t, graph in enumerate(graphs):
        assert assert_table_holds_the_lists(graph)
        assert_same_round(graph, energies[t], seeds[t])


def test_cli_default_graphs_do_not_spill():
    # each of the 10 trials of seeds 1-50 at the CLI defaults, alone and stacked
    for master in range(1, 51):
        graphs = [build_graph(deploy(FieldConfig(), derive_seed(derive_seed(master, i), 0)), 25.0)
                  for i in range(10)]
        for graph in graphs + [stack_graphs(graphs)]:
            assert not assert_table_holds_the_lists(graph)


def test_lockstep_rejects_inputs_that_do_not_fit_the_stack():
    graphs = [random_geometric_snapshot(seed) for seed in range(3)]
    stacked = stack_graphs(graphs)
    energies = np.full((3, 100), 0.03)
    with pytest.raises(ValueError, match="shape"):
        construct_trees(stacked, energies[:2], [1, 2, 3])
    with pytest.raises(ValueError, match="shape"):
        construct_trees(stacked, energies, [])
    with pytest.raises(ValueError, match="finite"):
        construct_trees(stacked, np.where(np.eye(3, 100, dtype=bool), np.nan, energies),
                        [1, 2, 3])
    nodes = seeded_nodes(0)
    dead = build_graph(Nodes(nodes.positions, nodes.energies, np.zeros(100, dtype=bool)), 25.0)
    with pytest.raises(ValueError, match="no alive node"):
        construct_trees(stack_graphs([graphs[0], dead]), energies[:2], [1, 2])
    with pytest.raises(ValueError, match="node count"):
        stack_graphs([graphs[0], random_geometric_snapshot(0, n=50)])
