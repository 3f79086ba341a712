"""The grid-cell graph, the frontier connectivity test and the buffered chain
against their dense all-pairs reference.

``build_graph``, ``is_connected`` and ``build_chain`` must give exactly what
the O(n^2) versions in tests/reference_network.py give: the same adjacency
tuples, the same connectivity verdict and the same chain order. The cases
cover seeded deployments at three ranges with and without dead nodes,
lattices whose pairs sit exactly at the range and on cell edges, coincident
points, a range longer than the field's diagonal, a non-square field, a
single node and one 2,000-node deployment.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import reference_network as ref

from gathersim import (FieldConfig, NetworkSnapshot, NodeState, build_chain, build_graph,
                       deploy, derive_seed, is_connected, positions_of)

SINK = (50.0, 300.0)


def with_dead(nodes, seed, fraction=0.2):
    rng = np.random.default_rng(seed)
    dead = rng.random(len(nodes)) < fraction
    return [dataclasses.replace(n, alive=False) if d else n for n, d in zip(nodes, dead)]


def nodes_at(points):
    return [NodeState(i, (float(x), float(y)), 1.0) for i, (x, y) in enumerate(points)]


def lattice(step, count, origin=(0.0, 0.0)):
    return nodes_at((origin[0] + i * step, origin[1] + j * step)
                    for i in range(count) for j in range(count))


def assert_matches_reference(nodes, range_m, sink=SINK):
    graph = build_graph(nodes, range_m)
    expected = ref.build_graph(nodes, range_m)
    assert graph.adjacency == expected.adjacency
    # the caches seeded by build_graph equal the ones derived from the lists
    plain = NetworkSnapshot(list(nodes), float(range_m), graph.adjacency)
    assert np.array_equal(graph.degrees, plain.degrees)
    assert graph.degrees.dtype == plain.degrees.dtype
    assert len(graph.neighbor_arrays) == len(plain.neighbor_arrays)
    for got, want in zip(graph.neighbor_arrays, plain.neighbor_arrays):
        assert np.array_equal(got, want) and got.dtype == want.dtype
    alive = graph.alive
    if alive.any():
        assert is_connected(graph) == ref.is_connected(expected)
        positions = positions_of(nodes)
        assert build_chain(positions, sink, alive).order == \
            ref.build_chain(positions, sink, alive).order
    return graph


@pytest.mark.parametrize("range_m", [15.0, 25.0, 40.0])
@pytest.mark.parametrize("dead", [False, True])
def test_seeded_deployments(range_m, dead):
    for i in range(40):
        nodes = deploy(FieldConfig(), derive_seed(7, i))
        if dead:
            nodes = with_dead(nodes, i)
        assert_matches_reference(nodes, range_m)


@pytest.mark.parametrize("step_over_range", [1.0, 0.5, 0.25, 2 / 3])
@pytest.mark.parametrize("range_m", [25.0, 0.1, 3.0])
def test_lattice_pairs_exactly_at_the_range_and_on_cell_edges(step_over_range, range_m):
    graph = assert_matches_reference(lattice(range_m * step_over_range, 9), range_m)
    if step_over_range == 1.0 and range_m == 25.0:
        assert graph.adjacency[0] == (1, 9)  # both pairs at exactly the range
    assert_matches_reference(lattice(range_m * step_over_range, 9, origin=(-100.0, 37.5)),
                             range_m)


def test_lattice_nudged_by_one_ulp_across_the_range():
    base = np.array([(i * 25.0, j * 25.0) for i in range(6) for j in range(6)])
    for direction in (-np.inf, np.inf):
        assert_matches_reference(nodes_at(np.nextafter(base, direction)), 25.0)
        assert_matches_reference(nodes_at(np.nextafter(base * 1e6, direction)), 25e6)


@pytest.mark.parametrize("step", [12.5, 0.1, 0.3])
def test_rounded_lattice_chains_break_ties_toward_the_lower_id(step):
    # with a step of 0.1 or 0.3, distinct squared distances often share a
    # square root, so ties come from the rounding of the root as well
    rng = np.random.default_rng(3)
    for _ in range(30):
        points = np.round(rng.random((60, 2)) * 8) * step
        assert_matches_reference(nodes_at(points), 2 * step)


@pytest.mark.parametrize("axis", [0, 1])
def test_pairs_at_the_range_at_every_phase_of_the_cells(axis):
    # pair k is (a_k, a_k + r) on a row of its own, exactly r apart; a_k
    # sweeps half a range in steps of r/2048, so some pairs straddle any cell
    # edge that lies there
    r = 32.0
    a = 0.5 * r + np.arange(1025) * (r / 2048)
    rows = np.arange(a.size) * 3 * r
    points = np.concatenate([np.stack([a, rows], axis=1), np.stack([a + r, rows], axis=1),
                             [(0.0, -3 * r)]])
    graph = assert_matches_reference(nodes_at(points[:, ::-1] if axis else points), r)
    assert all(len(nbrs) == 1 for nbrs in graph.adjacency[:-1])


def test_coincident_points():
    points = [(10.0, 10.0)] * 5 + [(30.0, 10.0)] * 3 + [(90.0, 90.0)] * 2
    graph = assert_matches_reference(nodes_at(points), 25.0)
    assert graph.adjacency[0] == (1, 2, 3, 4, 5, 6, 7)
    assert not is_connected(graph)


def test_range_longer_than_the_diagonal_gives_the_complete_graph():
    nodes = deploy(FieldConfig(node_count=60), 11)
    graph = assert_matches_reference(nodes, 150.0)
    assert all(len(nbrs) == 59 for nbrs in graph.adjacency)
    assert_matches_reference(nodes, 1e300)


def test_non_square_field():
    field = FieldConfig(width=120.0, height=80.0, node_count=150)
    for i in range(20):
        nodes = deploy(field, derive_seed(5, i))
        assert_matches_reference(nodes, 25.0)
        assert_matches_reference(with_dead(nodes, i), 18.0)


def test_single_node_and_all_dead_but_one():
    assert assert_matches_reference(nodes_at([(3.0, 4.0)]), 25.0).adjacency == ((),)
    nodes = with_dead(deploy(FieldConfig(node_count=10), 2), 0, fraction=1.0)
    nodes[4] = dataclasses.replace(nodes[4], alive=True)
    assert_matches_reference(nodes, 25.0)


def test_no_alive_node():
    nodes = with_dead(deploy(FieldConfig(node_count=5), 2), 0, fraction=1.0)
    assert assert_matches_reference(nodes, 25.0).adjacency == ((),) * 5


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_chain_with_distances_past_the_float_range():
    # every squared hop overflows to inf, so each step takes the lowest unvisited id
    points = [(0.0, 0.0), (3e200, 0.0), (-3e200, 1e200), (0.0, 4e200), (1.0, 1.0)]
    positions = np.array(points)
    assert build_chain(positions, SINK).order == ref.build_chain(positions, SINK).order


def test_large_round1_sized_deployment():
    field = FieldConfig(width=447.2, height=447.2, node_count=2000, sink_position=(223.6, 647.2))
    nodes = with_dead(deploy(field, 1), 1, fraction=0.05)
    assert_matches_reference(nodes, 25.0, sink=field.sink_position)


def test_graph_of_20000_nodes_stays_far_below_the_dense_footprint():
    # the all-pairs difference array alone would need 20,000^2 * 16 B = 6.4 GB
    nodes = deploy(FieldConfig(width=1414.0, height=1414.0, node_count=20_000), 3)
    tracemalloc.start()
    try:
        graph = build_graph(nodes, 25.0)
        connected = is_connected(graph)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(connected, bool)
    assert 15.0 < graph.degrees.mean() < 21.0
    assert peak < 128 * 2**20, f"peak {peak / 2**20:.1f} MB"
