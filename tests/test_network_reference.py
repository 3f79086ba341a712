"""The grid-cell graph, the frontier connectivity test and the neighbour-list
chain against their dense all-pairs reference.

``build_graph``, ``is_connected`` and ``build_chain`` must give exactly what
the O(n^2) versions in tests/reference_network.py give: the same adjacency,
as CSR arrays and as tuples, the same connectivity verdict and the same
chain order. The reference reads NodeState lists, so each deployment is
handed to it as one. The cases
cover seeded deployments at three ranges with and without dead nodes,
lattices whose pairs sit exactly at the range and on cell edges, coincident
points, a range longer than the field's diagonal, a non-square field, a
single node and one 2,000-node deployment; the connectivity test also runs
on clumped layouts whose lists spill past the neighbor table's width, with
and without dead nodes. The chain has cases of its own:
collinear and coincident nodes (no neighbour lists), two nodes, dead nodes
at 2,000 nodes, clumps whose lists run out, a candidate exactly at the list
radius and an 8,000-node deployment.

The grid search behind both, ``_pairs_within``, is checked on its own
against a dense all-pairs oracle: the pair set on the lattice cases above
and on random layouts with coincident points, and its squared distances bit
for bit. The chain's neighbour lists are checked against a reference sort
by (owner, distance, id), on layouts with equal distances in one list and
on one with more nodes than 16-bit owner keys hold.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import reference_network as ref
from test_emln_reference import clumped_graph

from gathersim import (FieldConfig, Nodes, NodeState, build_chain, build_graph, deploy,
                       derive_seed, is_connected, positions_of)
from gathersim.baselines import _neighbour_lists
from gathersim.network import _pairs_within

SINK = (50.0, 300.0)


@dataclasses.dataclass
class ListGraph:
    """The list-based snapshot that the reference ``build_graph`` returns."""

    nodes: list
    range_m: float
    adjacency: tuple

    @property
    def node_count(self):
        return len(self.nodes)

    @property
    def alive(self):
        return np.array([n.alive for n in self.nodes], dtype=bool)


@pytest.fixture(autouse=True)
def list_based_reference(monkeypatch):
    # the reference reads NodeState lists and returns the list-based snapshot
    # it was written for: give it those readers and that snapshot
    monkeypatch.setattr(ref, "NetworkSnapshot", ListGraph)
    monkeypatch.setattr(ref, "positions_of",
                        lambda states: np.array([s.position for s in states], dtype=float))
    monkeypatch.setattr(ref, "alive_of",
                        lambda states: np.array([s.alive for s in states], dtype=bool))


def states_of(nodes):
    return [NodeState(i, (x, y), energy, alive) for i, ((x, y), energy, alive) in
            enumerate(zip(nodes.positions.tolist(), nodes.energies.tolist(),
                          nodes.alive.tolist()))]


def with_dead(nodes, seed, fraction=0.2):
    rng = np.random.default_rng(seed)
    dead = rng.random(nodes.alive.size) < fraction
    return Nodes(nodes.positions, nodes.energies, nodes.alive & ~dead)


def nodes_at(points):
    positions = np.array(list(points), dtype=float).reshape(-1, 2)
    return Nodes(positions, np.ones(len(positions)), np.ones(len(positions), dtype=bool))


def lattice(step, count, origin=(0.0, 0.0)):
    return nodes_at((origin[0] + i * step, origin[1] + j * step)
                    for i in range(count) for j in range(count))


def assert_matches_reference(nodes, range_m, sink=SINK):
    graph = build_graph(nodes, range_m)
    expected = ref.build_graph(states_of(nodes), range_m)
    assert graph.adjacency == expected.adjacency
    # the CSR arrays hold exactly the reference lists, and the gather gives each list
    lists, n = expected.adjacency, graph.node_count
    assert graph.indptr.tolist() == np.cumsum([0] + [len(nbrs) for nbrs in lists]).tolist()
    assert graph.indices.tolist() == [v for nbrs in lists for v in nbrs]
    assert graph.indices.dtype == graph.degrees.dtype == np.int64
    assert graph.degrees.tolist() == [len(nbrs) for nbrs in lists]
    for u, want in enumerate(lists):
        assert graph.indices[graph.indptr[u]:graph.indptr[u + 1]].tolist() == list(want)
        got = graph.neighbors_of(np.array([u]))
        assert got.dtype == np.int64 and sorted(got[got < n].tolist()) == list(want)
    assert graph.neighbor_table is graph.neighbor_table  # built once per graph
    alive = graph.alive
    if alive.any():
        assert is_connected(graph) == ref.is_connected(expected)
        positions = positions_of(nodes)
        assert tuple(build_chain(positions, sink, alive).tolist()) == \
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
    nodes.alive[4] = True
    assert_matches_reference(nodes, 25.0)


def test_no_alive_node():
    nodes = with_dead(deploy(FieldConfig(node_count=5), 2), 0, fraction=1.0)
    assert assert_matches_reference(nodes, 25.0).adjacency == ((),) * 5


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_chain_with_distances_past_the_float_range():
    # every squared hop overflows to inf, so each step takes the lowest unvisited id
    points = [(0.0, 0.0), (3e200, 0.0), (-3e200, 1e200), (0.0, 4e200), (1.0, 1.0)]
    positions = np.array(points)
    assert tuple(build_chain(positions, SINK).tolist()) == ref.build_chain(positions, SINK).order


def test_large_round1_sized_deployment():
    field = FieldConfig(width=447.2, height=447.2, node_count=2000, sink_position=(223.6, 647.2))
    nodes = with_dead(deploy(field, 1), 1, fraction=0.05)
    assert_matches_reference(nodes, 25.0, sink=field.sink_position)


@pytest.mark.parametrize("seed", [0, 1, 3])
@pytest.mark.parametrize("dead", [False, True])
def test_connectivity_reads_the_spilled_lists(seed, dead):
    # the clump's lists are longer than the table's width, and its nodes
    # reach the spread nodes only through the spilled tails; seed 1's spread
    # nodes are not all connected
    graph = clumped_graph(seed)
    if dead:  # every fourth clump node and every 50th node in all
        ids = np.arange(graph.node_count)
        alive = ~(((ids < 150) & (ids % 4 == 1)) | (ids % 50 == 7))
        graph = build_graph(Nodes(graph.positions, np.full(ids.size, 0.03), alive), 25.0)
    assert graph.neighbor_table[1]  # some list spills
    assert is_connected(graph) == ref.is_connected(graph)


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


def assert_chain_matches_reference(positions, sink=SINK, alive=None):
    positions = np.asarray(positions, dtype=float)
    chain = tuple(build_chain(positions, sink, alive).tolist())
    assert chain == ref.build_chain(positions, sink, alive).order
    return chain


def list_radius(points):
    # the radius build_chain gives its neighbour lists, for all nodes alive
    width, height = np.ptp(points, axis=0)
    return 2.0 * np.sqrt(width * height / len(points))


@pytest.mark.parametrize("seed", range(4))
def test_chain_of_collinear_nodes(seed):
    rng = np.random.default_rng(seed)
    t = np.round(rng.random(300) * 400) / 4  # repeated values give ties
    # a horizontal line spans a box of zero area; a sloped one does not
    assert_chain_matches_reference(np.stack([t, np.full_like(t, 20.0)], axis=1))
    assert_chain_matches_reference(np.stack([t, 0.5 * t + 3.0], axis=1))


def test_chain_of_coincident_nodes():
    chain = assert_chain_matches_reference(np.full((50, 2), 7.5))
    assert chain == tuple(range(50))


def test_chain_of_two_nodes():
    assert assert_chain_matches_reference([(10.0, 10.0), (20.0, 15.0)]) == (0, 1)
    assert assert_chain_matches_reference([(10.0, 300.0), (20.0, 15.0)]) == (1, 0)
    assert assert_chain_matches_reference([(5.0, 5.0), (5.0, 5.0)]) == (0, 1)


def test_chain_of_2000_nodes_with_dead_ones():
    field = FieldConfig(width=447.2, height=447.2, node_count=2000, sink_position=(223.6, 647.2))
    nodes = with_dead(deploy(field, 4), 4)
    alive = nodes.alive
    assert 0.15 < 1 - alive.mean() < 0.25
    assert_chain_matches_reference(positions_of(nodes), field.sink_position, alive)


def test_chain_across_clumps_far_apart():
    # three clumps of 400 nodes, each 50 m wide, 150 m apart: the lists cover
    # the clumps, and only the scan can step from a used-up clump to the next
    rng = np.random.default_rng(8)
    clumps = [rng.random((400, 2)) * 50 + (0, 200 * k) for k in range(3)]
    points = np.concatenate(clumps)[rng.permutation(1200)]
    assert len(_neighbour_lists(points)[1]) > 0
    chain = assert_chain_matches_reference(points, sink=(25.0, 1000.0))
    hops = np.hypot(*np.diff(points[list(chain)], axis=0).T)
    assert (hops > 150).sum() >= 2


def test_chain_of_one_tight_clump_uses_the_scan_in_little_memory():
    # 2,000 nodes within 1 m and one node 1 km away: the list radius spans
    # the whole clump, about 2 million candidate pairs, so there are no lists
    rng = np.random.default_rng(9)
    points = np.concatenate([rng.random((2000, 2)), [(1000.0, 1000.0)]])
    assert len(_neighbour_lists(points)[1]) == 0
    tracemalloc.start()
    try:
        chain = build_chain(points, (0.0, 2000.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tuple(chain.tolist()) == ref.build_chain(points, (0.0, 2000.0)).order
    assert chain[-1] == 2000
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_chain_candidate_exactly_at_the_list_radius():
    # corners (0, 0) and (4, 4) bound a 4 x 4 box over 16 nodes: radius 2.
    # Node 2 is at distance exactly 2 from the start, node 0, so the grid
    # search finds it; node 1 is at sqrt(4 + 2**-50), just outside the
    # search, but that distance also rounds to 2. The tie goes to the lower
    # id, node 1, which a list holding node 2 would miss.
    points = [(0.0, 0.0), (2.0**-25, 2.0), (2.0, 0.0), (4.0, 0.0), (0.0, 4.0), (4.0, 4.0)]
    points += [(3.0 + 0.1 * i, 3.5 - 0.2 * i) for i in range(10)]
    points = np.array(points)
    assert list_radius(points) == 2.0
    assert np.hypot(*points[1]) == np.hypot(*points[2]) == 2.0
    chain = assert_chain_matches_reference(points, sink=(100.0, 100.0))
    assert chain[:2] == (0, 1)


def test_chain_of_8000_nodes():
    field = FieldConfig(width=894.4, height=894.4, node_count=8000, sink_position=(447.2, 1094.4))
    assert_chain_matches_reference(positions_of(deploy(field, 6)), field.sink_position)


def test_chain_of_20000_nodes_stays_small():
    field = FieldConfig(width=1414.0, height=1414.0, node_count=20_000)
    positions = positions_of(deploy(field, 3))
    tracemalloc.start()
    try:
        chain = build_chain(positions, (707.0, 1614.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sorted(chain.tolist()) == list(range(20_000))
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"


def dense_pairs(points, range_m):
    # every pair i < j whose dx*dx + dy*dy is at most range_m**2, by all-pairs arrays
    dx = points[:, None, 0] - points[None, :, 0]
    dy = points[:, None, 1] - points[None, :, 1]
    i, j = np.nonzero(np.triu(dx * dx + dy * dy <= range_m * range_m, 1))
    return set(zip(i.tolist(), j.tolist()))


def assert_pairs_match_oracle(points, range_m):
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    a, b, d2 = _pairs_within(points, range_m)
    pairs = [(min(p, q), max(p, q)) for p, q in zip(a.tolist(), b.tolist())]
    assert len(set(pairs)) == len(pairs)  # each unordered pair once
    assert set(pairs) == dense_pairs(points, range_m)
    dx, dy = points[a, 0] - points[b, 0], points[a, 1] - points[b, 1]
    assert (dx * dx + dy * dy).tobytes() == d2.tobytes()
    return pairs


def test_pairs_match_the_dense_oracle_on_the_lattice_cases():
    for range_m in (25.0, 0.1, 3.0):
        for step_over_range in (1.0, 0.5, 0.25, 2 / 3):
            for origin in ((0.0, 0.0), (-100.0, 37.5)):
                points = lattice(range_m * step_over_range, 9, origin).positions
                assert_pairs_match_oracle(points, range_m)
    base = np.array([(i * 25.0, j * 25.0) for i in range(6) for j in range(6)])
    for direction in (-np.inf, np.inf):
        assert_pairs_match_oracle(np.nextafter(base, direction), 25.0)
        assert_pairs_match_oracle(np.nextafter(base * 1e6, direction), 25e6)
    rng = np.random.default_rng(3)
    for step in (12.5, 0.1, 0.3):
        for _ in range(10):
            assert_pairs_match_oracle(np.round(rng.random((60, 2)) * 8) * step, 2 * step)


def test_pairs_match_the_dense_oracle_on_random_layouts_with_coincident_points():
    rng = np.random.default_rng(11)
    for _ in range(40):
        points = rng.random((int(rng.integers(1, 150)), 2)) * (20.0, 60.0)
        copies = rng.integers(0, len(points), size=len(points) // 4)
        points = np.concatenate([points, points[copies]])[rng.permutation(len(points)
                                                                           + copies.size)]
        range_m = float(rng.choice([0.5, 3.0, 7.5, 100.0]))
        assert_pairs_match_oracle(points, range_m)


def test_pairs_of_one_node_and_of_none():
    assert assert_pairs_match_oracle(np.zeros((1, 2)), 5.0) == []
    a, b, d2 = _pairs_within(np.zeros((0, 2)), 5.0)
    assert a.size == b.size == d2.size == 0


def reference_lists(points):
    # each node's list of the others strictly nearer than sqrt(R*R), by
    # (distance, id), where R is build_chain's list radius; one row at a time
    radius, ids = list_radius(points), np.arange(len(points))
    lists = []
    for i, (x, y) in enumerate(points):
        dx, dy = points[:, 0] - x, points[:, 1] - y
        d = np.sqrt(dx * dx + dy * dy)
        near = (d < np.sqrt(radius * radius)) & (ids != i)
        lists.append(ids[near][np.lexsort((ids[near], d[near]))].tolist())
    return lists


def assert_lists_match(points, expected):
    bounds, nbrs = _neighbour_lists(points)
    bounds, nbrs = list(bounds), list(nbrs)
    assert bounds == np.cumsum([0] + [len(entries) for entries in expected]).tolist()
    assert nbrs == [j for entries in expected for j in entries]


@pytest.mark.parametrize("n", [2, 30, 100, 300, 2000])
def test_neighbour_lists_match_a_reference_sort(n):
    rng = np.random.default_rng(n)
    for _ in range(3 if n < 2000 else 1):
        points = rng.random((n, 2)) * (100.0, 70.0)
        assert_lists_match(points, reference_lists(points))


def test_neighbour_lists_with_equal_distances_in_one_list():
    # a rounded lattice: many lists hold several nodes at one distance, which
    # the lists order by id
    rng = np.random.default_rng(5)
    points = np.round(rng.random((80, 2)) * 10) * 0.3
    expected = reference_lists(points)
    ties = 0
    for i, entries in enumerate(expected):
        dx, dy = (points[entries] - points[i]).T
        d = np.sqrt(dx * dx + dy * dy)
        ties += int((d[1:] == d[:-1]).sum())
    assert ties > 0
    assert_lists_match(points, expected)


def test_neighbour_lists_of_more_nodes_than_16_bit_owner_ids_hold():
    # above 65,536 nodes the owners are sorted as 32-bit keys; the pairs come
    # from the grid search, which the tests above check against the oracle
    n = 66_000
    points = np.random.default_rng(2).random((n, 2)) * np.sqrt(n) * 10
    radius = list_radius(points)
    a, b, _ = _pairs_within(points, radius)
    owner, other = np.concatenate((a, b)), np.concatenate((b, a))
    dx, dy = (points[owner] - points[other]).T
    d = np.sqrt(dx * dx + dy * dy)
    near = d < np.sqrt(radius * radius)
    order = np.lexsort((other[near], d[near], owner[near]))
    bounds, nbrs = _neighbour_lists(points)
    assert list(bounds) == np.searchsorted(owner[near][order], np.arange(n + 1)).tolist()
    assert np.array_equal(np.asarray(nbrs), other[near][order])
