import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gathersim import (FieldConfig, Nodes, NodeState, SimConfig, build_graph, deploy,
                       derive_seed, is_connected, read_placement, run_experiment,
                       write_placement)
from gathersim.cli import PER_ROUND_COLUMNS, per_round_rows, render
from helpers_oracles import pair_within_range_probability


def test_field_config_validation():
    with pytest.raises(ValueError):
        FieldConfig(width=0).validate()
    with pytest.raises(ValueError):
        FieldConfig(height=-1).validate()
    with pytest.raises(ValueError):
        FieldConfig(node_count=0).validate()


def test_deploy_single_node_inside_field():
    for seed in (0, 1, 99):
        nodes = deploy(FieldConfig(node_count=1), seed)
        assert nodes.positions.shape == (1, 2)
        assert ((0 <= nodes.positions) & (nodes.positions <= 100)).all()
        assert nodes.energies.tolist() == [1.0]
        assert nodes.alive.tolist() == [True]


def test_deploy_is_deterministic():
    cfg = FieldConfig()
    a, b = deploy(cfg, 777), deploy(cfg, 777)
    assert a.positions.tobytes() == b.positions.tobytes()
    assert a.energies.tobytes() == b.energies.tobytes()
    assert np.array_equal(a.alive, b.alive)
    assert not np.array_equal(a.positions, deploy(cfg, 778).positions)


def test_deploy_holds_arrays_not_per_node_objects():
    nodes = deploy(FieldConfig(node_count=500), 4, initial_energy=0.5)
    assert nodes.positions.shape == (500, 2) and nodes.positions.dtype == float
    assert nodes.energies.shape == (500,) and nodes.energies.dtype == float
    assert nodes.alive.shape == (500,) and nodes.alive.dtype == bool
    # three arrays of plain numbers and nothing else
    assert set(vars(nodes)) == {"positions", "energies", "alive"}
    assert all(a.dtype != object for a in vars(nodes).values())


def test_deploy_and_graph_of_20000_nodes_stay_small():
    # measured on numpy 2.4, Python 3.11 (per-node objects and tuples, as
    # deploy and build_graph once built them, in brackets): deploy peaks at
    # 0.7-1.4 MB (6.4-7.2 MB); with build_graph the peak is 30.2-30.9 MB
    # (40.5-41.4 MB) and 3.9-4.6 MB stay held (25.7-26.6 MB)
    field = FieldConfig(width=1414.0, height=1414.0, node_count=20_000)
    tracemalloc.start()
    try:
        nodes = deploy(field, 3)
        _, deploy_peak = tracemalloc.get_traced_memory()
        graph = build_graph(nodes, 25.0)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert graph.node_count == 20_000
    assert deploy_peak < 3 * 2**20, f"deploy peak {deploy_peak / 2**20:.1f} MB"
    assert peak < 40 * 2**20, f"peak {peak / 2**20:.1f} MB"
    assert held < 8 * 2**20, f"held {held / 2**20:.1f} MB"


def test_graph_owns_its_arrays():
    nodes = deploy(FieldConfig(node_count=50), 6)
    graph = build_graph(nodes, 25.0)
    positions = nodes.positions.copy()
    nodes.alive[:10] = False
    nodes.positions[:] = 0.0
    assert graph.alive.all() and np.array_equal(graph.positions, positions)
    for array in (graph.positions, graph.alive, graph.indptr, graph.indices):
        assert not array.flags.writeable


def test_deploy_rejects_bad_inputs():
    with pytest.raises(ValueError):
        deploy(FieldConfig(node_count=0), 1)
    with pytest.raises(ValueError):
        deploy(FieldConfig(), 1, initial_energy=-0.5)


def test_deploy_mean_x_matches_uniform_law():
    # law-of-large-numbers check, computed at test time
    xs = []
    for s in range(1000):
        xs.extend(deploy(FieldConfig(), derive_seed(31, s)).positions[:, 0])
    assert abs(np.mean(xs) - 50.0) <= 2.0


@pytest.mark.parametrize("width, height, range_m", [(100.0, 100.0, 25.0), (120.0, 80.0, 30.0)])
def test_pair_within_range_closed_form_matches_monte_carlo(width, height, range_m):
    # numpy-only sampling of uniform point pairs, independent of gathersim
    pairs = 1_000_000
    rng = np.random.default_rng(20260810)
    a = rng.random((pairs, 2)) * (width, height)
    b = rng.random((pairs, 2)) * (width, height)
    d2 = ((a - b) ** 2).sum(axis=1)
    p_hat = float(np.mean(d2 <= range_m * range_m))
    se = np.sqrt(p_hat * (1 - p_hat) / pairs)
    assert abs(pair_within_range_probability(width, height, range_m) - p_hat) <= 4 * se
    # the unbounded-plane figure pi r^2 / A sits far outside that band
    assert abs(np.pi * range_m**2 / (width * height) - p_hat) > 20 * se


def _two_nodes(d):
    return Nodes.from_states([NodeState(0, (0.0, 0.0), 1.0), NodeState(1, (d, 0.0), 1.0)])


def test_edge_at_exact_range_boundary():
    g = build_graph(_two_nodes(25.0), 25.0)
    assert g.adjacency == ((1,), (0,))


def test_no_edge_just_past_range():
    g = build_graph(_two_nodes(25.0 + 1e-9), 25.0)
    assert g.adjacency == ((), ())


def test_build_graph_rejects_nonpositive_range():
    with pytest.raises(ValueError):
        build_graph(_two_nodes(1.0), 0.0)


def test_dead_nodes_excluded_from_adjacency():
    nodes = [NodeState(0, (0.0, 0.0), 1.0), NodeState(1, (1.0, 0.0), 0.0, alive=False),
             NodeState(2, (2.0, 0.0), 1.0)]
    g = build_graph(Nodes.from_states(nodes), 2.5)
    assert g.adjacency == ((2,), (), (0,))


def test_is_connected_trivial_cases():
    assert is_connected(build_graph(Nodes.from_states([NodeState(0, (1.0, 1.0), 1.0)]), 5.0))
    assert not is_connected(build_graph(_two_nodes(50.0), 25.0))
    assert is_connected(build_graph(_two_nodes(10.0), 25.0))


def test_is_connected_requires_alive_node():
    g = build_graph(Nodes.from_states([NodeState(0, (0.0, 0.0), 1.0, alive=False)]), 1.0)
    with pytest.raises(ValueError):
        is_connected(g)


def test_is_connected_skips_dead_nodes():
    # the dead hub would join the sides; without it they are separate
    nodes = [NodeState(0, (0.0, 0.0), 1.0),
             NodeState(1, (10.0, 0.0), 0.0, alive=False),
             NodeState(2, (20.0, 0.0), 1.0)]
    assert not is_connected(build_graph(Nodes.from_states(nodes), 12.0))


@st.composite
def point_sets(draw):
    n = draw(st.integers(min_value=1, max_value=25))
    coords = draw(st.lists(
        st.tuples(st.floats(0, 100, allow_nan=False), st.floats(0, 100, allow_nan=False)),
        min_size=n, max_size=n))
    return Nodes.from_states([NodeState(i, xy, 1.0) for i, xy in enumerate(coords)])


@given(point_sets(), st.floats(min_value=0.5, max_value=150))
@settings(max_examples=60, deadline=None)
def test_adjacency_symmetric_sorted_loopless(nodes, range_m):
    g = build_graph(nodes, range_m)
    for u, nbrs in enumerate(g.adjacency):
        assert list(nbrs) == sorted(nbrs)
        assert u not in nbrs
        for v in nbrs:
            assert u in g.adjacency[v]


@given(point_sets(), st.floats(min_value=0.5, max_value=80), st.floats(min_value=0, max_value=80))
@settings(max_examples=60, deadline=None)
def test_raising_range_only_adds_edges(nodes, range_m, extra):
    small = build_graph(nodes, range_m)
    large = build_graph(nodes, range_m + extra)
    for u in range(small.node_count):
        assert set(small.adjacency[u]) <= set(large.adjacency[u])
    if is_connected(small):
        assert is_connected(large)


def test_placement_roundtrip(tmp_path):
    nodes = deploy(FieldConfig(node_count=7), 5, initial_energy=0.25)
    path = tmp_path / "nodes.txt"
    write_placement(nodes, path)
    states = read_placement(path)
    assert [s.id for s in states] == list(range(7))
    back = Nodes.from_states(states)
    assert back.positions.tobytes() == nodes.positions.tobytes()
    assert back.energies.tobytes() == nodes.energies.tobytes()
    assert back.alive.tobytes() == nodes.alive.tobytes()


@pytest.mark.parametrize("protocol", ["emln", "leach", "pegasis-tdma", "pegasis-cdma",
                                      "direct"])
def test_placement_file_run_repeats_the_seeded_run(protocol, tmp_path):
    # trial 0 deploys with derive_seed(derive_seed(master, 0), 0); the same
    # nodes read back from a file must give the same per-round CSV
    config = SimConfig(field=FieldConfig(node_count=60), protocol=protocol,
                       initial_energy=0.02, master_seed=17, stop_rule="energy-exhausted")
    path = tmp_path / "nodes.txt"
    write_placement(deploy(config.field, derive_seed(derive_seed(17, 0), 0), 0.02), path)
    override = dataclasses.replace(config, nodes_override=tuple(read_placement(path)))

    def per_round_csv(cfg):
        reports = run_experiment(cfg, keep_reports=True).reports
        return render(per_round_rows(reports), PER_ROUND_COLUMNS, "csv")

    seeded = per_round_csv(config)
    assert seeded.count("\n") > 2
    assert per_round_csv(override) == seeded


def test_placement_rejects_bad_files(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("0 1.0 2.0\n")
    with pytest.raises(ValueError):
        read_placement(p)
    p.write_text("0 1.0 2.0 1.0\n2 0.0 0.0 1.0\n")
    with pytest.raises(ValueError):
        read_placement(p)
    p.write_text("0 1.0 2.0 1.0\n0 0.0 0.0 1.0\n")
    with pytest.raises(ValueError):
        read_placement(p)
