"""Shared graph-building and output-parsing helpers for the test suite."""

from __future__ import annotations

import csv

import numpy as np

from gathersim import (ExperimentAggregate, NetworkSnapshot, Nodes, build_graph, deploy,
                       derive_seed)
from gathersim.cli import AGGREGATE_COLUMNS
from gathersim.network import FieldConfig
from gathersim.seeding import RoundStream


def snapshot_from_adjacency(adj_lists, positions=None) -> NetworkSnapshot:
    """Hand-built snapshot for algorithm tests that only need adjacency.

    Bypasses the geometric construction so arbitrary (not necessarily
    unit-disk) graphs can be fed to the tree algorithm and validator. Every
    node is alive; the lists become the snapshot's CSR arrays.
    """
    n = len(adj_lists)
    if positions is None:
        positions = [(float(i), 0.0) for i in range(n)]
    lists = [sorted(nbrs) for nbrs in adj_lists]
    indptr = np.cumsum([0] + [len(nbrs) for nbrs in lists])
    indices = np.array([v for nbrs in lists for v in nbrs], dtype=np.int64)
    return NetworkSnapshot(np.array(positions, dtype=float).reshape(n, 2),
                           np.ones(n, dtype=bool), 1.0, indptr, indices)


def path_adjacency(n):
    return [sorted(v for v in (i - 1, i + 1) if 0 <= v < n) for i in range(n)]


def star_adjacency(spokes):
    return [list(range(1, spokes + 1))] + [[0] for _ in range(spokes)]


def random_connected_adjacency(rng: np.random.Generator, n: int, edge_p: float = 0.45):
    """Random connected labelled graph: a random spanning tree plus extras."""
    adj = [set() for _ in range(n)]
    order = rng.permutation(n)
    for i in range(1, n):
        a = int(order[i])
        b = int(order[int(rng.integers(i))])
        adj[a].add(b)
        adj[b].add(a)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < edge_p:
                adj[u].add(v)
                adj[v].add(u)
    return [sorted(s) for s in adj]


def seeded_nodes(seed: int, n: int = 100, field: FieldConfig | None = None) -> Nodes:
    return deploy(field or FieldConfig(node_count=n), derive_seed(4242, seed))


def random_geometric_snapshot(seed: int, n: int = 100, range_m: float = 25.0,
                              field: FieldConfig | None = None) -> NetworkSnapshot:
    return build_graph(seeded_nodes(seed, n, field), range_m)


def read_aggregate_csv(path) -> list[ExperimentAggregate]:
    """Parse an aggregate CSV written by the CLI back into its rows."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert tuple(header) == AGGREGATE_COLUMNS
    return [ExperimentAggregate(row[0], float(row[1]), int(row[2]), *map(float, row[3:9]),
                                float(row[9]) if row[9] else None) for row in rows]


def count_loads(monkeypatch) -> list[int]:
    """Record the attempt of every ``RoundStream`` Generator load from now on."""
    loads = []
    load = RoundStream.__call__
    monkeypatch.setattr(RoundStream, "__call__", lambda self, a: loads.append(a) or load(self, a))
    return loads
