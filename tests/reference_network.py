"""Dense all-pairs versions of the neighbour layers, kept as the reference for tests.

``build_graph``, ``is_connected`` and ``build_chain`` below are the original
O(n^2) implementations, copied unchanged except that ``build_graph`` no
longer seeds a dense-matrix cache on the snapshot (the snapshot has none) and
``is_connected`` builds its dense matrix from the adjacency lists itself.
``build_chain`` returns the chain record of its time, ``Chain`` from
tests/reference_baselines.py. The grid-cell versions in ``gathersim.network``
and the neighbour-list chain in ``gathersim.baselines`` must match them
exactly (tests/test_network_reference.py).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from reference_baselines import Chain

from gathersim.network import NetworkSnapshot, NodeState, alive_of, positions_of


def dense_adjacency(graph: NetworkSnapshot) -> np.ndarray:
    """Dense symmetric boolean adjacency, False on the diagonal."""
    n = graph.node_count
    mat = np.zeros((n, n), dtype=bool)
    for u, nbrs in enumerate(graph.adjacency):
        mat[u, list(nbrs)] = True
    return mat


def build_graph(nodes: Sequence[NodeState], range_m: float) -> NetworkSnapshot:
    """Connect every pair of alive nodes within ``range_m`` of each other.

    The comparison is inclusive (distance exactly equal to the range makes an
    edge); squared distances are compared internally. Dead nodes get empty
    adjacency and are excluded from everyone else's lists.
    """
    if range_m <= 0:
        raise ValueError("range must be positive")
    pos = positions_of(nodes)
    alive = alive_of(nodes)
    diff = pos[:, None, :] - pos[None, :, :]
    within = (diff * diff).sum(axis=-1) <= range_m * range_m
    within &= alive[:, None] & alive[None, :]
    np.fill_diagonal(within, False)
    adjacency = tuple(tuple(np.flatnonzero(row).tolist()) for row in within)
    return NetworkSnapshot(list(nodes), float(range_m), adjacency)


def is_connected(graph: NetworkSnapshot) -> bool:
    """True iff every alive node is reachable from every other alive node."""
    alive = graph.alive
    alive_count = int(alive.sum())
    if alive_count == 0:
        raise ValueError("graph has no alive node")
    mat = dense_adjacency(graph)
    reached = np.zeros(graph.node_count, dtype=bool)
    reached[int(np.flatnonzero(alive)[0])] = True
    while True:
        frontier = mat[reached].any(axis=0) & ~reached
        if not frontier.any():
            break
        reached |= frontier
    return int(reached.sum()) == alive_count


def build_chain(positions, sink, alive=None) -> Chain:
    """Chain the nodes greedily, starting from the one farthest from the sink.

    Repeatedly appends the unvisited node nearest to the last appended one;
    ties break toward the lower id. Each node appears exactly once. Hop
    lengths tend to grow toward the end of the chain, since the greedy rule
    leaves the stragglers for last.
    """
    positions = np.asarray(positions, dtype=float)
    alive = np.ones(len(positions), dtype=bool) if alive is None else np.asarray(alive, dtype=bool)
    ids = np.flatnonzero(alive)
    if ids.size == 0:
        raise ValueError("need at least one alive node")
    sink = np.asarray(sink, dtype=float)
    start = int(ids[np.argmax(np.linalg.norm(positions[ids] - sink, axis=1))])

    unvisited = alive.copy()
    unvisited[start] = False
    order = [start]
    for _ in range(ids.size - 1):
        rest = np.flatnonzero(unvisited)
        d = np.linalg.norm(positions[rest] - positions[order[-1]], axis=1)
        nxt = int(rest[np.argmin(d)])
        unvisited[nxt] = False
        order.append(nxt)
    return Chain(tuple(order))
