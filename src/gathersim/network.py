"""Node deployment, range-induced graph construction, connectivity tests."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .seeding import make_rng


@dataclass(frozen=True)
class FieldConfig:
    """Rectangular deployment field with a (usually off-field) sink."""

    width: float = 100.0
    height: float = 100.0
    node_count: int = 100
    sink_position: tuple[float, float] = (50.0, 300.0)

    def validate(self) -> None:
        if not all(map(math.isfinite, (self.width, self.height, *self.sink_position))):
            raise ValueError("field dimensions and sink position must be finite")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("field dimensions must be positive")
        if self.node_count < 1:
            raise ValueError("node_count must be >= 1")


@dataclass(frozen=True)
class NodeState:
    """One sensor: 0-based id, position in meters, residual energy in Joules."""

    id: int
    position: tuple[float, float]
    energy: float
    alive: bool = True


def deploy(config: FieldConfig, seed: int, initial_energy: float = 1.0) -> list[NodeState]:
    """Place ``node_count`` nodes uniformly at random inside the field.

    Pure function of (config, seed, initial_energy): identical inputs give a
    bit-identical node list. Coordinates are drawn as one (n, 2) block from
    PCG64 and scaled by (width, height).
    """
    config.validate()
    if initial_energy < 0:
        raise ValueError("initial_energy must be >= 0")
    rng = make_rng(seed)
    coords = rng.random((config.node_count, 2)) * np.array([config.width, config.height])
    return [
        NodeState(i, (float(x), float(y)), float(initial_energy))
        for i, (x, y) in enumerate(coords)
    ]


def positions_of(nodes: Sequence[NodeState]) -> np.ndarray:
    """(n, 2) float array of node positions."""
    return np.array([n.position for n in nodes], dtype=float)


def energies_of(nodes: Sequence[NodeState]) -> np.ndarray:
    return np.array([n.energy for n in nodes], dtype=float)


def alive_of(nodes: Sequence[NodeState]) -> np.ndarray:
    return np.array([n.alive for n in nodes], dtype=bool)


@dataclass
class NetworkSnapshot:
    """Range-induced graph over a deployment; read-only after construction.

    An edge joins two distinct alive nodes whose Euclidean separation is at
    most ``range_m``. ``adjacency`` holds one ascending neighbor-id tuple per
    node (empty for dead nodes), so equal snapshots compare equal and dumps
    are stable.
    """

    nodes: list[NodeState]
    range_m: float
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @cached_property
    def positions(self) -> np.ndarray:
        return positions_of(self.nodes)

    @cached_property
    def alive(self) -> np.ndarray:
        return alive_of(self.nodes)

    @cached_property
    def energies(self) -> np.ndarray:
        return energies_of(self.nodes)

    @cached_property
    def adjacency_matrix(self) -> np.ndarray:
        """Dense symmetric boolean adjacency, False on the diagonal."""
        n = self.node_count
        mat = np.zeros((n, n), dtype=bool)
        for u, nbrs in enumerate(self.adjacency):
            mat[u, list(nbrs)] = True
        return mat

    @cached_property
    def neighbor_arrays(self) -> tuple[np.ndarray, ...]:
        """Per-node neighbor ids as int64 arrays (ascending)."""
        return tuple(np.array(nbrs, dtype=np.int64) for nbrs in self.adjacency)

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.array([len(nbrs) for nbrs in self.adjacency], dtype=np.int64)


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
    snapshot = NetworkSnapshot(list(nodes), float(range_m), adjacency)
    snapshot.__dict__["adjacency_matrix"] = within  # already computed, seed the cache
    return snapshot


def is_connected(graph: NetworkSnapshot) -> bool:
    """True iff every alive node is reachable from every other alive node."""
    alive = graph.alive
    alive_count = int(alive.sum())
    if alive_count == 0:
        raise ValueError("graph has no alive node")
    mat = graph.adjacency_matrix
    reached = np.zeros(graph.node_count, dtype=bool)
    reached[int(np.flatnonzero(alive)[0])] = True
    while True:
        frontier = mat[reached].any(axis=0) & ~reached
        if not frontier.any():
            break
        reached |= frontier
    return int(reached.sum()) == alive_count


def read_placement(path) -> list[NodeState]:
    """Read a fixed topology: one node per line, "id x y energy".

    Fields are whitespace-separated decimals; blank lines are skipped. The
    ids must form exactly 0..n-1. Used to inject known layouts into tests.
    """
    entries = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 4:
                raise ValueError(f"{path}:{lineno}: expected 'id x y energy'")
            node_id = int(parts[0])
            if node_id in entries:
                raise ValueError(f"{path}:{lineno}: duplicate id {node_id}")
            x, y, energy = (float(p) for p in parts[1:])
            if energy < 0:
                raise ValueError(f"{path}:{lineno}: negative energy")
            entries[node_id] = NodeState(node_id, (x, y), energy)
    if sorted(entries) != list(range(len(entries))):
        raise ValueError(f"{path}: node ids must be exactly 0..n-1")
    return [entries[i] for i in range(len(entries))]


def write_placement(nodes: Sequence[NodeState], path) -> None:
    """Write nodes in the placement-file format accepted by read_placement."""
    with open(path, "w") as fh:
        for n in nodes:
            fh.write(f"{n.id} {n.position[0]!r} {n.position[1]!r} {n.energy!r}\n")
