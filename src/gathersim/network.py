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
    energy = float(initial_energy)
    return [NodeState(i, (x, y), energy) for i, (x, y) in enumerate(coords.tolist())]


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
    def neighbor_arrays(self) -> tuple[np.ndarray, ...]:
        """Per-node neighbor ids as int64 arrays (ascending)."""
        return tuple(np.array(nbrs, dtype=np.int64) for nbrs in self.adjacency)

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.array([len(nbrs) for nbrs in self.adjacency], dtype=np.int64)


# Relative margin on the cell side. Rounding moves a node's cell coordinate
# by a few ulps of MAX_CELLS_PER_AXIS at most (under 1e-8 of a cell), far
# below this margin, so two nodes within range are never two cells apart.
CELL_MARGIN = 1e-6
MAX_CELLS_PER_AXIS = 2**26


def _pairs_within(pos: np.ndarray, range_m: float,
                  max_candidates: float = math.inf) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), each unordered pair once, with |pos[i] - pos[j]| <= range_m.

    Fixed-radius near neighbours on a uniform grid (Bentley, Stanat and
    Williams, 1977): nodes are binned into square cells of side just over the
    range, so every pair within range lies in one cell or in two adjacent
    cells. Candidates come from a node's own cell and four "half" neighbour
    cells, so each unordered pair is produced exactly once, and each is kept
    iff dx*dx + dy*dy <= range_m**2, the same float test as a dense
    comparison of all pairs. Raises ValueError, before the candidates are
    allocated, if there are more than ``max_candidates`` of them.
    """
    with np.errstate(over="ignore"):  # an overflowing span is rejected below
        offset = pos - pos.min(axis=0, initial=np.inf)
    extent = float(offset.max(initial=0.0))
    if not math.isfinite(extent):
        raise ValueError("node coordinates span more than the float range")
    side = max(range_m * (1 + CELL_MARGIN), extent / MAX_CELLS_PER_AXIS)
    cells = np.floor(offset / side).astype(np.int64)
    # a spare row on top, so a step of one row up from the top row or down
    # from the bottom row lands in an empty cell, not in the next column
    rows = int(cells[:, 1].max(initial=0)) + 2
    key = cells[:, 0] * rows + cells[:, 1]
    order = np.argsort(key)
    key = key[order]

    owner = np.arange(key.size)
    cell_end = np.searchsorted(key, key, side="right")
    starts, stops = [owner + 1], [cell_end]  # later nodes of the own cell
    for step in (1, rows - 1, rows, rows + 1):
        starts.append(np.searchsorted(key, key + step, side="left"))
        stops.append(np.searchsorted(key, key + step, side="right"))
    starts, stops = np.concatenate(starts), np.concatenate(stops)
    counts = stops - starts
    total = int(counts.sum())
    if total > max_candidates:
        raise ValueError(f"{total} candidate pairs, more than {max_candidates}")
    # candidate k of a run is starts + k: subtract each run's offset in the output
    first = np.repeat(np.tile(owner, 5), counts)
    second = np.arange(total) + np.repeat(starts - np.cumsum(counts) + counts, counts)

    x, y = pos[order, 0], pos[order, 1]
    dx = x[first] - x[second]
    dy = y[first] - y[second]
    keep = dx * dx + dy * dy <= range_m * range_m
    return order[first[keep]], order[second[keep]]


def build_graph(nodes: Sequence[NodeState], range_m: float) -> NetworkSnapshot:
    """Connect every pair of alive nodes within ``range_m`` of each other.

    The comparison is inclusive (distance exactly equal to the range makes an
    edge); squared distances are compared internally. Dead nodes get empty
    adjacency and are excluded from everyone else's lists. Time and memory
    grow with the number of nodes times their mean degree, not with n^2.
    """
    if not range_m > 0:
        raise ValueError("range must be positive")
    n = len(nodes)
    ids = np.flatnonzero(alive_of(nodes))
    pos = positions_of(nodes).reshape(n, 2)[ids]
    finite = np.isfinite(pos).all(axis=1)
    if not finite.all():
        bad = int(ids[np.argmin(finite)])
        raise ValueError(f"node {bad} is alive but has a non-finite position "
                         f"{nodes[bad].position}")
    a, b = _pairs_within(pos, float(range_m))
    a, b = ids[a], ids[b]
    # one sort of (source, target) keys puts each list in ascending order
    edge = np.sort(np.concatenate((a * n + b, b * n + a)))
    sources, targets = np.divmod(edge, n)
    bounds = np.searchsorted(sources, np.arange(n + 1))
    spans = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
    flat = targets.tolist()
    snapshot = NetworkSnapshot(list(nodes), float(range_m),
                               tuple(tuple(flat[lo:hi]) for lo, hi in spans))
    # already computed, seed the caches
    snapshot.__dict__["neighbor_arrays"] = tuple(targets[lo:hi] for lo, hi in spans)
    snapshot.__dict__["degrees"] = np.diff(bounds)
    return snapshot


def is_connected(graph: NetworkSnapshot) -> bool:
    """True iff every alive node is reachable from every other alive node.

    Breadth-first search over the neighbour arrays, one frontier at a time.
    """
    alive = graph.alive
    alive_count = int(alive.sum())
    if alive_count == 0:
        raise ValueError("graph has no alive node")
    neighbors = graph.neighbor_arrays
    reached = np.zeros(graph.node_count, dtype=bool)
    frontier = np.flatnonzero(alive)[:1]
    reached[frontier] = True
    while frontier.size:
        fresh = np.zeros_like(reached)
        fresh[np.concatenate([neighbors[u] for u in frontier.tolist()])] = True
        fresh &= ~reached
        reached |= fresh
        frontier = np.flatnonzero(fresh)
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
            if not all(map(math.isfinite, (x, y, energy))):
                raise ValueError(f"{path}:{lineno}: non-finite value")
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
