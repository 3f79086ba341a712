"""Node deployment, range-induced graph construction, connectivity tests."""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .seeding import make_rng


def check_numbers(record, *names: str, integer: bool = False, gt=None, ge=None, le=None) -> None:
    """Raise a ValueError starting with the field's name unless each of ``names`` is
    a finite ``numbers.Real`` within the bounds given: ``> gt``, ``>= ge``, ``<= le``.
    With ``integer`` it must be a value that ``operator.index`` takes instead:
    numpy integers pass, whole floats do not. Floats skip the slower ABC test."""
    for name in names:
        value = getattr(record, name)
        try:
            number = operator.index(value) if integer else value
            ok = ((integer or isinstance(number, (float, numbers.Real)) and math.isfinite(number))
                  and (gt is None or number > gt) and (ge is None or number >= ge)
                  and (le is None or number <= le))
        except (TypeError, OverflowError):
            ok = False
        if not ok:
            rule = " and".join(f" {op} {bound}" for op, bound in ((">", gt), (">=", ge), ("<=", le))
                           if bound is not None)
            kind = "an integer" if integer else "a finite number"
            raise ValueError(f"{name} must be {kind}{rule}, got {value!r}")


@dataclass(frozen=True)
class FieldConfig:
    """Rectangular deployment field with a (usually off-field) sink."""

    width: float = 100.0
    height: float = 100.0
    node_count: int = 100
    sink_position: tuple[float, float] = (50.0, 300.0)

    def validate(self) -> None:
        check_numbers(self, "width", "height", gt=0)
        check_numbers(self, "node_count", integer=True, ge=1)
        sink = self.sink_position
        try:  # np.shape rejects a ragged sequence; math.isfinite an int too large for a float
            ok = np.shape(sink) == (2,) and all(isinstance(c, (float, numbers.Real))
                                                and math.isfinite(c) for c in sink)
        except (ValueError, OverflowError):
            ok = False
        if not ok:
            raise ValueError(f"sink_position must be two finite numbers, got {sink!r}")


@dataclass(frozen=True)
class NodeState:
    """One sensor as placement files and ``SimConfig.nodes_override`` give it."""

    id: int
    position: tuple[float, float]
    energy: float
    alive: bool = True


class InvalidNode(ValueError):
    """A node breaks a rule of the node record; ``node`` is its id."""

    def __init__(self, node: int, problem: str):
        super().__init__(f"node {node} {problem}")
        self.node = node


@dataclass(frozen=True, eq=False)
class Nodes:
    """Node state as arrays indexed by node id: ``positions`` (n, 2) in meters,
    ``energies`` (n,) residual Joules, ``alive`` (n,) bool. Checked once, on
    construction; a trial then debits ``energies`` and clears ``alive`` in place."""

    positions: np.ndarray
    energies: np.ndarray
    alive: np.ndarray

    def __post_init__(self):
        for name, dtype in (("positions", float), ("energies", float), ("alive", bool)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        pos, energy, n = self.positions, self.energies, len(self.energies)
        if (energy.shape, pos.shape, self.alive.shape) != ((n,), (n, 2), (n,)):
            raise ValueError(f"node arrays disagree: positions {pos.shape}, "
                             f"energies {energy.shape}, alive {self.alive.shape}")
        for bad, problem in ((self.alive & ~np.isfinite(pos).all(axis=1),
                              "is alive but has a non-finite position"),
                             (~(np.isfinite(energy) & (energy >= 0)),
                              "has an energy that is not finite and >= 0")):
            if bad.any():
                i = int(bad.argmax())
                raise InvalidNode(i, f"{problem}: {pos[i].tolist()}, {energy[i]!r}")

    @classmethod
    def from_states(cls, states: Sequence[NodeState]) -> "Nodes":
        """The record of ``states``, whose ids must be exactly 0..n-1 in order."""
        for index, state in enumerate(states):
            if state.id != index:
                raise InvalidNode(state.id, f"is at index {index}; ids must be 0..n-1")
        return cls(np.array([s.position for s in states], dtype=float).reshape(len(states), 2),
                   [s.energy for s in states], [s.alive for s in states])


def deploy(config: FieldConfig, seed: int, initial_energy: float = 1.0) -> Nodes:
    """Place ``node_count`` nodes uniformly at random inside the field.

    Pure function of (config, seed, initial_energy): identical inputs give
    bit-identical arrays. Coordinates are drawn as one (n, 2) block from
    PCG64 and scaled by (width, height); all nodes start alive and full.
    """
    config.validate()
    n = config.node_count
    coords = make_rng(seed).random((n, 2)) * np.array([config.width, config.height])
    return Nodes(coords, np.full(n, float(initial_energy)), np.ones(n, dtype=bool))


def positions_of(nodes: Nodes) -> np.ndarray:
    return nodes.positions


def energies_of(nodes: Nodes) -> np.ndarray:
    return nodes.energies


def alive_of(nodes: Nodes) -> np.ndarray:
    return nodes.alive


@dataclass(frozen=True, eq=False)
class NetworkSnapshot:
    """Range-induced graph over a deployment in CSR form, with read-only arrays.

    An edge joins two distinct alive nodes at most ``range_m`` apart. Node
    u's neighbours are ``indices[indptr[u]:indptr[u + 1]]``, ascending.
    ``neighbor_table`` pads them to one width, so that ``neighbors_of``
    gathers the lists of many nodes with one index, for ``construct_trees``
    and ``is_connected``.
    """

    positions: np.ndarray
    alive: np.ndarray
    range_m: float
    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        for array in (self.positions, self.alive, self.indptr, self.indices):
            array.flags.writeable = False

    @property
    def node_count(self) -> int:
        return len(self.alive)

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @cached_property
    def neighbor_table(self) -> tuple[np.ndarray, bool]:
        """``(table, spills)``: the neighbour lists padded to one width with the sentinel id n.

        Row u of the (n + 1, width) table lists u's neighbours, ascending,
        then n; row n holds only n. The width is the largest degree, capped
        so that the table holds at most 4 (nnz + n + 1) entries, nnz being
        ``indices.size``: no layout makes it O(n^2). ``spills`` says whether
        some list is longer than the width; such a row holds its first
        ``width`` neighbours.
        """
        n, degrees, indices = self.node_count, self.degrees, self.indices
        most = int(degrees.max(initial=0))
        width = min(most, 4 * (indices.size + n + 1) // (n + 1))
        if width < most:  # keep each list's first width entries
            indices = indices[np.arange(indices.size) - np.repeat(self.indptr[:-1], degrees) < width]
        table = np.full((n + 1, width), n, dtype=np.int64)
        table[:n][np.arange(width) < degrees[:, None]] = indices  # row by row, in CSR order
        table.flags.writeable = False
        return table, width < most

    def neighbors_of(self, ids: np.ndarray) -> np.ndarray:
        """The neighbours of node ids ``ids`` (each below n), with sentinels n, in no set order.

        One gather of their ``neighbor_table`` rows; the lists longer than
        the table's width add the rest of their neighbours from the CSR arrays.
        """
        table, spills = self.neighbor_table
        nb = table.take(ids, axis=0).ravel()
        if spills:
            width, degrees = table.shape[1], self.degrees
            long = ids[degrees[ids] > width]
            if long.size:
                counts = degrees[long] - width
                ends = counts.cumsum()
                starts = self.indptr[long] + width - ends + counts
                nb = np.concatenate((nb, self.indices[np.arange(ends[-1])
                                                      + np.repeat(starts, counts)]))
        return nb

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """One ascending neighbour-id tuple per node, so equal graphs compare equal."""
        bounds, flat = self.indptr.tolist(), self.indices.tolist()
        return tuple(tuple(flat[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))


# Relative margin on the cell side. Rounding moves a node's cell coordinate
# by a few ulps of MAX_CELLS_PER_AXIS at most (under 1e-8 of a cell), far
# below this margin, so two nodes within range are never two cells apart.
CELL_MARGIN = 1e-6
MAX_CELLS_PER_AXIS = 2**26


def _pairs_within(pos: np.ndarray, range_m: float,
                  max_candidates: float = math.inf) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index pairs (i, j), each unordered pair once, with |pos[i] - pos[j]| <= range_m.

    Fixed-radius near neighbours on a uniform grid (Bentley, Stanat and
    Williams, 1977): nodes are binned into square cells of side just over the
    range, so every pair within range lies in one cell or in two adjacent
    cells. Candidates come from a node's own cell and four "half" neighbour
    cells, so each unordered pair is produced exactly once, and each is kept
    iff dx*dx + dy*dy <= range_m**2, the same float test as a dense
    comparison of all pairs. Returns the pairs as two id arrays and their
    squared distances dx*dx + dy*dy. Raises ValueError, before the
    candidates are allocated, if there are more than ``max_candidates`` of
    them.
    """
    with np.errstate(over="ignore"):  # an overflowing span is rejected below
        offset = pos - pos.min(axis=0, initial=np.inf)
    extent = float(offset.max(initial=0.0))
    if not math.isfinite(extent):
        raise ValueError("node coordinates span more than the float range")
    offset /= max(range_m * (1 + CELL_MARGIN), extent / MAX_CELLS_PER_AXIS)
    cells = offset.astype(np.int64)  # truncation floors these non-negative cell coordinates
    # a spare row on top, so a step of one row up from the top row or down
    # from the bottom row lands in an empty cell, not in the next column
    rows = int(cells[:, 1].max(initial=0)) + 2
    key = cells[:, 0] * rows + cells[:, 1]
    order = np.argsort(key)
    key = key.take(order)

    # two runs of sorted positions per node: the later nodes of its own cell
    # with the cell above (keys up to key + 1), then the three cells of the
    # next column (keys key + rows - 1 to key + rows + 1)
    starts = np.concatenate((np.arange(1, key.size + 1), np.searchsorted(key, key + (rows - 1))))
    stops = np.searchsorted(key, np.concatenate((key + 1, key + (rows + 1))), side="right")
    counts = stops - starts
    total = int(counts.sum())
    if total > max_candidates:
        raise ValueError(f"{total} candidate pairs, more than {max_candidates}")
    # candidate k of a run is starts + k: subtract each run's offset in the output
    second = np.repeat(starts - counts.cumsum() + counts, counts)
    second += np.arange(total)

    # dx*dx + dy*dy in place over sorted coordinate columns; a run's owner
    # coordinate is repeated, not gathered
    x, y = pos.T.take(order, axis=1)
    d2 = np.repeat(np.tile(x, 2), counts)
    d2 -= x.take(second)
    d2 *= d2
    dy = np.repeat(np.tile(y, 2), counts)
    dy -= y.take(second)
    dy *= dy
    d2 += dy
    del dy  # one candidate-length array fewer through the compaction
    keep = np.flatnonzero(d2 <= range_m * range_m)
    return (np.repeat(np.tile(order, 2), counts).take(keep), order.take(second.take(keep)),
            d2.take(keep))


def build_graph(nodes: Nodes, range_m: float) -> NetworkSnapshot:
    """Connect every pair of alive nodes within ``range_m`` of each other.

    The comparison is inclusive (distance exactly equal to the range makes an
    edge); squared distances are compared internally. Dead nodes have no
    neighbours. Time and memory grow with the number of nodes times their
    mean degree, not with n^2. The snapshot keeps copies of the node arrays.
    """
    if not 0 < range_m < math.inf:
        raise ValueError("range must be positive and finite")
    positions, alive = nodes.positions.copy(), nodes.alive.copy()
    n = len(alive)
    ids = np.flatnonzero(alive)
    a, b, _ = _pairs_within(positions[ids], float(range_m))
    a, b = ids[a], ids[b]
    # one sort of (source, target) keys puts each list in ascending order
    sources, indices = np.divmod(np.sort(np.concatenate((a * n + b, b * n + a))), n)
    indptr = np.searchsorted(sources, np.arange(n + 1))
    return NetworkSnapshot(positions, alive, float(range_m), indptr, indices)


def stack_graphs(graphs: Sequence[NetworkSnapshot]) -> NetworkSnapshot:
    """One block-diagonal snapshot of graphs over n nodes each: node v of graph t is t·n + v.

    Its ``range_m`` is the largest of theirs, so no edge is longer.
    """
    n = graphs[0].node_count
    if any(g.node_count != n for g in graphs):
        raise ValueError("stacked graphs must have the same node count")
    sizes = [g.indices.size for g in graphs]
    starts = np.cumsum([0] + sizes).tolist()
    indptr = np.concatenate([g.indptr[:-1] + s for g, s in zip(graphs, starts)] + [starts[-1:]])
    indices = np.concatenate([g.indices for g in graphs]) + np.repeat(
        np.arange(len(graphs)) * n, sizes)
    return NetworkSnapshot(np.concatenate([g.positions for g in graphs]),
                           np.concatenate([g.alive for g in graphs]),
                           max(g.range_m for g in graphs), indptr, indices)


def is_connected(graph: NetworkSnapshot) -> bool:
    """True iff every alive node is reachable from every other alive node.

    Breadth-first search, one ``graph.neighbors_of`` gather per frontier.
    The sentinel id n has a slot of its own, reached from the start, so it
    never joins a frontier.
    """
    alive, n = graph.alive, graph.node_count
    alive_count = int(alive.sum())
    if alive_count == 0:
        raise ValueError("graph has no alive node")
    reached = np.zeros(n + 1, dtype=bool)
    reached[n] = True
    frontier = np.flatnonzero(alive)[:1]
    reached[frontier] = True
    while frontier.size:
        fresh = np.zeros_like(reached)
        fresh[graph.neighbors_of(frontier)] = True
        fresh &= ~reached
        reached |= fresh
        frontier = np.flatnonzero(fresh)
    return int(reached[:n].sum()) == alive_count


def read_placement(path) -> list[NodeState]:
    """Read a fixed topology: one node per line, "id x y energy".

    Fields are whitespace-separated decimals; blank lines are skipped. The
    ids must form exactly 0..n-1 (in any line order), and the values must pass
    the checks of ``Nodes``. Used to inject known layouts into tests.
    """
    entries = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 4:
                raise ValueError(f"{path}:{lineno}: expected 'id x y energy'")
            try:
                node_id, x, y, energy = int(parts[0]), *map(float, parts[1:])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if node_id in entries:
                raise ValueError(f"{path}:{lineno}: duplicate id {node_id}")
            entries[node_id] = lineno, NodeState(node_id, (x, y), energy)
    states = [entries[i][1] for i in sorted(entries)]
    try:
        Nodes.from_states(states)
    except InvalidNode as exc:
        raise ValueError(f"{path}:{entries[exc.node][0]}: {exc}") from None
    return states


def write_placement(nodes: Nodes, path) -> None:
    """Write nodes in the placement-file format; every node reads back alive."""
    with open(path, "w") as fh:
        for i, ((x, y), energy) in enumerate(zip(nodes.positions.tolist(),
                                                 nodes.energies.tolist())):
            fh.write(f"{i} {x!r} {y!r} {energy!r}\n")
