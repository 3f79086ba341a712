"""Loop versions of the EMLN round layers, kept as the reference for tests.

``construct_tree``, ``compute_delay`` and ``tree_round_energy`` below are the
original implementations, copied unchanged. They build and read ``GatherTree``
below, the tree record as it was then, with every view stored as a field, and
debit with the checked scalar ``tx_energy`` below. The vectorised versions in
``gathersim.emln`` and ``gathersim.radio`` must match them field for field and
byte for byte (tests/test_emln_reference.py).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gathersim.network import NetworkSnapshot
from gathersim.radio import EnergyLedger, RadioParams, tx_cost
from gathersim.seeding import make_rng


@dataclass
class GatherTree:
    root: int
    parent: np.ndarray
    level: np.ndarray
    children: tuple[tuple[int, ...], ...]
    intermediate_set: frozenset[int]
    leaf_set: frozenset[int]
    nodes_at_level: tuple[tuple[int, ...], ...]
    height: int


def tx_energy(params: RadioParams, bits: int, distance: float) -> float:
    """Energy to transmit ``bits`` over ``distance`` meters."""
    if bits < 0 or distance < 0:
        raise ValueError("bits and distance must be >= 0")
    return tx_cost(params, bits, distance)


def construct_tree(graph: NetworkSnapshot, energies, tie_seed: int) -> GatherTree | None:
    """Build the gathering tree, or return None if the graph is disconnected.

    The node maximizing uncovered_neighbors * residual_energy becomes the
    root and adopts its whole neighborhood as children. Each later iteration
    recomputes every weight from scratch, considers the covered nodes that
    are not yet intermediate and still have at least one uncovered neighbor,
    and promotes the maximum-weight one, attaching its uncovered neighbors
    as its children one level down. When no covered node can extend coverage
    while nodes remain uncovered, the graph is disconnected and None is
    returned; that is a normal outcome, not an error.

    Ties on the weight (compared exactly, no epsilon) are broken uniformly
    at random, deterministically per ``tie_seed``. A covered node with zero
    energy still qualifies as a candidate: its weight is simply 0.
    """
    n = graph.node_count
    energies = np.asarray(energies, dtype=float)
    if energies.shape != (n,):
        raise ValueError(f"expected {n} energies, got array of shape {energies.shape}")
    if (energies < 0).any():
        raise ValueError("energies must be >= 0")
    alive = graph.alive
    n_alive = int(alive.sum())
    if n_alive == 0:
        raise ValueError("graph has no alive node")

    neighbors = [graph.indices[a:b] for a, b in zip(graph.indptr[:-1], graph.indptr[1:])]
    # uncovered-neighbor counts, updated as coverage grows; equal to what a
    # full recount against the covered set would give at every iteration
    uncovered_count = graph.degrees.copy()
    rng = None  # tie-break generator, built only when a tie shows up

    covered = np.zeros(n, dtype=bool)
    intermediate = np.zeros(n, dtype=bool)
    parent = np.full(n, -1, dtype=np.int64)
    level = np.full(n, -1, dtype=np.int64)
    children: list[tuple[int, ...]] = [() for _ in range(n)]
    levels: list[list[int]] = []
    intermediate_ids: list[int] = []

    def pick_max(candidate_ids: np.ndarray) -> int:
        nonlocal rng
        weights = uncovered_count[candidate_ids] * energies[candidate_ids]
        best = int(np.argmax(weights))
        tied = np.flatnonzero(weights == weights[best])
        if tied.size == 1:
            return int(candidate_ids[best])
        if rng is None:
            rng = make_rng(tie_seed)
        return int(candidate_ids[tied[rng.integers(tied.size)]])

    def cover(ids: np.ndarray) -> None:
        covered[ids] = True
        hit = np.concatenate([neighbors[int(v)] for v in ids])
        np.subtract(uncovered_count, np.bincount(hit, minlength=n), out=uncovered_count)

    def attach_uncovered_neighbors(u: int) -> int:
        nb = neighbors[u]
        new = nb[~covered[nb]]
        if new.size:
            cover(new)
            parent[new] = u
            depth = int(level[u]) + 1
            level[new] = depth
            children[u] = tuple(int(v) for v in new)
            while len(levels) <= depth:
                levels.append([])
            levels[depth].extend(children[u])
        return int(new.size)

    root = pick_max(np.flatnonzero(alive))
    cover(np.array([root], dtype=np.int64))
    intermediate[root] = True
    intermediate_ids.append(root)
    level[root] = 0
    levels.append([root])
    n_covered = 1 + attach_uncovered_neighbors(root)

    while n_covered < n_alive:
        candidates = np.flatnonzero(covered & ~intermediate & (uncovered_count > 0))
        if candidates.size == 0:
            return None
        node = pick_max(candidates)
        intermediate[node] = True
        intermediate_ids.append(node)
        n_covered += attach_uncovered_neighbors(node)

    inter_set = frozenset(intermediate_ids)
    leaf_set = frozenset(np.flatnonzero(covered & ~intermediate).tolist())
    return GatherTree(
        root=root,
        parent=parent,
        level=level,
        children=tuple(children),
        intermediate_set=inter_set,
        leaf_set=leaf_set,
        nodes_at_level=tuple(tuple(sorted(members)) for members in levels),
        height=len(levels) - 1,
    )


def compute_delay(tree: GatherTree) -> int:
    """Time slots until the root holds the aggregate of the whole tree.

    Leaves cost nothing on their own; every child-to-parent transfer takes
    one slot and the children of one parent are serialized, while different
    parents work in parallel. Each parent drains its children in ascending
    order of their own delay, folding t = max(t + 1, child_delay + 1); for
    sorted child delays d_1 <= ... <= d_m this equals
    max_i (d_i + m - i + 1), and the ascending order minimizes it over all
    orderings. Levels are processed bottom-up; the root's value is the
    per-round delay.
    """
    delay = dict.fromkeys(tree.leaf_set, 0)
    for lvl in range(tree.height - 1, -1, -1):
        for u in tree.nodes_at_level[lvl]:
            kids = tree.children[u]
            if not kids:
                continue
            t = 0
            for d in sorted(delay[v] for v in kids):
                t = max(t + 1, d + 1)
            delay[u] = t
    return int(delay.get(tree.root, 0))


def tree_round_energy(tree: GatherTree, positions, sink, params: RadioParams) -> EnergyLedger:
    """Debit one gathering round over ``tree``.

    A leaf pays only the transmission to its parent. An intermediate node
    with c children pays c receptions, fusion of c + 1 signals (children's
    packets plus its own reading), and one transmission to its parent; for
    the root the upstream hop goes to the sink. All hop distances are the
    actual Euclidean separations.
    """
    positions = np.asarray(positions, dtype=float)
    n = len(positions)
    if tree.parent.shape != (n,):
        raise ValueError("tree does not match the node set")
    k = params.packet_bits
    ledger = EnergyLedger.empty(n)

    members = np.flatnonzero(tree.level >= 0)
    non_root = members[members != tree.root]
    parents = tree.parent[non_root]
    d = np.linalg.norm(positions[non_root] - positions[parents], axis=1)
    ledger.tx[non_root] = params.e_elec * k + params.eps_amp * k * d * d

    child_count = np.bincount(parents, minlength=n) if non_root.size else np.zeros(n, dtype=int)
    ledger.rx[:] = child_count * (params.e_elec * k)
    inter = np.array(sorted(tree.intermediate_set), dtype=int)
    ledger.fuse[inter] = params.e_fuse * k * (child_count[inter] + 1)

    d_sink = float(np.linalg.norm(positions[tree.root] - np.asarray(sink, dtype=float)))
    ledger.tx[tree.root] = tx_energy(params, k, d_sink)
    return ledger
