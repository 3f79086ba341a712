"""Energy-aware maximal-leaf gathering tree: construction, delay, validation.

The tree's intermediate (non-leaf) nodes form a connected dominating set of
the network graph, grown greedily by the product of uncovered-neighbor count
and residual energy. Well-connected, energy-rich nodes end up doing the
relaying while as many nodes as possible stay leaves, which only wake up to
transmit their own reading once per round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import NetworkSnapshot
from .seeding import make_rng


@dataclass
class GatherTree:
    """Rooted spanning tree over the alive nodes of a snapshot.

    ``parent`` and ``level`` are arrays indexed by node id, holding -1 for
    the root's parent and for nodes outside the tree. ``nodes_at_level[i]``
    partitions the spanned nodes by depth. Treated as read-only.
    """

    root: int
    parent: np.ndarray
    level: np.ndarray
    children: tuple[tuple[int, ...], ...]
    intermediate_set: frozenset[int]
    leaf_set: frozenset[int]
    nodes_at_level: tuple[tuple[int, ...], ...]
    height: int

    @property
    def spanned(self) -> frozenset[int]:
        return self.intermediate_set | self.leaf_set


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
    energy still qualifies as a candidate: its weight is simply 0. Energies
    must be finite and non-negative.
    """
    n = graph.node_count
    energies = np.asarray(energies, dtype=float)
    if energies.shape != (n,):
        raise ValueError(f"expected {n} energies, got array of shape {energies.shape}")
    if not np.isfinite(energies).all():
        raise ValueError("energies must be finite (got NaN or inf)")
    if (energies < 0).any():
        raise ValueError("energies must be >= 0")
    alive = graph.alive
    n_alive = int(np.count_nonzero(alive))
    if n_alive == 0:
        raise ValueError("graph has no alive node")

    neighbors = graph.neighbor_arrays
    # uncovered-neighbor counts, updated as coverage grows; equal to what a
    # full recount against the covered set would give at every iteration
    uncovered_count = graph.degrees.copy()
    rng = None  # tie-break generator, built only when a tie shows up

    parent = np.full(n, -1, dtype=np.int64)
    level = np.full(n, -1, dtype=np.int64)  # >= 0 exactly for covered nodes
    candidate = alive.copy()  # for the root pick; then covered and not intermediate
    children: list[tuple[int, ...]] = [()] * n
    levels: list[list[int]] = []
    intermediate_ids: list[int] = []

    def pick_max(root_pick: bool = False) -> int:
        """Max-weight candidate (lowest id first), or -1 if there is none.

        A candidate's weight is >= 0, so the -1 given to the others never
        wins, and tied ids come out ascending, as a scan over the candidates
        gives. After the root pick a candidate needs an uncovered neighbor;
        one without weighs 0, so it can only tie the top when the top is 0,
        and only then is it masked out.
        """
        nonlocal rng
        weights = np.where(candidate, uncovered_count * energies, -1.0)
        best = int(weights.argmax())
        top = weights.item(best)
        if top == 0 and not root_pick:
            weights[uncovered_count == 0] = -1.0
            best = int(weights.argmax())
            top = weights.item(best)
        if top < 0:
            return -1
        is_best = weights == top
        if np.count_nonzero(is_best) > 1:
            tied = np.flatnonzero(is_best)
            if rng is None:
                rng = make_rng(tie_seed)
            best = int(tied[rng.integers(tied.size)])
        return best

    def promote(u: int, hit: list[np.ndarray]) -> int:
        """Make ``u`` intermediate and adopt its uncovered neighbors one level down.

        ``hit`` holds the neighbor lists of nodes covered just before, whose
        uncovered counts are debited together with those of the adopted nodes.
        Returns how many nodes were adopted.
        """
        intermediate_ids.append(u)
        candidate[u] = False
        nb = neighbors[u]
        new = nb[level[nb] < 0]
        ids = new.tolist()
        if ids:
            candidate[new] = True
            parent[new] = u
            depth = level.item(u) + 1
            level[new] = depth
            children[u] = tuple(ids)
            if len(levels) == depth:
                levels.append([])
            levels[depth].extend(ids)
            hit = hit + [neighbors[v] for v in ids]
        if hit:
            np.subtract(uncovered_count, np.bincount(np.concatenate(hit), minlength=n),
                        out=uncovered_count)
        return len(ids)

    root = pick_max(root_pick=True)
    candidate[:] = False
    level[root] = 0
    levels.append([root])
    n_covered = 1 + promote(root, [neighbors[root]])

    while n_covered < n_alive:
        node = pick_max()
        if node < 0:
            return None
        n_covered += promote(node, [])

    inter_set = frozenset(intermediate_ids)
    return GatherTree(
        root=root,
        parent=parent,
        level=level,
        children=tuple(children),
        intermediate_set=inter_set,
        leaf_set=frozenset(np.flatnonzero(level >= 0).tolist()) - inter_set,
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
    orderings. Only intermediates have children, so they are the only nodes
    visited, deepest first; the root's value is the per-round delay.
    """
    delay = [0] * len(tree.children)
    depth = tree.level.tolist()
    for u in sorted(tree.intermediate_set, key=depth.__getitem__, reverse=True):
        t = 0
        for d in sorted([delay[v] for v in tree.children[u]]):
            t = t + 1 if t >= d else d + 1  # max(t + 1, d + 1), without the call
        delay[u] = t
    return delay[tree.root]


def validate_tree(tree: GatherTree, graph: NetworkSnapshot) -> bool:
    """True iff every structural invariant holds for ``tree`` over ``graph``.

    Checks spanning (members equal the alive node set), the partition into
    intermediates and leaves, parent/child/level consistency, edges existing
    in the graph, the level partition, the height, and that the intermediate
    set dominates the graph and induces a subtree containing the root.
    """
    n = graph.node_count
    if tree.parent.shape != (n,) or tree.level.shape != (n,) or len(tree.children) != n:
        return False
    members = tree.intermediate_set | tree.leaf_set
    if tree.intermediate_set & tree.leaf_set:
        return False
    if members != set(np.flatnonzero(graph.alive).tolist()):
        return False
    if tree.root not in tree.intermediate_set:
        return False
    if tree.level[tree.root] != 0 or tree.parent[tree.root] != -1:
        return False

    for v in members:
        if v == tree.root:
            continue
        p = int(tree.parent[v])
        if p < 0 or p not in members:
            return False
        if p not in graph.adjacency[v]:
            return False
        if tree.level[v] != tree.level[p] + 1:
            return False

    for u in range(n):
        kids = tree.children[u]
        if u not in members:
            if kids or tree.parent[u] != -1 or tree.level[u] != -1:
                return False
            continue
        if list(kids) != sorted(int(v) for v in members if v != tree.root and tree.parent[v] == u):
            return False
        if kids and u not in tree.intermediate_set:
            return False
        if u in tree.leaf_set and kids:
            return False

    member_ids = sorted(members)
    if tree.height != max(int(tree.level[v]) for v in member_ids):
        return False
    if len(tree.nodes_at_level) != tree.height + 1:
        return False
    seen: list[int] = []
    for lvl, bucket in enumerate(tree.nodes_at_level):
        for v in bucket:
            if v not in members or tree.level[v] != lvl:
                return False
        seen.extend(bucket)
    if sorted(seen) != member_ids:
        return False

    # intermediates dominate the graph and form a connected subtree at the root
    for v in member_ids:
        if v not in tree.intermediate_set and tree.intermediate_set.isdisjoint(graph.adjacency[v]):
            return False
    for u in tree.intermediate_set:
        if u != tree.root and int(tree.parent[u]) not in tree.intermediate_set:
            return False
    return True


def dump_tree(tree: GatherTree) -> str:
    """Text dump, one line per node: "id level parent role", ascending ids."""
    lines = []
    for u in sorted(tree.intermediate_set | tree.leaf_set):
        if u == tree.root:
            role = "root"
        elif u in tree.intermediate_set:
            role = "intermediate"
        else:
            role = "leaf"
        parent = int(tree.parent[u])
        lines.append(f"{u} {int(tree.level[u])} {'-' if parent < 0 else parent} {role}")
    return "\n".join(lines) + "\n"
