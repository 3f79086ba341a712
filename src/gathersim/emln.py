"""Energy-aware maximal-leaf gathering tree: construction, delay, validation.

The tree's intermediate (non-leaf) nodes form a connected dominating set of
the network graph, grown greedily by the product of uncovered-neighbor count
and residual energy. Well-connected, energy-rich nodes end up doing the
relaying while as many nodes as possible stay leaves, which only wake up to
transmit their own reading once per round.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .network import NetworkSnapshot
from .seeding import make_rng


@dataclass(frozen=True, eq=False)
class GatherTree:
    """Rooted spanning tree over the alive nodes of a snapshot, as read-only arrays.

    ``parent`` and ``level`` are indexed by node id, holding -1 for the
    root's parent and for nodes outside the tree; ``intermediate`` flags the
    relaying nodes, the root among them, and the other members are leaves.
    ``children``, ``intermediate_set``, ``leaf_set`` and ``height`` are views.
    """

    root: int
    parent: np.ndarray
    level: np.ndarray
    intermediate: np.ndarray

    def __post_init__(self):
        for array in (self.parent, self.level, self.intermediate):
            array.flags.writeable = False

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        """Each node's children, ascending."""
        order = np.argsort(self.parent, kind="stable")
        ids = order.tolist()
        bounds = np.searchsorted(self.parent[order], np.arange(len(ids) + 1)).tolist()
        return tuple(tuple(ids[a:b]) for a, b in zip(bounds, bounds[1:]))

    @cached_property
    def intermediate_set(self) -> frozenset[int]:
        return frozenset(np.flatnonzero(self.intermediate).tolist())

    @cached_property
    def leaf_set(self) -> frozenset[int]:
        return frozenset(np.flatnonzero((self.level >= 0) & ~self.intermediate).tolist())

    @cached_property
    def height(self) -> int:
        return int(self.level.max())


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
    must be finite and non-negative. This is the one-row case of
    ``construct_trees``.
    """
    energies = np.asarray(energies, dtype=float)
    if energies.shape != (graph.node_count,):
        raise ValueError(f"expected {graph.node_count} energies, got array of shape "
                         f"{energies.shape}")
    roots, parent, level, intermediate = construct_trees(graph, energies[None], [tie_seed])
    root = int(roots[0])
    return None if root < 0 else GatherTree(root, parent[0], level[0], intermediate[0])


def construct_trees(graph: NetworkSnapshot, energies, tie_seeds) -> tuple[np.ndarray, ...]:
    """Build the gathering trees of T trials in lockstep, one greedy step for all.

    ``graph`` is block diagonal over T·n nodes, node v of trial t being
    t·n + v (``stack_graphs``); ``energies`` is (T, n) and ``tie_seeds``
    holds T seeds. Each step weighs every row at once and promotes, in each
    row whose top weight is above 0, the greedy pick that ``construct_tree``
    describes: the row's maximum-weight candidate, lowest id first, or one
    of its tied maxima drawn from ``make_rng(tie_seeds[t])``, built when row
    t first ties. A row with no positive weight is complete, disconnected or
    under the zero-top rule. Its state does not change while other rows
    grow, so those rules run only at a step where no row grows, and a
    zero-top row advances only at such steps. Row t is still the tree of
    trial t's graph, energies and seed alone.

    Returns ``(roots, parent, level, intermediate)``: the roots (T,), -1 for
    a disconnected trial, whose row then holds a partial tree, and the
    (T, n) arrays of ``GatherTree`` in local ids, so that row t's tree is
    ``GatherTree(roots[t], parent[t], level[t], intermediate[t])``. A step
    makes the same few dozen numpy calls whatever T is, so where their
    overhead is the cost, as at 100 nodes, many trees cost little more than
    one. A one-row call runs the same greedy with its pick and top weight as
    Python scalars, without the per-row arrays.

    A step gathers the neighbor lists of its picks, and of the nodes they
    cover, with one ``graph.neighbors_of`` call each. Its padded table is
    built on first use and cached on the snapshot, so a caller that grows
    many rounds of trees reuses one stacked graph. The sentinel id T·n pads
    the lists, and its level of 0 makes it count as covered.
    """
    tie_seeds = list(tie_seeds)
    trials = len(tie_seeds)
    energies = np.asarray(energies, dtype=float)
    size = graph.node_count
    if not trials or size % trials or energies.shape != (trials, size // trials):
        raise ValueError(f"expected energies of shape ({trials}, {size // max(trials, 1)}) "
                         f"for {trials} trials of a {size}-node graph, got {energies.shape}")
    if not (np.isfinite(energies) & (energies >= 0)).all():
        raise ValueError("energies must be finite and >= 0")
    n = size // trials
    alive = graph.alive.reshape(trials, n)
    if not alive.any(axis=1).all():
        raise ValueError("a trial's graph has no alive node")

    neighbors_of = graph.neighbors_of
    # uncovered-neighbor counts, held as floats: count * energy is then the
    # float product that an int64 count times a float64 energy casts to; the
    # sentinel's slot, the last, takes the sentinel's debits and is never read
    count = np.append(graph.degrees, 0.0)
    count_rows = count[:size].reshape(trials, n)
    parent = np.full(size, -1, dtype=np.int64)
    # >= 0 exactly for covered nodes; the sentinel, at level 0, counts as covered
    level = np.full(size + 1, -1, dtype=np.int64)
    level[size] = 0
    level_rows = level[:size].reshape(trials, n)
    intermediate = np.zeros(size, dtype=bool)
    # 0.0 for a candidate (for the root pick, alive; then covered), -inf
    # otherwise: added to a weight >= 0, 0.0 keeps its bits. A promoted node
    # keeps its 0.0: its count is 0 from then on, so its weight never beats a
    # top above 0, and the zero-top rule masks it
    floor = np.where(graph.alive, 0.0, -np.inf)
    floor_rows = floor.reshape(trials, n)
    weights = np.empty((trials, n))
    least = -np.inf  # a row grows while its top weight is above this; any alive node may root it

    # each step picks, the first step a root among the alive nodes, then
    # promotes the pick and covers its uncovered neighbors
    if trials == 1:
        weights, counts, rng, root = weights[0], count_rows[0], None, None
        pick = np.empty(1, dtype=np.int64)  # the id that neighbors_of gathers for
        while True:
            np.multiply(counts, energies[0], out=weights)
            np.add(weights, floor, out=weights)
            best = int(weights.argmax())
            top = weights[best]
            if not top > least:  # complete, disconnected or under the zero-top rule
                if top < 0 or not (alive & (level_rows < 0)).any():
                    break
                weights[counts == 0] = -np.inf
                best = int(weights.argmax())
                top = weights[best]
                if top < 0:
                    break
            if weights[best + 1:].max(initial=-np.inf) == top:  # a later maximum: a tie
                tied = (weights == top).nonzero()[0]
                rng = rng or make_rng(tie_seeds[0])
                best = int(tied[rng.integers(tied.size)])
            pick[0] = best
            nb = neighbors_of(pick)
            if root is None:
                root, least = best, 0.0
                floor[:] = -np.inf
                level[best] = 0
                np.subtract.at(count, nb, 1.0)  # costs by the list, not by n as bincount does
            intermediate[best] = True
            new = nb[level[nb] < 0]
            if new.size:
                floor[new] = 0.0
                parent[new] = best
                level[new] = level[best] + 1
                np.subtract.at(count, neighbors_of(new), 1.0)
        roots = np.array([root])
    else:
        rows = np.arange(trials)
        offset = rows * n
        rngs: list = [None] * trials  # tie-break generators, built only when a row ties
        row_level = np.zeros(trials, dtype=np.int64)
        roots = None
        while True:
            # each row's max-weight candidate (lowest id first) and its weight, -inf for none
            np.multiply(count_rows, energies, out=weights)
            np.add(weights, floor_rows, out=weights)
            best = weights.argmax(axis=1)
            top = weights[rows, best]
            growing = (top > least).nonzero()[0]
            if not growing.size:  # apply the zero-top rule; the other rows are done
                uncovered = (alive & (level_rows < 0)).any(axis=1)
                for t in (uncovered & (top == 0)).nonzero()[0].tolist():
                    row_weights = weights[t]
                    row_weights[count_rows[t] == 0] = -np.inf
                    best[t] = row_weights.argmax()
                    top[t] = row_weights[best[t]]
                growing = (uncovered & (top >= 0)).nonzero()[0]
                if not growing.size:
                    break
            # a growing row has tied maxima exactly when its last maximum is not
            # its first, best; draw its pick among them
            last = n - 1 - weights[:, ::-1].argmax(axis=1)
            for t in growing[last[growing] != best[growing]].tolist():
                tied = (weights[t] == top[t]).nonzero()[0]
                if rngs[t] is None:
                    rngs[t] = make_rng(tie_seeds[t])
                best[t] = tied[rngs[t].integers(tied.size)]
            picked = offset[growing] + best[growing]
            nb = neighbors_of(picked)
            if roots is None:
                roots, least = best, 0.0
                floor[:] = -np.inf
                level[picked] = 0
                np.subtract(count, np.bincount(nb, minlength=size + 1), out=count)
            intermediate[picked] = True
            new = nb[level[nb] < 0]
            if new.size:
                floor[new] = 0.0
                row_level[growing] = level[picked]
                row = new // n
                parent[new] = best[row]  # each growing row's pick; its other entries are not read
                level[new] = row_level[row] + 1
                # debit the uncovered-neighbor counts of the new nodes' neighbors
                np.subtract(count, np.bincount(neighbors_of(new), minlength=size + 1), out=count)

    uncovered = (alive & (level_rows < 0)).any(axis=1)
    return (np.where(uncovered, -1, roots), parent.reshape(trials, n), level_rows,
            intermediate.reshape(trials, n))


def compute_delay(tree: GatherTree) -> int:
    """Time slots until the root holds the aggregate of the whole tree.

    Leaves cost nothing on their own; every child-to-parent transfer takes
    one slot and the children of one parent are serialized, while different
    parents work in parallel. Each parent drains its children in ascending
    order of their own delay, folding t = max(t + 1, child_delay + 1); for
    sorted child delays d_1 <= ... <= d_m this equals
    max_i (d_i + m - i + 1), and the ascending order minimizes it over all
    orderings. The root's value is the per-round delay: ``compute_delays``
    of the tree as a batch of one.
    """
    return int(compute_delays(np.array([tree.root]), tree.parent[None], tree.level[None])[0])


def compute_delays(roots, parent, level) -> np.ndarray:
    """``compute_delay`` of each row of ``construct_trees``' output, as (T,) ints.

    The same fold, a level at a time for all trees at once: a parent with
    sorted child delays d_1 <= ... <= d_m gets max_i (d_i + m - i + 1). A
    leaf's delay is 0, so the leaves drain first and the best term of a
    leaf child is m; the k children that are parents themselves drain last,
    their i-th smallest delay adding k - i + 1. So every node starts at its
    child count m, and only the children with children of their own, about
    one node in eight at the CLI defaults, are sorted: those of one level,
    grouped by parent, with one sort of (group, delay) keys. A parent's
    delay is the larger of m and its sorted children's best term. Rows can
    come from many steps of trees: the engine queues a group's trees until
    they hold ``engine.FOLD_NODES`` nodes and folds them in one call. A
    disconnected row's value is meaningless.
    """
    trials, n = parent.shape
    parent, depth = parent.ravel(), level.ravel()
    kids = np.flatnonzero(parent >= 0)  # every member but the roots, in global ids
    up = parent[kids] + kids // n * n
    delay = np.bincount(up, minlength=trials * n)  # each node's child count
    tops = np.arange(trials) * n + np.maximum(roots, 0)
    inner = delay[kids] > 0
    kids, up = kids[inner], up[inner]
    if not kids.size:
        return delay[tops]
    # deepest level first, then by parent: each parent's children form one run
    order = np.argsort((n - depth[kids]) * (trials * n) + up)
    kids, up = kids[order], up[order]
    starts = np.ones(kids.size, dtype=bool)
    np.not_equal(up[1:], up[:-1], out=starts[1:])
    run = np.cumsum(starts) - 1
    first = starts.nonzero()[0]
    ends = np.append(first[1:], kids.size)
    # a delay is below n, so run * (n + 1) + delay sorts by run, then by delay;
    # the fold adds k - i + 1 to the i-th smallest of a run's k delays
    key_base = run * (n + 1)
    term = ends[run] - np.arange(kids.size) - key_base
    depth = depth[up[first]]  # of each run's parent
    levels = (depth[1:] != depth[:-1]).nonzero()[0] + 1
    runs = [0] + levels.tolist() + [first.size]
    bounds = first[runs[:-1]].tolist() + [kids.size]
    for a, b, ra, rb in zip(bounds, bounds[1:], runs, runs[1:]):
        keys = delay[kids[a:b]]
        keys += key_base[a:b]
        keys.sort()
        keys += term[a:b]
        parents = up[first[ra:rb]]
        delay[parents] = np.maximum(np.maximum.reduceat(keys, first[ra:rb] - a), delay[parents])
    return delay[tops]


def validate_tree(tree: GatherTree, graph: NetworkSnapshot) -> bool:
    """True iff ``tree`` is a gathering tree over ``graph``.

    Its members (level >= 0) are the alive nodes; other nodes have level and
    parent -1 and no intermediate flag; the root has level 0, parent -1 and
    is intermediate; every other member's parent is an intermediate graph
    neighbour one level up. So the parent links span the alive nodes, and
    the intermediates dominate the graph and form a subtree at the root.
    """
    n = graph.node_count
    parent, level, inter, root = tree.parent, tree.level, tree.intermediate, tree.root
    if not parent.shape == level.shape == inter.shape == (n,) or not 0 <= root < n:
        return False
    members = level >= 0
    outside = ~members
    if not np.array_equal(members, graph.alive):
        return False
    if inter[outside].any() or (parent[outside] != -1).any() or (level[outside] != -1).any():
        return False
    if level[root] != 0 or parent[root] != -1 or not inter[root]:
        return False
    others = np.flatnonzero(members)
    others = others[others != root]
    up = parent[others]
    if ((up < 0) | (up >= n)).any() or not inter[up].all():
        return False
    if (level[up] + 1 != level[others]).any():
        return False
    # every (node, parent) pair is a graph edge; an edge u-v is keyed u * n + v
    edges = np.repeat(np.arange(n), graph.degrees) * n + graph.indices
    return bool(np.isin(others * n + up, edges).all())


def dump_tree(tree: GatherTree) -> str:
    """Text dump, one line per node: "id level parent role", ascending ids."""
    lines = []
    for u in np.flatnonzero(tree.level >= 0).tolist():
        if u == tree.root:
            role = "root"
        elif tree.intermediate[u]:
            role = "intermediate"
        else:
            role = "leaf"
        parent = int(tree.parent[u])
        lines.append(f"{u} {int(tree.level[u])} {'-' if parent < 0 else parent} {role}")
    return "\n".join(lines) + "\n"
