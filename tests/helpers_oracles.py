"""Independent brute-force oracles used to cross-check the implementation.

Everything here re-derives expected values from first principles (subset
enumeration, permutation search, slot-by-slot schedule stepping, scalar
energy recounts, a closed-form geometric integral) and shares no code with
the algorithms under test. ``random_gather_tree`` draws trees to feed them,
filling in gathersim's ``GatherTree`` record.
"""

from __future__ import annotations

import itertools

import numpy as np

from gathersim import GatherTree


def induced_connected(adj, subset) -> bool:
    """True iff ``subset`` induces a connected subgraph of adjacency lists ``adj``."""
    subset = set(subset)
    if not subset:
        return False
    start = next(iter(subset))
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v in subset and v not in seen:
                seen.add(v)
                stack.append(v)
    return seen == subset


def is_dominating(adj, subset) -> bool:
    subset = set(subset)
    return all(u in subset or any(v in subset for v in adj[u]) for u in range(len(adj)))


def optimal_leaf_count(adj) -> int:
    """Maximum leaf count over all spanning trees of a connected graph.

    Exhaustive search over internal-node sets: for n >= 3 a spanning tree
    whose internal set is S exists iff S is a connected dominating set, so
    the optimum is n - min|CDS|. With the childless-root convention, one
    node gives 0 leaves and two nodes give 1.
    """
    n = len(adj)
    if n == 1:
        return 0
    if n == 2:
        return 1
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            if is_dominating(adj, subset) and induced_connected(adj, subset):
                return n - size
    raise AssertionError("graph is not connected")


def optimal_leaf_count_by_tree_enumeration(adj) -> int:
    """Same optimum via direct enumeration of (n-1)-edge spanning trees.

    Only practical for tiny graphs; used to cross-check optimal_leaf_count
    itself for n >= 3, where rooted and unrooted leaf counts coincide.
    """
    n = len(adj)
    edges = sorted({tuple(sorted((u, v))) for u in range(n) for v in adj[u]})
    best = -1
    for combo in itertools.combinations(edges, n - 1):
        tree_adj = [[] for _ in range(n)]
        for u, v in combo:
            tree_adj[u].append(v)
            tree_adj[v].append(u)
        if induced_connected(tree_adj, range(n)):
            best = max(best, sum(1 for nbrs in tree_adj if len(nbrs) == 1))
    if best < 0:
        raise AssertionError("graph is not connected")
    return best


def min_slots_over_orderings(child_delays) -> int:
    """Minimum completion time of one parent over all child orderings.

    The parent drains one child per slot; a child's packet is available
    only after its own subtree delay. Brute-forces every permutation.
    """
    best = None
    for perm in itertools.permutations(child_delays):
        t = 0
        for d in perm:
            t = max(t + 1, d + 1)
        best = t if best is None else min(best, t)
    return 0 if best is None else best


def tree_delay_bruteforce(children, root) -> int:
    """Per-node minimum slots via the permutation search, bottom-up."""

    def rec(u):
        kids = children[u]
        if not kids:
            return 0
        return min_slots_over_orderings([rec(v) for v in kids])

    return rec(root)


def random_gather_tree(rng, n, max_children=6) -> GatherTree:
    """An n-node tree rooted at 0, each node hung under a random member with room.

    Nodes join in a random order, under a member drawn uniformly from those
    with fewer than ``max_children`` children: 1 gives a path, a large value
    a shallow bush. The root and the nodes with children are intermediate.
    """
    parent = np.full(n, -1, dtype=np.int64)
    level = np.full(n, -1, dtype=np.int64)
    kids = [[] for _ in range(n)]
    level[0] = 0
    pending = list(range(1, n))
    rng.shuffle(pending)
    for v in pending:
        slots = [u for u in range(n) if level[u] >= 0 and len(kids[u]) < max_children]
        u = int(slots[rng.integers(len(slots))])
        parent[v] = u
        level[v] = level[u] + 1
        kids[u].append(v)
    intermediate = np.array([u == 0 or bool(kids[u]) for u in range(n)])
    return GatherTree(root=0, parent=parent, level=level, intermediate=intermediate)


def tdma_schedule(subchain, leader_pos) -> tuple[int, list[tuple[int, int]]]:
    """Step the two-sided chain relay slot by slot.

    Each side forwards a growing aggregate one hop per slot toward the
    leader; the sides run in parallel. Returns (slots, transmissions).
    """
    m = len(subchain)
    left_next, right_next = 0, m - 1
    transmissions = []
    slots = 0
    while left_next < leader_pos or right_next > leader_pos:
        slots += 1
        if left_next < leader_pos:
            transmissions.append((subchain[left_next], subchain[left_next + 1]))
            left_next += 1
        if right_next > leader_pos:
            transmissions.append((subchain[right_next], subchain[right_next - 1]))
            right_next -= 1
    return slots, transmissions


def cdma_schedule(subchain, leader) -> tuple[int, list[tuple[int, int]]]:
    """Step the binary pairing scheme level by level (plain lists).

    Consecutive actives pair up; the leader receives in its pair, other
    pairs fold onto the lower chain position; odd leftovers rise free.
    Returns (levels, transmissions) and asserts the leader tops out.
    """
    active = list(subchain)
    transmissions = []
    levels = 0
    while len(active) > 1:
        nxt = []
        for i in range(0, len(active) - 1, 2):
            a, b = active[i], active[i + 1]
            receiver = b if b == leader else a
            sender = a if receiver == b else b
            transmissions.append((sender, receiver))
            nxt.append(receiver)
        if len(active) % 2:
            nxt.append(active[-1])
        active = nxt
        levels += 1
    assert active == [leader]
    return levels, transmissions


def recount_relay_ledger(transmissions, leader, positions, sink, params):
    """Scalar per-node energy recount for a chain/pair relay round.

    Every transmission costs the sender electronics plus amplifier over the
    actual distance and the receiver one reception plus one fusion; the
    leader fuses its own reading once and transmits the result to the sink.
    Returns (tx, rx, fuse) arrays.
    """
    n = len(positions)
    tx = np.zeros(n)
    rx = np.zeros(n)
    fuse = np.zeros(n)
    k = params.packet_bits
    for s, r in transmissions:
        d = float(np.hypot(positions[s][0] - positions[r][0], positions[s][1] - positions[r][1]))
        tx[s] += params.e_elec * k + params.eps_amp * k * d * d
        rx[r] += params.e_elec * k
        fuse[r] += params.e_fuse * k
    fuse[leader] += params.e_fuse * k
    d = float(np.hypot(positions[leader][0] - sink[0], positions[leader][1] - sink[1]))
    tx[leader] += params.e_elec * k + params.eps_amp * k * d * d
    return tx, rx, fuse


def recount_tree_ledger(tree, positions, sink, params):
    """Scalar recount of the gathering-tree round: per-edge tx + rx, per-
    intermediate fusion of children + 1 signals, root-to-sink forward."""
    n = len(positions)
    tx = np.zeros(n)
    rx = np.zeros(n)
    fuse = np.zeros(n)
    k = params.packet_bits
    for v in sorted(tree.intermediate_set | tree.leaf_set):
        p = int(tree.parent[v])
        if p >= 0:
            d = float(np.hypot(positions[v][0] - positions[p][0],
                               positions[v][1] - positions[p][1]))
            tx[v] += params.e_elec * k + params.eps_amp * k * d * d
            rx[p] += params.e_elec * k
    for u in tree.intermediate_set:
        fuse[u] += params.e_fuse * k * (len(tree.children[u]) + 1)
    d = float(np.hypot(positions[tree.root][0] - sink[0], positions[tree.root][1] - sink[1]))
    tx[tree.root] += params.e_elec * k + params.eps_amp * k * d * d
    return tx, rx, fuse


def pair_within_range_probability(width, height, range_m) -> float:
    """P(|X - Y| <= r) for X, Y independent and uniform on a width x height rectangle.

    The difference vector has density (W - |dx|)(H - |dy|) / (W^2 H^2); its
    integral over the disk of radius r, by quadrant symmetry, is
    (pi r^2 W H - 4 r^3 (W + H) / 3 + r^4 / 2) / (W^2 H^2). The disk must fit
    inside the support of the density, so the form holds only for r <= min(W, H).
    """
    w, h, r = float(width), float(height), float(range_m)
    if not 0 <= r <= min(w, h):
        raise ValueError("closed form needs 0 <= range_m <= min(width, height)")
    return (np.pi * r**2 * w * h - 4 * r**3 * (w + h) / 3 + r**4 / 2) / (w * w * h * h)
