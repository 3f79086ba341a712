"""Comparison protocols: chain gathering (TDMA/CDMA), clustering, direct.

Every round function returns an (EnergyLedger, delay_in_slots) pair over the
full node-id space, debiting only alive participants. As in the tree
protocol, the slot in which the final aggregate travels to the sink is not
counted in the delay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .network import _pairs_within
from .radio import EnergyLedger, RadioParams, hop_lengths, tx_cost, tx_energy
from .seeding import make_rng

PROTOCOLS = ("emln", "leach", "pegasis-tdma", "pegasis-cdma", "direct")


@dataclass(frozen=True)
class Chain:
    """Greedy nearest-neighbor ordering of node ids, built once per run.

    The ids must be distinct and non-negative; a round checks that they are
    below its node count.
    """

    order: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.order)) != len(self.order) or (self.order and self.ids.min() < 0):
            raise ValueError("chain ids must be distinct non-negative node ids")

    @cached_property
    def ids(self) -> np.ndarray:
        """``order`` as a read-only int64 array."""
        ids = np.array(self.order, dtype=np.int64)
        ids.flags.writeable = False
        return ids


@dataclass(frozen=True)
class ClusterAssignment:
    """Cluster heads plus each member's head for one round.

    No head may also be a member, and every member's head must be a head.
    """

    heads: frozenset[int]
    membership: dict[int, int]

    def __post_init__(self):
        if not self.heads.isdisjoint(self.membership):
            raise ValueError("a cluster head cannot also be a member")
        if not self.heads.issuperset(self.membership.values()):
            raise ValueError("every member's head must be one of the heads")


# Neighbour lists are built only while the grid search behind them meets at
# most this many candidate pairs per node (about 18 for uniform nodes), so a
# clumped layout costs the plain scan's time, not O(n^2) memory.
CHAIN_CANDIDATES_PER_NODE = 64


def _neighbour_lists(pos: np.ndarray):
    """Per-node lists of the nodes strictly closer than sqrt(R*R), nearest first.

    R = 2 sqrt(box area / node count), about twice the mean spacing. Node i's
    list is ``nbrs[bounds[i]:bounds[i + 1]]``, ordered by the float
    sqrt(dx*dx + dy*dy), then by index. All lists are empty for one node, a
    box of zero area, a span past the float range, or too many candidates.
    """
    n = len(pos)
    x, y = pos[:, 0], pos[:, 1]
    with np.errstate(over="ignore", invalid="ignore"):  # a span past the float range
        radius = 2.0 * math.sqrt((x.max() - x.min()) * (y.max() - y.min()) / n)
    no_lists = [0] * (n + 1), []
    if not 0.0 < radius * radius < math.inf:
        return no_lists
    try:
        a, b = _pairs_within(pos, radius, CHAIN_CANDIDATES_PER_NODE * n)
    except ValueError:
        return no_lists
    dx, dy = x[b] - x[a], y[b] - y[a]  # x[a] - x[b] squares to the same float
    d = np.sqrt(dx * dx + dy * dy)
    # keep what is strictly nearer than any node left out (at least sqrt(R*R) away)
    near = d < math.sqrt(radius * radius)
    owner, other = np.concatenate((a[near], b[near])), np.concatenate((b[near], a[near]))
    d = np.tile(d[near], 2)
    # by owner, then distance: rank the distances, then one integer sort
    rank = np.empty(d.size, dtype=np.int64)
    rank[np.argsort(d)] = np.arange(d.size)
    order = np.argsort(owner * d.size + rank)
    if ((np.diff(owner[order]) == 0) & (np.diff(d[order]) == 0)).any():
        order = np.lexsort((other, d, owner))  # equal distances in one list: by index
    bounds = np.searchsorted(owner[order], np.arange(n + 1))
    return memoryview(bounds), memoryview(other[order])


def build_chain(positions, sink, alive=None) -> Chain:
    """Chain the nodes greedily, starting from the one farthest from the sink.

    Repeatedly appends the unvisited node nearest to the last appended one;
    ties break toward the lower id. Each node appears exactly once. Hop
    lengths tend to grow toward the end of the chain, since the greedy rule
    leaves the stragglers for last.

    Neighbour lists with a fallback search (Bentley, "Fast algorithms for
    geometric traveling salesman problems", 1992): the first unvisited entry
    of the current node's list is the nearest unvisited node, since every
    node left out of the list is farther. When the list has none, one exact
    scan of the unvisited nodes decides. Both compare the floats
    sqrt(dx*dx + dy*dy), so the chain is the one a scan at every step gives.
    """
    positions = np.asarray(positions, dtype=float)
    alive = np.ones(len(positions), dtype=bool) if alive is None else np.asarray(alive, dtype=bool)
    ids = np.flatnonzero(alive)
    if ids.size == 0:
        raise ValueError("need at least one alive node")
    pos = positions[ids]  # local index i is node ids[i]: lower index, lower id
    if not np.isfinite(pos).all():
        raise ValueError("alive node positions must be finite")
    sink = np.asarray(sink, dtype=float)
    first = int(np.argmax(np.linalg.norm(pos - sink, axis=1)))

    bounds, nbrs = _neighbour_lists(pos)
    x, y = pos[:, 0], pos[:, 1]
    visited = bytearray(ids.size)
    rest = np.arange(ids.size)  # a superset of the unvisited nodes, in id order
    steps = [first]
    cur = first
    for _ in range(ids.size - 1):
        visited[cur] = True
        for k in range(bounds[cur], bounds[cur + 1]):
            if not visited[nbrs[k]]:
                cur = nbrs[k]
                break
        else:
            rest = rest[~np.frombuffer(visited, dtype=bool)[rest]]
            # sqrt(dx*dx + dy*dy) is what np.linalg.norm(..., axis=1) computes
            dx, dy = x[rest] - x[cur], y[rest] - y[cur]
            dist = np.sqrt(dx * dx + dy * dy)
            best = int(dist.argmin())
            # if every distance overflowed, take the lowest unvisited id
            cur = int(rest[best if dist[best] < np.inf else 0])
        steps.append(cur)
    return Chain(tuple(ids[steps].tolist()))


def _node_arrays(positions, alive) -> tuple[np.ndarray, np.ndarray]:
    """``positions`` and ``alive`` as arrays, checked to cover the same nodes."""
    positions = np.asarray(positions, dtype=float)
    alive = np.asarray(alive, dtype=bool)
    if alive.shape != (len(positions),):
        raise ValueError(f"expected {len(positions)} alive flags, got shape {alive.shape}")
    return positions, alive


def _alive_subchain(chain: Chain, alive: np.ndarray) -> np.ndarray:
    # dead nodes are bridged by skipping to the next alive node in chain order
    try:
        sub = chain.ids[alive[chain.ids]]
    except IndexError:
        raise ValueError("chain ids must be below the node count") from None
    if sub.size == 0:
        raise ValueError("need at least one alive node")
    return sub


def _leader_to_sink(ledger: EnergyLedger, leader: int, positions, sink,
                    params: RadioParams) -> None:
    """The leader fuses its own reading and sends the aggregate to the sink."""
    k = params.packet_bits
    ledger.fuse[leader] += params.e_fuse * k
    d_sink = float(np.linalg.norm(positions[leader] - np.asarray(sink, dtype=float)))
    ledger.tx[leader] += tx_energy(params, k, d_sink)


def pegasis_tdma_round(chain: Chain, alive, leader_seed: int | np.random.Generator,
                       positions, sink, params: RadioParams) -> tuple[EnergyLedger, int]:
    """One chain round: both sides relay toward a randomly chosen leader.

    Every non-leader transmits once to its chain successor toward the
    leader; each reception also costs one fusion. The two sides run in
    parallel but are serial within themselves, so the delay is the longer
    side's length. The leader fuses its own reading and forwards the
    aggregate to the sink.
    """
    positions, alive = _node_arrays(positions, alive)
    sub = _alive_subchain(chain, alive)
    m = sub.size
    leader_pos = int(make_rng(leader_seed).integers(m))
    k = params.packet_bits
    ledger = EnergyLedger.empty(len(positions))

    # hop i joins sub[i] and sub[i + 1]; |a - b| == |b - a| exactly
    hop_tx = tx_cost(params, k, hop_lengths(positions[sub[1:]], positions[sub[:-1]]))
    ledger.tx[sub[:leader_pos]] = hop_tx[:leader_pos]        # left side sends rightward
    ledger.tx[sub[leader_pos + 1:]] = hop_tx[leader_pos:]    # right side sends leftward
    # an interior leader receives from both sides
    receivers = np.concatenate((sub[1:leader_pos + 1], sub[leader_pos:-1]))
    np.add.at(ledger.rx, receivers, float(params.e_elec * k))
    np.add.at(ledger.fuse, receivers, float(params.e_fuse * k))

    _leader_to_sink(ledger, int(sub[leader_pos]), positions, sink, params)
    return ledger, max(leader_pos, m - 1 - leader_pos)


def pegasis_cdma_round(chain: Chain, alive, leader_seed: int | np.random.Generator,
                       positions, sink, params: RadioParams) -> tuple[EnergyLedger, int]:
    """One binary-aggregation round: ceil(log2 m) levels of parallel pairs.

    At each level the active nodes pair up consecutively in chain order; in
    a pair holding the leader the leader receives, otherwise the lower chain
    position does, and an unpaired node rises for free. Exactly m - 1
    in-network transmissions happen (under distinct codes, one slot per
    level) before the leader tops out and transmits to the sink.
    """
    positions, alive = _node_arrays(positions, alive)
    sub = _alive_subchain(chain, alive)
    leader_pos = int(make_rng(leader_seed).integers(sub.size))
    k = params.packet_bits
    ledger = EnergyLedger.empty(len(positions))

    # every node sends at most once and receptions add equal constants, so
    # the pairs of all levels can be debited together
    active = sub.tolist()
    senders: list[int] = []
    receivers: list[int] = []
    levels = 0
    while len(active) > 1:
        paired = len(active) & ~1
        first, second = active[0:paired:2], active[1:paired:2]
        if leader_pos % 2:
            # the leader is the second of its pair: it receives instead
            i = leader_pos // 2
            first[i], second[i] = second[i], first[i]
        receivers += first
        senders += second
        active = first + active[paired:]
        leader_pos //= 2
        levels += 1

    s, r = np.array(senders, dtype=np.int64), np.array(receivers, dtype=np.int64)
    ledger.tx[s] = tx_cost(params, k, hop_lengths(positions[s], positions[r]))
    np.add.at(ledger.rx, r, float(params.e_elec * k))
    np.add.at(ledger.fuse, r, float(params.e_fuse * k))

    _leader_to_sink(ledger, active[0], positions, sink, params)
    return ledger, levels


# members per block of the nearest-head search are chosen so that a block's
# distance array holds about this many entries, whatever the head count
NEAREST_HEAD_BLOCK = 1 << 16


def leach_elect(positions, alive, round_index: int, p_head: float,
                seed: int | np.random.Generator, served: frozenset[int] = frozenset(),
                ) -> tuple[ClusterAssignment, frozenset[int]]:
    """Elect cluster heads for one round and assign members to them.

    Rotation follows the classic threshold scheme: within an epoch of
    ceil(1/p_head) rounds a node serves at most once, self-electing with
    probability p_head / (1 - p_head * (round_index mod epoch)), which makes
    the expected head count p_head * n every round and forces the remaining
    eligibles to elect in the epoch's last round. The draw is repeated until
    at least one head exists. Members join their nearest head (ties to the
    lower head id), searched over blocks of members so that memory stays
    O(n) beyond a fixed-size block. Returns the assignment and the updated
    served set, which the caller carries between rounds.
    """
    if not 0 < p_head <= 1:
        raise ValueError("p_head must be in (0, 1]")
    positions, alive = _node_arrays(positions, alive)
    if not alive.any():
        raise ValueError("need at least one alive node")

    epoch = math.ceil(1 / p_head)
    r = round_index % epoch
    if r == 0:
        served = frozenset()
    threshold = p_head / (1 - p_head * r)

    served_ids = list(served)
    if served_ids and (min(served_ids) < 0 or max(served_ids) >= len(alive)):
        raise ValueError(f"served ids must be node ids below {len(alive)}")
    pool = alive.copy()
    pool[served_ids] = False
    eligible = np.flatnonzero(pool)
    if eligible.size == 0:
        # deaths can exhaust the pool mid-epoch; start a fresh epoch early
        served = frozenset()
        eligible = np.flatnonzero(alive)

    rng = make_rng(seed)
    heads = eligible[rng.random(eligible.size) < threshold]
    while heads.size == 0:
        heads = eligible[rng.random(eligible.size) < threshold]
    head_list = heads.tolist()
    served = served.union(head_list)

    pool = alive.copy()
    pool[heads] = False
    member_ids = np.flatnonzero(pool)
    nearest = np.empty(member_ids.size, dtype=np.int64)
    hx, hy = positions[heads, 0], positions[heads, 1]
    mx, my = positions[member_ids, 0], positions[member_ids, 1]
    rows = max(1, NEAREST_HEAD_BLOCK // heads.size)
    for lo in range(0, member_ids.size, rows):
        dx = mx[lo:lo + rows, None] - hx
        dy = my[lo:lo + rows, None] - hy
        nearest[lo:lo + rows] = (dx * dx + dy * dy).argmin(axis=1)
    membership = dict(zip(member_ids.tolist(), heads[nearest].tolist()))
    return ClusterAssignment(frozenset(head_list), membership), served


def leach_round(assignment: ClusterAssignment, positions, sink,
                params: RadioParams) -> tuple[EnergyLedger, int]:
    """Debit one cluster round and return its delay.

    Members transmit to their heads, clusters running in parallel under
    distinct codes with one member slot each; a head pays for receiving
    every member packet, fusing members + 1 signals, and forwarding to the
    sink. The head-to-sink forwards are serialized, so the delay is the
    largest cluster's member count plus the head count.
    """
    if not assignment.heads:
        raise ValueError("assignment must have at least one head")
    positions = np.asarray(positions, dtype=float)
    sink = np.asarray(sink, dtype=float)
    n = len(positions)
    k = params.packet_bits
    ledger = EnergyLedger.empty(n)

    head_list = sorted(assignment.heads)
    member_list = sorted(assignment.membership)
    # every member's head is a head (checked by ClusterAssignment), so the
    # extremes of both sorted lists bound every id
    ends = (head_list[0], head_list[-1], *member_list[:1], *member_list[-1:])
    if min(ends) < 0 or max(ends) >= n:
        raise ValueError(f"cluster ids must be node ids below {n}")
    heads = np.array(head_list)
    count_arr = np.zeros(len(head_list), dtype=np.int64)
    if member_list:
        members = np.array(member_list)
        their_heads = np.array(list(map(assignment.membership.__getitem__, member_list)))
        ledger.tx[members] = tx_cost(params, k, hop_lengths(positions[members],
                                                              positions[their_heads]))
        np.add.at(ledger.rx, their_heads, float(params.e_elec * k))
        count_arr = np.bincount(their_heads, minlength=n)[heads]

    ledger.fuse[heads] = params.e_fuse * k * (count_arr + 1)
    ledger.tx[heads] += tx_cost(params, k, hop_lengths(positions[heads], sink))
    return ledger, int(count_arr.max()) + len(heads)


def direct_round(alive, positions, sink, params: RadioParams) -> tuple[EnergyLedger, int]:
    """Every alive node transmits straight to the sink, one slot each."""
    positions, alive = _node_arrays(positions, alive)
    ledger = EnergyLedger.empty(len(alive))
    ids = np.flatnonzero(alive)
    if ids.size:
        d = hop_lengths(positions[ids], np.asarray(sink, dtype=float))
        ledger.tx[ids] = tx_cost(params, params.packet_bits, d)
    return ledger, int(ids.size)
