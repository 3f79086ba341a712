"""Comparison protocols: chain gathering (TDMA/CDMA), clustering, direct.

Rounds are built in blocks: a block function takes what a block's rounds
drew (leaders, elected heads) and returns an EnergyLedger with one row per
round, plus one delay per round. ``cluster_block`` debits one trial's
rounds over the full node-id space, (rounds, n), debiting only alive
participants. The chain block functions debit the rounds of several trials
whose alive chains have one size m over chain positions, (trials, rounds,
m), and ``chain_to_nodes`` spreads such rows over the node ids. Each round
function returns the one-round case, an (EnergyLedger, delay_in_slots)
pair. As in the tree protocol, the slot in which the final aggregate
travels to the sink is not counted in the delay.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .network import _pairs_within
from .radio import EnergyLedger, RadioParams, dot_hop_lengths, hop_lengths, tx_cost
from .seeding import make_rng


# Neighbour lists are built only while the grid search behind them meets at
# most this many candidate pairs per node (about 18 for uniform nodes), so a
# clumped layout costs the plain scan's time, not O(n^2) memory.
CHAIN_CANDIDATES_PER_NODE = 64


def _list_radius(pos: np.ndarray) -> float:
    """R = 2 sqrt(box area / node count), about twice the mean spacing: the
    radius of the chain's neighbour lists; inf or nan for a span past the
    float range."""
    x, y = pos[:, 0], pos[:, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        return 2.0 * math.sqrt((x.max() - x.min()) * (y.max() - y.min()) / len(pos))


def _neighbour_lists(pos: np.ndarray):
    """Per-node lists of the nodes strictly closer than sqrt(R*R), nearest first.

    R is ``_list_radius(pos)``, about twice the mean spacing. Node i's
    list is ``nbrs[bounds[i]:bounds[i + 1]]``, ordered by the float
    sqrt(dx*dx + dy*dy), then by index. All lists are empty for one node, a
    box of zero area, a span past the float range, or too many candidates.
    """
    n = len(pos)
    radius = _list_radius(pos)
    no_lists = [0] * (n + 1), []
    if not 0.0 < radius * radius < math.inf:
        return no_lists
    try:
        a, b, d2 = _pairs_within(pos, radius, CHAIN_CANDIDATES_PER_NODE * n)
    except ValueError:
        return no_lists
    d = np.sqrt(d2)  # the grid search's dx*dx + dy*dy, so the scan's float distance
    # keep what is strictly nearer than any node left out (at least sqrt(R*R) away)
    near = np.flatnonzero(d < math.sqrt(radius * radius))
    near = near.take(np.argsort(d.take(near)))  # nearest pair first
    a, b, d = a.take(near), b.take(near), d.take(near)
    # each pair once for each end, then stably by owner: by owner, then distance
    # (a stable sort of keys of 16 bits or fewer is a radix sort)
    owner, other = np.stack((a, b), axis=1).ravel(), np.stack((b, a), axis=1).ravel()
    order = np.argsort(owner.astype(np.min_scalar_type(n)), kind="stable")
    if (d[1:] == d[:-1]).any():  # equal distances, perhaps in one list: by index there
        order = np.lexsort((other, np.repeat(d, 2), owner))
    bounds = np.concatenate(([0], np.bincount(owner, minlength=n).cumsum()))
    return memoryview(bounds), memoryview(other.take(order))


def build_chain(positions, sink, alive=None) -> np.ndarray:
    """Chain the alive nodes greedily, starting from the one farthest from the sink.

    Returns the node ids in chain order, as a read-only int64 array.
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
    if alive is None:
        alive = np.ones(len(positions), dtype=bool)
    positions, alive = _node_arrays(positions, alive)
    ids = np.flatnonzero(alive)
    if ids.size == 0:
        raise ValueError("need at least one alive node")
    pos = positions[ids]  # local index i is node ids[i]: lower index, lower id
    if not np.isfinite(pos).all():
        raise ValueError("alive node positions must be finite")
    sink = np.asarray(sink, dtype=float)
    first = int(np.argmax(np.linalg.norm(pos - sink, axis=1)))

    bounds, nbrs = _neighbour_lists(pos)
    x, y = pos.T.copy()
    visited = bytearray(ids.size)
    seen = np.frombuffer(visited, dtype=bool)  # a view: it follows ``visited``
    rest = np.arange(ids.size)  # a superset of the unvisited nodes, in id order
    steps = [first]
    cur = first
    for _ in range(ids.size - 1):
        visited[cur] = True
        for v in nbrs[bounds[cur]:bounds[cur + 1]]:
            if not visited[v]:
                cur = v
                break
        else:
            rest = rest.compress(~seen.take(rest))
            # sqrt(dx*dx + dy*dy), what np.linalg.norm(..., axis=1) computes, in place
            dist = x.take(rest)
            dist -= x[cur]
            dist *= dist
            dy = y.take(rest)
            dy -= y[cur]
            dy *= dy
            dist += dy
            np.sqrt(dist, out=dist)
            best = int(dist.argmin())
            # if every distance overflowed, take the lowest unvisited id
            cur = int(rest[best if dist[best] < np.inf else 0])
        steps.append(cur)
    chain = ids[steps]
    chain.flags.writeable = False
    return chain


def _node_arrays(positions, alive) -> tuple[np.ndarray, np.ndarray]:
    """``positions`` and ``alive`` as arrays, checked to cover the same nodes."""
    positions = np.asarray(positions, dtype=float)
    alive = np.asarray(alive, dtype=bool)
    if alive.shape != (len(positions),):
        raise ValueError(f"expected {len(positions)} alive flags, got shape {alive.shape}")
    return positions, alive


def _repeated_sums(step: float, most: int) -> np.ndarray:
    """``S[j]``: ``step`` added j times to 0.0, one addition at a time.

    ``np.add.at`` debits j receptions of one constant this way, and the
    float result is not ``j * step``.
    """
    return np.add.accumulate(np.concatenate(([0.0], np.full(most, step))))


class AliveChain:
    """A chain's alive nodes in chain order: what the rounds over one alive set share.

    ``chain`` holds node ids in chain order, as ``build_chain`` returns them;
    they must be distinct, non-negative and below the node count. Dead nodes
    are bridged by skipping to the next alive node in chain order. Chain
    position p is node ``sub[p]``, at ``points[p]``. ``sink_tx[p]`` is what
    position p pays to send to the sink as leader, computed for every
    position at once.
    """

    def __init__(self, chain, alive, positions, sink, params: RadioParams):
        positions, alive = _node_arrays(positions, alive)
        chain = np.asarray(chain, dtype=np.int64)
        if (chain.size and chain.min() < 0) or (np.diff(np.sort(chain)) == 0).any():
            raise ValueError("chain ids must be distinct non-negative node ids")
        try:
            self.sub = chain[alive[chain]]
        except IndexError:
            raise ValueError("chain ids must be below the node count") from None
        if self.sub.size == 0:
            raise ValueError("need at least one alive node")
        self.node_count, self.params = len(alive), params
        self.points = positions.take(self.sub, axis=0)
        self.sink_tx = tx_cost(params, params.packet_bits,
                               dot_hop_lengths(self.points, np.asarray(sink, dtype=float)))

    def hop_tx(self, senders, receivers) -> np.ndarray:
        """Transmit cost from each sender to its receiver, both chain positions."""
        hops = hop_lengths(self.points.take(senders, axis=0), self.points.take(receivers, axis=0))
        return tx_cost(self.params, self.params.packet_bits, hops)

    @cached_property
    def _tdma_hops(self) -> tuple[np.ndarray, np.ndarray]:
        # position p's hop toward a leader after it (p + 1) or before it (p - 1)
        hop = self.hop_tx(np.arange(1, self.sub.size), np.arange(self.sub.size - 1))
        return np.append(hop, 0.0), np.concatenate(([0.0], hop))

    @cached_property
    def _cdma_tree(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # without a leader, position p sends to p - lowbit(p) and position 0 tops out
        p = np.arange(self.sub.size)
        lowbit = p & -p
        parent = p - lowbit
        twice_lowbit = 2 * lowbit
        twice_lowbit[0] = 2 * self.sub.size  # 0 sends to any other leader
        return parent, self.hop_tx(p, parent), twice_lowbit


def _chain_ledgers(chains, tx: np.ndarray, receptions: np.ndarray,
                   leaders: np.ndarray) -> EnergyLedger:
    """(T, rows, m) debits over chain positions, from arrays of that shape.

    ``tx`` holds each non-leader's hop and ``receptions`` each position's
    packet count; each leader fuses its own reading too and sends the
    aggregate to the sink. Row t is over ``chains[t]``; the chains share
    one size and radio.
    """
    params, (trials, rows, m) = chains[0].params, tx.shape
    t, r = np.arange(trials)[:, None], np.arange(rows)
    tx[t, r, leaders] = np.array([c.sink_tx for c in chains])[t, leaders]
    k, most = params.packet_bits, m.bit_length() + 2  # receptions per node: ceil(log2 m) at most
    rx = _repeated_sums(float(params.e_elec * k), most)[receptions]
    receptions[t, r, leaders] += 1
    fuse = _repeated_sums(float(params.e_fuse * k), most)[receptions]
    return EnergyLedger(tx, rx, fuse)


def chain_to_nodes(chains, values: np.ndarray) -> np.ndarray:
    """(T, rows, n) values by node id from (T, rows, m) ones by position on ``chains[t]``.

    Nodes off a chain get 0.0, as a ledger's idle nodes do.
    """
    trials, rows, _ = values.shape
    out = np.zeros((trials, rows, chains[0].node_count))
    out[np.arange(trials)[:, None, None], np.arange(rows)[:, None],
        np.array([c.sub for c in chains])[:, None]] = values
    return out


def pegasis_tdma_block(chains, leaders) -> tuple[EnergyLedger, np.ndarray]:
    """TDMA chain rounds, one per leader: ledger rows and delays.

    ``chains`` share one size m, node count and radio, and ``leaders``
    holds one row of leaders (chain positions) per chain, all rows of one
    length. The ledger holds (T, rows, m) arrays over chain positions and
    the delays are (T, rows). Every non-leader transmits once to its chain
    neighbour toward the leader, and each reception also costs one fusion:
    position p receives from p - 1 if 1 <= p <= leader and from p + 1 if
    leader <= p <= m - 2.
    """
    leaders, m = np.asarray(leaders, dtype=np.int64), chains[0].sub.size
    p = np.arange(m)
    lead = leaders[..., None]
    ahead, behind = (np.array(hops)[:, None] for hops in zip(*(c._tdma_hops for c in chains)))
    tx = np.where(p < lead, ahead, behind)
    receptions = ((p >= 1) & (p <= lead)).astype(np.int64) + ((p >= lead) & (p <= m - 2))
    return _chain_ledgers(chains, tx, receptions, leaders), np.maximum(leaders, m - 1 - leaders)


def pegasis_cdma_block(chains, leaders) -> tuple[EnergyLedger, np.ndarray]:
    """CDMA binary-aggregation rounds, one per leader: ledger rows and delays.

    Arguments and results as for ``pegasis_tdma_block``. In closed form:
    with d the highest set bit of p ^ leader, a non-leader at position p
    sends to the leader if p's low d bits are zero, which is when
    2 lowbit(p) > p ^ leader; otherwise to p - lowbit(p). Every leader takes
    ceil(log2 m) levels.
    """
    leaders, m = np.asarray(leaders, dtype=np.int64), chains[0].sub.size
    trials, rows = leaders.shape
    p = np.arange(m)
    lead = leaders[..., None]
    parent, _, twice_lowbit = chains[0]._cdma_tree  # these two depend on m alone
    sends = p != lead
    to_leader = sends & (twice_lowbit > (p ^ lead))
    receiver = np.where(to_leader, lead, parent)
    cells = np.arange(trials * rows).reshape(trials, rows, 1)
    receptions = np.bincount((cells * m + receiver)[sends],
                             minlength=trials * rows * m).reshape(trials, rows, m)
    tx = np.where(sends, np.array([c._cdma_tree[1] for c in chains])[:, None], 0.0)
    ts, ks, ps = np.nonzero(to_leader)
    points = np.array([c.points for c in chains])
    params = chains[0].params
    tx[ts, ks, ps] = tx_cost(params, params.packet_bits,
                             hop_lengths(points[ts, ps], points[ts, leaders[ts, ks]]))
    delays = np.full(leaders.shape, (m - 1).bit_length())
    return _chain_ledgers(chains, tx, receptions, leaders), delays


def _chain_round(block, links: AliveChain, seed) -> tuple[EnergyLedger, int]:
    """The one round of ``block`` over ``links`` whose leader ``seed`` draws, over all nodes."""
    ledger, delays = block([links], [[int(make_rng(seed).integers(links.sub.size))]])
    parts = (chain_to_nodes([links], part)[0, 0] for part in (ledger.tx, ledger.rx, ledger.fuse))
    return EnergyLedger(*parts), int(delays[0, 0])


def pegasis_tdma_round(chain, alive, leader_seed: int | np.random.Generator,
                       positions, sink, params: RadioParams) -> tuple[EnergyLedger, int]:
    """One chain round: both sides relay toward a randomly chosen leader.

    Every non-leader transmits once to its chain successor toward the
    leader; each reception also costs one fusion. The two sides run in
    parallel but are serial within themselves, so the delay is the longer
    side's length. The leader fuses its own reading and forwards the
    aggregate to the sink.
    """
    links = AliveChain(chain, alive, positions, sink, params)
    return _chain_round(pegasis_tdma_block, links, leader_seed)


def pegasis_cdma_round(chain, alive, leader_seed: int | np.random.Generator,
                       positions, sink, params: RadioParams) -> tuple[EnergyLedger, int]:
    """One binary-aggregation round: ceil(log2 m) levels of parallel pairs.

    At each level the active nodes pair up consecutively in chain order; in
    a pair holding the leader the leader receives, otherwise the lower chain
    position does, and an unpaired node rises for free. Exactly m - 1
    in-network transmissions happen (under distinct codes, one slot per
    level) before the leader tops out and transmits to the sink.
    """
    links = AliveChain(chain, alive, positions, sink, params)
    return _chain_round(pegasis_cdma_block, links, leader_seed)


# LEACH's smallest head probability. An election redraws until a head exists,
# about 1 / (m * p_head) times on average for m eligible nodes, so this keeps
# it at about 10,000 draws at worst; 20,000 nodes still elect 2 heads a round.
MIN_LEACH_P = 1e-4

# the nearest-head search works on blocks of (election, node) pairs, so that a
# block's distance array holds about this many entries, whatever the head count
NEAREST_HEAD_BLOCK = 1 << 13


def elect_heads(alive: np.ndarray, served: np.ndarray, round_index: int, p_head: float,
                rng: np.random.Generator) -> np.ndarray:
    """One LEACH election: the heads, ascending. ``served`` is updated in place.

    Rotation follows the classic threshold scheme: within an epoch of
    ceil(1/p_head) rounds a node serves at most once, self-electing with
    probability p_head / (1 - p_head * (round_index mod epoch)), which makes
    the expected head count p_head * n every round and forces the remaining
    eligibles to elect in the epoch's last round. The draw is repeated until
    at least one head exists.
    """
    r = round_index % math.ceil(1 / p_head)
    if r == 0:
        served[:] = False
    threshold = p_head / (1 - p_head * r)
    eligible = np.flatnonzero(alive > served)
    if eligible.size == 0:
        # deaths can exhaust the pool mid-epoch; start a fresh epoch early
        served[:] = False
        eligible = np.flatnonzero(alive)
    heads = eligible[rng.random(eligible.size) < threshold]
    while heads.size == 0:
        heads = eligible[rng.random(eligible.size) < threshold]
    served[heads] = True
    return heads


def cluster_rows(positions: np.ndarray, alive: np.ndarray, head_rows) -> np.ndarray:
    """``cluster_block``'s ``head_of`` rows, one per election of ``head_rows`` (ascending ids).

    Each alive node joins its nearest head, by exact squared distances with
    ties to the lower head id; a head leads itself, whoever shares its spot,
    and a dead node gets -1. The search runs over blocks of elections and
    nodes, so that memory stays O(elections x nodes) beyond a fixed-size block.
    """
    ids = np.flatnonzero(alive)
    sizes = np.array([h.size for h in head_rows])
    width = int(sizes.max())
    # pad each row with its last head: argmin keeps the first of equal minima
    ends = np.cumsum(sizes)
    elected = np.concatenate(head_rows)
    padded = elected[np.minimum(ends[:, None] - sizes[:, None] + np.arange(width),
                                ends[:, None] - 1)]
    hx, hy = positions[padded, 0], positions[padded, 1]
    x, y = positions[ids, 0], positions[ids, 1]
    nearest = np.empty((len(head_rows), ids.size), dtype=np.int64)
    span = max(1, min(ids.size, NEAREST_HEAD_BLOCK // width))
    rows = max(1, NEAREST_HEAD_BLOCK // (width * span))
    for r in range(0, len(head_rows), rows):
        for lo in range(0, ids.size, span):
            dx = x[lo:lo + span, None] - hx[r:r + rows, None]
            dy = y[lo:lo + span, None] - hy[r:r + rows, None]
            dx *= dx
            dy *= dy
            dx += dy
            nearest[r:r + rows, lo:lo + span] = dx.argmin(axis=2)
    head_of = np.full((len(head_rows), len(alive)), -1)
    head_of[:, ids] = np.take_along_axis(padded, nearest, axis=1)
    head_of[np.repeat(np.arange(len(head_rows)), sizes), elected] = elected
    return head_of


def leach_elect(positions, alive, round_index: int, p_head: float,
                seed: int | np.random.Generator, served=None) -> tuple[np.ndarray, np.ndarray]:
    """Elect cluster heads for one round and assign members to them.

    The election is ``elect_heads``; members join their nearest head (ties
    to the lower head id). ``served`` is the (n,) bool mask of the nodes
    that have headed a cluster in this epoch, none if omitted. Returns the
    (n,) ``head_of`` row that ``leach_round`` takes, built by
    ``cluster_rows``, and the updated served mask, a new array, which the
    caller carries between rounds.
    """
    if not MIN_LEACH_P <= p_head <= 1:
        raise ValueError(f"p_head must be in [{MIN_LEACH_P}, 1]")
    positions, alive = _node_arrays(positions, alive)
    if not alive.any():
        raise ValueError("need at least one alive node")
    served = np.zeros(len(alive), dtype=bool) if served is None else np.array(served, dtype=bool)
    if served.shape != alive.shape:
        raise ValueError(f"served must be a mask of {len(alive)} flags, got shape {served.shape}")

    heads = elect_heads(alive, served, round_index, p_head, make_rng(seed))
    return cluster_rows(positions, alive, [heads])[0], served


def cluster_block(head_of: np.ndarray, positions, sink_tx: np.ndarray,
                  params: RadioParams) -> tuple[EnergyLedger, np.ndarray]:
    """Cluster rounds: ledger rows and delays, one per row of ``head_of``.

    ``head_of[r, u]`` is u's head in round r, u itself for a head, and -1
    for a node that takes no part. ``sink_tx[h]`` is head h's transmit cost
    to the sink. Members transmit to their heads, clusters running in
    parallel under distinct codes with one member slot each; a head pays
    for receiving every member packet, fusing members + 1 signals, and
    forwarding to the sink. The head-to-sink forwards are serialized, so
    the delay is the largest cluster's member count plus the head count.
    """
    rows, n = head_of.shape
    k = params.packet_bits
    is_head = head_of == np.arange(n)
    cells = np.flatnonzero((head_of >= 0) & ~is_head)  # r * n + u for member u of round r
    members = cells % n
    their_heads = head_of.take(cells)
    tx = np.where(is_head, sink_tx, 0.0)
    tx.put(cells, tx_cost(params, k, hop_lengths(positions.take(members, axis=0),
                                                 positions.take(their_heads, axis=0))))
    counts = np.bincount(cells - members + their_heads, minlength=rows * n).reshape(rows, n)
    rx = _repeated_sums(float(params.e_elec * k), int(counts.max()))[counts]
    fuse = np.where(is_head, params.e_fuse * k * (counts + 1), 0.0)
    return EnergyLedger(tx, rx, fuse), counts.max(axis=1) + np.count_nonzero(is_head, axis=1)


def leach_round(head_of, positions, sink, params: RadioParams) -> tuple[EnergyLedger, int]:
    """Debit one cluster round over a ``head_of`` row, as ``cluster_block`` does.

    ``head_of[u]`` is u's head, u itself for a head, or -1 for a node that
    takes no part; there must be a head, and every participant's head must
    be one.
    """
    positions = np.asarray(positions, dtype=float)
    n = len(positions)
    head_of = np.asarray(head_of)
    if head_of.shape != (n,) or head_of.dtype.kind not in "iu":
        raise ValueError(f"expected {n} integer head ids, got {head_of.dtype} {head_of.shape}")
    is_head = head_of == np.arange(n)
    if not is_head.any():
        raise ValueError("need at least one cluster head")
    if head_of.min() < -1 or head_of.max() >= n:
        raise ValueError(f"cluster ids must be -1 or node ids below {n}")
    if not is_head[head_of[head_of >= 0]].all():
        raise ValueError("every member's head must be one of the heads")
    sink_tx = direct_round(is_head, positions, sink, params)[0].tx  # the heads' sends
    ledger, delays = cluster_block(head_of[None], positions, sink_tx, params)
    return EnergyLedger(ledger.tx[0], ledger.rx[0], ledger.fuse[0]), int(delays[0])


def direct_round(alive, positions, sink, params: RadioParams) -> tuple[EnergyLedger, int]:
    """Every alive node transmits straight to the sink, one slot each.

    The ledger depends on the alive set alone, so it is every round's
    ledger until a node dies.
    """
    positions, alive = _node_arrays(positions, alive)
    ledger = EnergyLedger.empty(len(alive))
    ids = np.flatnonzero(alive)
    if ids.size:
        d = hop_lengths(positions.take(ids, axis=0), np.asarray(sink, dtype=float))
        ledger.tx[ids] = tx_cost(params, params.packet_bits, d)
    return ledger, int(ids.size)
