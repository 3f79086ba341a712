"""Comparison protocols: chain gathering (TDMA/CDMA), clustering, direct.

Every round function returns an (EnergyLedger, delay_in_slots) pair over the
full node-id space, debiting only alive participants. As in the tree
protocol, the slot in which the final aggregate travels to the sink is not
counted in the delay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .radio import EnergyLedger, RadioParams, tx_energy
from .seeding import make_rng

PROTOCOLS = ("emln", "leach", "pegasis-tdma", "pegasis-cdma", "direct")


@dataclass(frozen=True)
class Chain:
    """Greedy nearest-neighbor ordering of node ids, built once per run."""

    order: tuple[int, ...]


@dataclass(frozen=True)
class ClusterAssignment:
    """Cluster heads plus each member's head for one round."""

    heads: frozenset[int]
    membership: dict[int, int]


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
    if not np.isfinite(positions[ids]).all():
        raise ValueError("alive node positions must be finite")
    sink = np.asarray(sink, dtype=float)
    first = int(np.argmax(np.linalg.norm(positions[ids] - sink, axis=1)))

    # one entry per alive node in id order, so argmin ties go to the lower id;
    # a visited node's x is set to inf, which puts it at distance inf
    x, y = positions[ids, 0].copy(), positions[ids, 1].copy()
    dx, dy = np.empty_like(x), np.empty_like(y)
    steps = [first]
    for _ in range(ids.size - 1):
        last = steps[-1]
        here_x, here_y = x[last], y[last]
        x[last] = np.inf
        # sqrt(dx*dx + dy*dy) is what np.linalg.norm(..., axis=1) computes
        np.subtract(x, here_x, out=dx)
        np.subtract(y, here_y, out=dy)
        np.multiply(dx, dx, out=dx)
        np.multiply(dy, dy, out=dy)
        np.add(dx, dy, out=dx)
        np.sqrt(dx, out=dx)
        nxt = int(dx.argmin())
        if dx[nxt] == np.inf:
            # every unvisited distance overflowed: take the lowest unvisited id
            nxt = int(np.isfinite(x).argmax())
        steps.append(nxt)
    order = ids[steps].tolist()
    return Chain(tuple(order))


def _alive_subchain(chain: Chain, alive) -> list[int]:
    # dead nodes are bridged by skipping to the next alive node in chain order
    return [u for u in chain.order if alive[u]]


def _debit_hops(ledger: EnergyLedger, positions, senders, receivers, params: RadioParams) -> None:
    """One packet from each sender to the paired receiver, with rx + fusion."""
    senders = np.asarray(senders, dtype=int)
    receivers = np.asarray(receivers, dtype=int)
    if senders.size == 0:
        return
    k = params.packet_bits
    d = np.linalg.norm(positions[senders] - positions[receivers], axis=1)
    np.add.at(ledger.tx, senders, params.e_elec * k + params.eps_amp * k * d * d)
    np.add.at(ledger.rx, receivers, float(params.e_elec * k))
    np.add.at(ledger.fuse, receivers, float(params.e_fuse * k))


def pegasis_tdma_round(chain: Chain, alive, leader_seed: int, positions, sink,
                       params: RadioParams) -> tuple[EnergyLedger, int]:
    """One chain round: both sides relay toward a randomly chosen leader.

    Every non-leader transmits once to its chain successor toward the
    leader; each reception also costs one fusion. The two sides run in
    parallel but are serial within themselves, so the delay is the longer
    side's length. The leader fuses its own reading and forwards the
    aggregate to the sink.
    """
    positions = np.asarray(positions, dtype=float)
    sub = _alive_subchain(chain, alive)
    if not sub:
        raise ValueError("need at least one alive node")
    m = len(sub)
    leader_pos = int(make_rng(leader_seed).integers(m))
    leader = sub[leader_pos]
    k = params.packet_bits
    ledger = EnergyLedger.empty(len(positions))

    left = sub[:leader_pos + 1]          # relays rightward into the leader
    right = sub[leader_pos:]             # relays leftward into the leader
    _debit_hops(ledger, positions, left[:-1], left[1:], params)
    _debit_hops(ledger, positions, right[:0:-1], right[-2::-1], params)

    ledger.fuse[leader] += params.e_fuse * k
    d_sink = float(np.linalg.norm(positions[leader] - np.asarray(sink, dtype=float)))
    ledger.tx[leader] += tx_energy(params, k, d_sink)
    return ledger, max(leader_pos, m - 1 - leader_pos)


def pegasis_cdma_round(chain: Chain, alive, leader_seed: int, positions, sink,
                       params: RadioParams) -> tuple[EnergyLedger, int]:
    """One binary-aggregation round: ceil(log2 m) levels of parallel pairs.

    At each level the active nodes pair up consecutively in chain order; in
    a pair holding the leader the leader receives, otherwise the lower chain
    position does, and an unpaired node rises for free. Exactly m - 1
    in-network transmissions happen (under distinct codes, one slot per
    level) before the leader tops out and transmits to the sink.
    """
    positions = np.asarray(positions, dtype=float)
    sub = _alive_subchain(chain, alive)
    if not sub:
        raise ValueError("need at least one alive node")
    m = len(sub)
    leader = sub[int(make_rng(leader_seed).integers(m))]
    k = params.packet_bits
    ledger = EnergyLedger.empty(len(positions))

    active = np.asarray(sub, dtype=int)
    levels = 0
    while active.size > 1:
        paired = active[: active.size - (active.size % 2)]
        first, second = paired[0::2], paired[1::2]
        receivers = np.where(second == leader, second, first)
        senders = np.where(second == leader, first, second)
        _debit_hops(ledger, positions, senders, receivers, params)
        rising = [receivers]
        if active.size % 2:
            rising.append(active[-1:])
        active = np.concatenate(rising)
        levels += 1

    ledger.fuse[leader] += params.e_fuse * k
    d_sink = float(np.linalg.norm(positions[leader] - np.asarray(sink, dtype=float)))
    ledger.tx[leader] += tx_energy(params, k, d_sink)
    return ledger, levels


def leach_elect(positions, alive, round_index: int, p_head: float, seed: int,
                served: frozenset[int] = frozenset()) -> tuple[ClusterAssignment, frozenset[int]]:
    """Elect cluster heads for one round and assign members to them.

    Rotation follows the classic threshold scheme: within an epoch of
    ceil(1/p_head) rounds a node serves at most once, self-electing with
    probability p_head / (1 - p_head * (round_index mod epoch)), which makes
    the expected head count p_head * n every round and forces the remaining
    eligibles to elect in the epoch's last round. The draw is repeated until
    at least one head exists. Members join their nearest head (ties to the
    lower head id). Returns the assignment and the updated served set, which
    the caller carries between rounds.
    """
    if not 0 < p_head <= 1:
        raise ValueError("p_head must be in (0, 1]")
    positions = np.asarray(positions, dtype=float)
    alive = np.asarray(alive, dtype=bool)
    alive_ids = np.flatnonzero(alive)
    if alive_ids.size == 0:
        raise ValueError("need at least one alive node")

    epoch = math.ceil(1 / p_head)
    r = round_index % epoch
    if r == 0:
        served = frozenset()
    threshold = p_head / (1 - p_head * r)

    eligible = np.array([u for u in alive_ids if int(u) not in served], dtype=int)
    if eligible.size == 0:
        # deaths can exhaust the pool mid-epoch; start a fresh epoch early
        served = frozenset()
        eligible = alive_ids.astype(int)

    rng = make_rng(seed)
    heads = eligible[rng.random(eligible.size) < threshold]
    while heads.size == 0:
        heads = eligible[rng.random(eligible.size) < threshold]
    heads = np.sort(heads)
    served = served | frozenset(int(h) for h in heads)

    head_set = frozenset(int(h) for h in heads)
    member_ids = np.array([u for u in alive_ids if int(u) not in head_set], dtype=int)
    membership: dict[int, int] = {}
    if member_ids.size:
        diff = positions[member_ids][:, None, :] - positions[heads][None, :, :]
        nearest = np.argmin((diff * diff).sum(axis=-1), axis=1)
        membership = {int(u): int(heads[j]) for u, j in zip(member_ids, nearest)}
    return ClusterAssignment(head_set, membership), served


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
    k = params.packet_bits
    ledger = EnergyLedger.empty(len(positions))

    heads = np.array(sorted(assignment.heads), dtype=int)
    counts = dict.fromkeys(assignment.heads, 0)
    if assignment.membership:
        members = np.array(sorted(assignment.membership), dtype=int)
        their_heads = np.array([assignment.membership[int(u)] for u in members], dtype=int)
        d = np.linalg.norm(positions[members] - positions[their_heads], axis=1)
        ledger.tx[members] = params.e_elec * k + params.eps_amp * k * d * d
        np.add.at(ledger.rx, their_heads, float(params.e_elec * k))
        for h in their_heads:
            counts[int(h)] += 1

    count_arr = np.array([counts[int(h)] for h in heads])
    ledger.fuse[heads] = params.e_fuse * k * (count_arr + 1)
    d_sink = np.linalg.norm(positions[heads] - sink, axis=1)
    ledger.tx[heads] += params.e_elec * k + params.eps_amp * k * d_sink * d_sink
    return ledger, int(count_arr.max()) + len(heads)


def direct_round(alive, positions, sink, params: RadioParams) -> tuple[EnergyLedger, int]:
    """Every alive node transmits straight to the sink, one slot each."""
    alive = np.asarray(alive, dtype=bool)
    ledger = EnergyLedger.empty(len(alive))
    ids = np.flatnonzero(alive)
    if ids.size:
        positions = np.asarray(positions, dtype=float)
        d = np.linalg.norm(positions[ids] - np.asarray(sink, dtype=float), axis=1)
        k = params.packet_bits
        ledger.tx[ids] = params.e_elec * k + params.eps_amp * k * d * d
    return ledger, int(ids.size)
