"""The baseline round layers against their loop reference, byte for byte.

``leach_elect``, ``leach_round``, ``pegasis_tdma_round``,
``pegasis_cdma_round`` and ``direct_round`` must give exactly what the loop
versions in tests/reference_baselines.py give: the ``head_of`` row of the
reference's heads and membership, the same served set, the same delay, and
ledgers equal byte for byte. The cases cover seeded deployments with and
without dead nodes, whole LEACH epochs at three head probabilities, an
eligible pool that runs out mid-epoch, nearest-head searches split into
many blocks, every leader position of alive chains of 1 to 17, 31 to 33,
63 to 65 and 127 to 129 nodes, hand-made cluster assignments and one
2,000-node deployment.
"""

import tracemalloc

import numpy as np
import pytest

import reference_baselines as ref

from gathersim import (FieldConfig, RadioParams, build_chain, deploy, derive_seed,
                       direct_round, leach_elect, leach_round, make_rng, pegasis_cdma_round,
                       pegasis_tdma_round, positions_of)
from gathersim import baselines

P = RadioParams()
SINK = (50.0, 300.0)
LARGE = FieldConfig(width=447.2, height=447.2, node_count=2000, sink_position=(223.6, 647.2))


def deployment(seed, dead=0.0, field=FieldConfig()):
    positions = positions_of(deploy(field, derive_seed(4242, seed)))
    alive = np.random.default_rng(seed).random(len(positions)) >= dead
    return positions, alive


def seed_for_leader(m: int, target_pos: int) -> int:
    for seed in range(10_000):
        if int(make_rng(seed).integers(m)) == target_pos:
            return seed
    raise AssertionError("no seed found")


def assert_same_round(got, want):
    (ledger, delay), (expected, expected_delay) = got, want
    for name in ("tx", "rx", "fuse"):
        a, b = getattr(ledger, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert delay == expected_delay and type(delay) is int


def head_row(assignment: ref.ClusterAssignment, n: int) -> np.ndarray:
    """The ``head_of`` row of ``assignment``: heads lead themselves, members
    their head, and any other node takes no part (-1)."""
    head_of = np.full(n, -1)
    for u in assignment.heads:
        head_of[u] = u
    for u, h in assignment.membership.items():
        head_of[u] = h
    return head_of


def assert_same_election(positions, alive, round_index, p_head, seed, served, sink=SINK):
    """Elect and run one LEACH round both ways; return the reference's new served set.

    The reference carries the served set as a frozenset of ids and
    ``leach_elect`` as a bool mask over the nodes.
    """
    n = len(positions)
    mask = np.isin(np.arange(n), list(served))
    head_of, got_served = leach_elect(positions, alive, round_index, p_head, seed, mask)
    expected, want_served = ref.leach_elect(positions, alive, round_index, p_head, seed, served)
    want = head_row(expected, n)
    assert head_of.dtype == want.dtype and head_of.tobytes() == want.tobytes()
    assert got_served.dtype == bool and got_served.shape == (n,)
    assert got_served.tolist() == [u in want_served for u in range(n)]
    assert mask.tolist() == [u in served for u in range(n)]  # the mask passed in is kept
    assert_same_round(leach_round(head_of, positions, sink, P),
                      ref.leach_round(expected, positions, sink, P))
    return want_served


def assert_same_chain_rounds(chain, alive, leader_seed, positions, sink=SINK):
    old_chain = ref.Chain(tuple(chain.tolist()))
    for new, old in ((pegasis_tdma_round, ref.pegasis_tdma_round),
                     (pegasis_cdma_round, ref.pegasis_cdma_round)):
        assert_same_round(new(chain, alive, leader_seed, positions, sink, P),
                          old(old_chain, alive, leader_seed, positions, sink, P))


# ----------------------------------------------------------------------- leach

@pytest.mark.parametrize("dead", [0.0, 0.2])
@pytest.mark.parametrize("p_head", [0.05, 0.2, 1.0])
def test_leach_matches_reference_over_whole_epochs(p_head, dead):
    epoch = int(np.ceil(1 / p_head))
    for seed in range(4):
        positions, alive = deployment(seed, dead)
        served = frozenset()
        for r in range(2 * epoch + 3):
            served = assert_same_election(positions, alive, r, p_head,
                                          derive_seed(seed, r), served)


def test_leach_matches_reference_while_nodes_die():
    # deaths between rounds shrink the pool; once every alive node has
    # served, the pool runs out mid-epoch and a fresh epoch starts early
    resets = 0
    for seed in range(6):
        positions, alive = deployment(seed)
        rng = np.random.default_rng(seed)
        served = frozenset()
        for r in range(40):
            pool_empty = r % 10 and all(u in served for u in np.flatnonzero(alive))
            new_served = assert_same_election(positions, alive, r, 0.1,
                                              derive_seed(seed, r), served)
            resets += bool(pool_empty)
            served = new_served
            alive = alive & (rng.random(alive.size) >= 0.08)
            if alive.sum() < 3:
                break
    assert resets > 0


def test_leach_pool_exhausted_mid_epoch_resets_served():
    positions, alive = deployment(7)
    served = frozenset()
    for r in range(3):
        served = assert_same_election(positions, alive, r, 0.2, derive_seed(7, r), served)
    # every node that has not served yet dies
    alive = alive & np.isin(np.arange(alive.size), list(served))
    new_served = assert_same_election(positions, alive, 3, 0.2, derive_seed(7, 3), served)
    # without the reset the served set would have stayed as it was
    assert new_served < served


def test_leach_epoch_start_clears_a_partly_filled_served_set():
    # a caller may skip round indices (an abandoned round repeats its index),
    # so an epoch can start before every alive node has served
    positions, alive = deployment(5, 0.2)
    rng = np.random.default_rng(5)
    for r in (0, 20, 40, 7, 27, 3):
        served = frozenset(np.flatnonzero(rng.random(alive.size) < 0.5).tolist())
        assert_same_election(positions, alive, r, 0.05, derive_seed(5, r), served)


def test_leach_nearest_head_compares_squared_distances():
    # node 2 is one ulp of squared distance closer to head 1 than to head 0,
    # and the two distances round to the same square root
    positions = np.array([[54.14612202490917, 29.971189053738478],
                          [-41.84232920771303, 117.68333152438302],
                          [17.5655620602559, 86.31789223498866]])
    alive = np.ones(3, bool)
    seed = next(s for s in range(1000)
                if ref.leach_elect(positions, alive, 0, 0.5, s)[0].heads == {0, 1})
    head_of = leach_elect(positions, alive, 0, 0.5, seed)[0]
    assert head_of.tolist() == [0, 1, 1]  # node 2 joins head 1
    assert_same_election(positions, alive, 0, 0.5, seed, frozenset())


@pytest.mark.parametrize("block", [1, 7, 64, 1000])
def test_leach_nearest_head_search_in_many_blocks(block, monkeypatch):
    monkeypatch.setattr(baselines, "NEAREST_HEAD_BLOCK", block)
    for seed in range(3):
        positions, alive = deployment(seed, 0.2)
        served = frozenset()
        for r in range(6):
            served = assert_same_election(positions, alive, r, 0.2,
                                          derive_seed(seed, r), served)


def test_leach_nearest_head_ties_go_to_the_lower_head():
    # every member is equidistant from several heads on a lattice; on the
    # doubled lattice two heads can share a spot, and each still leads itself
    lattice = np.array([(float(x), float(y)) for x in range(0, 50, 5) for y in range(0, 50, 5)])
    for positions in (lattice, np.repeat(lattice, 2, axis=0)):
        alive = np.ones(len(positions), bool)
        for seed in range(30):
            assert_same_election(positions, alive, 0, 0.3, seed, frozenset())


def test_leach_round_hand_made_assignments_with_members_out_of_order():
    positions, _ = deployment(3)
    rng = np.random.default_rng(3)
    for heads_count in (1, 2, 5, 30, 100):
        ids = rng.permutation(100)
        heads = ids[:heads_count].tolist()
        members = ids[heads_count:].tolist()  # shuffled insertion order
        membership = {u: heads[int(rng.integers(heads_count))] for u in members}
        assignment = ref.ClusterAssignment(frozenset(heads), membership)
        assert_same_round(leach_round(head_row(assignment, 100), positions, SINK, P),
                          ref.leach_round(assignment, positions, SINK, P))
    # some nodes in neither role: they are dead and pay nothing
    assignment = ref.ClusterAssignment(frozenset({40, 2}), {90: 2, 7: 40, 8: 2, 1: 40})
    assert_same_round(leach_round(head_row(assignment, 100), positions, SINK, P),
                      ref.leach_round(assignment, positions, SINK, P))


# --------------------------------------------------------------------- pegasis

@pytest.mark.parametrize("dead", [0.0, 0.2])
def test_pegasis_matches_reference_on_seeded_deployments(dead):
    for seed in range(20):
        positions, alive = deployment(seed, dead)
        chain = build_chain(positions, SINK)  # built before the deaths, as in a run
        for leader_seed in range(5):
            assert_same_chain_rounds(chain, alive, derive_seed(seed, leader_seed), positions)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_pegasis_matches_reference_on_tiny_alive_chains(m):
    positions, _ = deployment(11)
    chain = build_chain(positions[:6], SINK)
    for pick in range(5):
        alive = np.zeros(6, bool)
        alive[np.random.default_rng(pick).choice(6, m, replace=False)] = True
        for leader_pos in range(m):
            assert_same_chain_rounds(chain, alive, seed_for_leader(m, leader_pos),
                                     positions[:6])


def leader_seeds(m: int) -> list[int]:
    """For each leader position, a seed whose single draw lands there."""
    seeds: dict[int, int] = {}
    for seed in range(100_000):
        seeds.setdefault(int(make_rng(seed).integers(m)), seed)
        if len(seeds) == m:
            return [seeds[pos] for pos in range(m)]
    raise AssertionError("no seed found")


@pytest.mark.parametrize("m", [*range(1, 18), 31, 32, 33, 63, 64, 65, 127, 128, 129])
def test_pegasis_matches_reference_with_leader_at_ends_and_middle(m):
    # every leader position; the CDMA closed form turns on the bits of m - 1
    field = FieldConfig(node_count=max(100, m + 3))
    positions, _ = deployment(m, field=field)
    positions = positions[:m + 3]
    chain = build_chain(positions, SINK)
    alive = np.ones(m + 3, bool)
    alive[chain[1:4]] = False  # dead nodes inside the chain
    for seed in leader_seeds(m):
        assert_same_chain_rounds(chain, alive, seed, positions)


# ---------------------------------------------------------------------- direct

@pytest.mark.parametrize("dead", [0.0, 0.2, 1.0])
def test_direct_matches_reference(dead):
    for seed in range(10):
        positions, alive = deployment(seed, dead)
        assert_same_round(direct_round(alive, positions, SINK, P),
                          ref.direct_round(alive, positions, SINK, P))


# ----------------------------------------------------------------------- large

def test_large_round1_sized_deployment():
    positions, alive = deployment(1, 0.05, field=LARGE)
    sink = LARGE.sink_position
    served = frozenset()
    for r in range(3):
        served = assert_same_election(positions, alive, r, 0.05, derive_seed(1, r), served,
                                      sink=sink)
    chain = build_chain(positions, sink)
    assert_same_chain_rounds(chain, alive, 5, positions, sink=sink)
    assert_same_round(direct_round(alive, positions, sink, P),
                      ref.direct_round(alive, positions, sink, P))


def test_leach_elect_of_20000_nodes_stays_far_below_the_dense_footprint():
    # the members x heads x 2 search this replaced peaked at 746 MB here
    positions = positions_of(deploy(FieldConfig(width=1414.0, height=1414.0,
                                                node_count=20_000), 3))
    alive = np.ones(len(positions), bool)
    tracemalloc.start()
    try:
        head_of, _ = leach_elect(positions, alive, 0, 0.05, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    heads = np.count_nonzero(head_of == np.arange(20_000))
    assert 800 < heads < 1200
    assert (head_of >= 0).all()  # the other 20,000 - heads nodes are members
    assert peak < 128 * 2**20, f"peak {peak / 2**20:.1f} MB"
