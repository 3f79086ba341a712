import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_loads
from gathersim import FieldConfig, SimConfig, derive_seed, make_rng, run_experiment, run_trial
from gathersim import seeding
from gathersim.cli import PER_ROUND_COLUMNS, per_round_rows, render
from gathersim.seeding import ROUND_BLOCK, RoundStream, hash_rounds, seed_sequence_states

# published reference outputs of the SplitMix64 stream seeded with 0
SPLITMIX_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def test_splitmix64_reference_stream():
    assert tuple(derive_seed(0, i) for i in range(3)) == SPLITMIX_SEED0


def test_derive_seed_is_deterministic_and_spread():
    seeds = [derive_seed(12345, i) for i in range(1000)]
    assert seeds == [derive_seed(12345, i) for i in range(1000)]
    assert len(set(seeds)) == 1000
    assert all(0 <= s < 2**64 for s in seeds)


def test_derive_seed_rejects_negative_index():
    with pytest.raises(ValueError):
        derive_seed(1, -1)


def test_make_rng_reproducible():
    a = make_rng(987654321).random(16)
    b = make_rng(987654321).random(16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, make_rng(987654322).random(16))


# SplitMix64 and SeedSequence split a seed into 32- and 64-bit words: the
# word edges, and seeds that make_rng masks to 64 bits (-1, 2**64 + 5)
EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, -1, 2**64 + 5)


def test_make_rng_returns_a_generator_unchanged():
    gen = make_rng(3)
    assert make_rng(gen) is gen


@pytest.mark.parametrize("trial_seed", EDGE_SEEDS)
def test_round_stream_states_equal_fresh_generators(trial_seed):
    # a run starts at attempt 1 or resumes at any attempt, on either side of a
    # hashed block's edge
    for start in (1, ROUND_BLOCK - 1, ROUND_BLOCK, ROUND_BLOCK + 1, 2 * ROUND_BLOCK + 1):
        stream = RoundStream(trial_seed)
        for attempt in range(start, 3 * ROUND_BLOCK + 2):
            state = stream(attempt).bit_generator.state
            assert state == make_rng(derive_seed(trial_seed, attempt)).bit_generator.state


def test_round_stream_goes_back_and_forth():
    # an abandoned round sends the engine back to an attempt it has passed
    stream = RoundStream(2**64 - 1)
    for attempt in (5, 63, 7, 64, 63, 0, 200, 129, 128, 1):
        state = stream(attempt).bit_generator.state
        assert state == make_rng(derive_seed(2**64 - 1, attempt)).bit_generator.state
    with pytest.raises(ValueError):
        stream(-1)


def test_block_hash_matches_numpy_seed_sequence():
    rng = np.random.default_rng(20261018)
    seeds = np.concatenate((rng.integers(0, 2**64, 100_000, dtype=np.uint64),
                            np.array([s & (2**64 - 1) for s in EDGE_SEEDS], dtype=np.uint64)))
    words = seed_sequence_states(seeds)
    for i, seed in enumerate(seeds.tolist()):
        if not np.array_equal(words[:, i], np.random.SeedSequence(seed).generate_state(4, np.uint64)):
            pytest.fail(f"seed {seed}: {words[:, i]}")


def count_hashes(monkeypatch) -> list[int]:
    """Record the seed count of every ``seed_sequence_states`` call from now on."""
    calls = []
    monkeypatch.setattr(seeding, "seed_sequence_states",
                        lambda seeds: calls.append(len(seeds)) or seed_sequence_states(seeds))
    return calls


def test_one_group_hash_covers_every_stream(monkeypatch):
    # attempt ranges that start on either side of block edges, with seeds
    # that make_rng masks to 64 bits; rows of 0 and 1 still hash their block
    starts = (0, 1, 60, 63, 64, 65, 127, 129)
    cases = [(seed, start, rows) for seed in (-1, 2**64 + 5, 7)
             for start, rows in zip(starts, (10, 64, 10, 1, 0, 63, 2, 30))]
    streams = [RoundStream(seed) for seed, _, _ in cases]
    calls = count_hashes(monkeypatch)
    hash_rounds(streams, [start for _, start, _ in cases], [rows for _, _, rows in cases])
    blocks = sum(len(range(start // ROUND_BLOCK, (start + max(rows, 1) - 1) // ROUND_BLOCK + 1))
                 for _, start, rows in cases)
    assert calls == [blocks * ROUND_BLOCK]
    for stream, (seed, start, rows) in zip(streams, cases):
        for attempt in range(start, start + rows):
            state = stream(attempt).bit_generator.state
            assert state == make_rng(derive_seed(seed, attempt)).bit_generator.state
    assert len(calls) == 1  # every attempt drawn was hashed by the one call
    hash_rounds(streams, [start for _, start, _ in cases], [rows for _, _, rows in cases])
    assert len(calls) == 1
    with pytest.raises(ValueError):
        hash_rounds(streams[:1], [-1], [1])


def test_lockstep_trials_hash_their_blocks_together(monkeypatch):
    # under first death every trial of an experiment steps through the same
    # attempts, so each step that enters a new block hashes it for all ten
    calls = count_hashes(monkeypatch)
    config = SimConfig(protocol="pegasis-tdma", initial_energy=0.1, trials=10, master_seed=3)
    reports = run_experiment(config, keep_reports=True).reports
    rows = 10  # rounds per block at 100 nodes
    last = max(r.completed_rounds for r in reports) // rows * rows + rows  # last attempt drawn
    assert len(calls) == last // ROUND_BLOCK + 1 < config.trials
    assert calls[0] == config.trials * ROUND_BLOCK  # later calls hash the live trials' blocks


def test_no_buffered_draw_leaks_into_the_next_attempt():
    # a bounded draw below 2**32 takes half of a 64-bit output and keeps the
    # other half for the next draw; a fresh generator has no such half
    stream = RoundStream(77)
    for attempt in range(1, 2 * ROUND_BLOCK + 2):
        rng, fresh = stream(attempt), make_rng(derive_seed(77, attempt))
        m = 2 + attempt
        assert rng.integers(m) == fresh.integers(m)
        assert np.array_equal(rng.random(7), fresh.random(7))
        rng.integers(m, size=2 * attempt)
        assert rng.bit_generator.state["has_uint32"] == 1


# chain sizes for ``RoundStream.integers``: no draw at 1, numpy's rejection
# of about half of all draws at 2**31 + 11, the full 32-bit word at 2**32,
# and the Generator's own 64-bit draw above it
DRAW_SIZES = (1, 2, 3, 100, 2**31 - 1, 2**31 + 11, 2**32, 2**32 + 1)


def fresh_integers(trial_seed, attempts, m):
    return [int(make_rng(derive_seed(trial_seed, a)).integers(m)) for a in attempts]


@pytest.mark.parametrize("m", DRAW_SIZES)
@pytest.mark.parametrize("trial_seed", EDGE_SEEDS)
def test_round_stream_integers_equal_fresh_generators(trial_seed, m):
    # runs of rows that start on either side of a block edge and cross the
    # next ones, then an abandoned round's attempt drawn again
    for start in (1, ROUND_BLOCK - 1, ROUND_BLOCK, ROUND_BLOCK + 1, 2 * ROUND_BLOCK + 1):
        stream = RoundStream(trial_seed)
        attempts = range(start, 3 * ROUND_BLOCK + 2)
        assert stream.integers(start, len(attempts), m) == fresh_integers(trial_seed, attempts, m)
        back = range(max(start - 3, 0), start + 7)
        assert stream.integers(back[0], len(back), m) == fresh_integers(trial_seed, back, m)


def test_round_stream_integers_load_only_rejected_draws(monkeypatch):
    loads = count_loads(monkeypatch)
    attempts = range(1, 3 * ROUND_BLOCK)
    assert RoundStream(5).integers(1, len(attempts), 100) == fresh_integers(5, attempts, 100)
    assert loads == []
    # numpy draws again for about half of all 32-bit words at this size
    m = 2**31 + 11
    assert RoundStream(5).integers(1, len(attempts), m) == fresh_integers(5, attempts, m)
    assert 0.3 * len(attempts) < len(loads) < 0.7 * len(attempts)
    loads.clear()
    assert RoundStream(5).integers(1, 4, 2**32 + 1) == fresh_integers(5, range(1, 5), 2**32 + 1)
    assert loads == [1, 2, 3, 4]


def test_round_stream_integers_reject_bad_arguments():
    stream = RoundStream(3)
    for m in (0, -1):
        with pytest.raises(ValueError):
            stream.integers(1, 1, m)
    with pytest.raises(ValueError):
        stream.integers(-1, 1, 2)
    assert stream.integers(1, 0, 2) == []


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(-2**64, 2**65), st.integers(0, 4 * ROUND_BLOCK), st.integers(0, 2 * ROUND_BLOCK),
       st.integers(1, 2**33))
def test_round_stream_integers_property(trial_seed, attempt, rows, m):
    assert RoundStream(trial_seed).integers(attempt, rows, m) == \
        fresh_integers(trial_seed, range(attempt, attempt + rows), m)

# per-round CSV hashes recorded before the engine took its round generators
# from RoundStream; energy-exhausted, so abandoned rounds consume attempts too,
# and long enough for the PEGASIS trials to cross two blocks
TRIAL_CSV = {
    ("emln", -1): "4a8428c298fd76c19967dac411ce4128360131f1645fefa6066983cbfd91d078",
    ("emln", 2**64 + 5): "2a4ef8201f5c4184bce676d2b282d4004dd2b121001eb481141220ed8724387e",
    ("leach", -1): "3cc7a21ee91a03f76ca4221030cd802c8dff8af833099a54976ac42550820993",
    ("leach", 2**64 + 5): "01f0cd803330478a7a025cd1826698d2aaa36d8e1d29de789aba9d462aaddb78",
    ("pegasis-tdma", -1): "4cd703fdcecc754ae57ec6ad783822c80431d4fc1bc4a004d558d72097e41bf0",
    ("pegasis-tdma", 2**64 + 5): "2b2a71f51d3cebbaf76dfbe365f3ed077a27957124750ee15b59c1df98c458e4",
    ("pegasis-cdma", -1): "56f835c9d1a92c83e2403055265f6c1e15e6667abfc0ac8df5a04368662b9d04",
    ("pegasis-cdma", 2**64 + 5): "796811511fe0074a3331203c2e43682c5aac4b3eb3342ecc784c71d032d32063",
    ("direct", -1): "427fa6056bdc8f0b8261f64cc21de5fe96e91eee56e064754dd09fcf95c0a4de",
    ("direct", 2**64 + 5): "6c84b0159ad70c7e2f371e45e87bdde78f344eaf78f44f83cdfc838e0e8503f6",
}


@pytest.mark.parametrize("protocol,trial_seed", sorted(TRIAL_CSV, key=str))
def test_run_trial_output_at_masked_trial_seeds(protocol, trial_seed):
    config = SimConfig(protocol=protocol, initial_energy=0.1, stop_rule="energy-exhausted",
                       field=FieldConfig(node_count=40))
    text = render(per_round_rows([run_trial(config, trial_seed)]), PER_ROUND_COLUMNS, "csv")
    assert hashlib.sha256(text.encode()).hexdigest() == TRIAL_CSV[protocol, trial_seed]
