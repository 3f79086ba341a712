#!/usr/bin/env python3
"""Check the block-hashed round seeding against numpy, and time it.

The engine takes each LEACH and PEGASIS round's generator from
``RoundStream``, which hashes round seeds in blocks as numpy's
``SeedSequence`` does and loads the resulting PCG64 state into one reused
Generator, re-seeded for each attempt. This script checks that seeding
against numpy itself:

1. ``pcg64_states`` against ``np.random.PCG64(s).state`` (which runs
   ``SeedSequence``) for 1,000,000 random 64-bit seeds plus the word-edge
   seeds 0, 1, 2^32 - 1, 2^32 and 2^64 - 1;
2. the full ``bit_generator.state`` of ``RoundStream(trial_seed)(a)``
   against ``make_rng(derive_seed(trial_seed, a))``, for 200 attempts of
   each of 25 trial seeds, masked ones such as -1 and 2^64 + 5 among them;
3. the PEGASIS leaders ``RoundStream(trial_seed).integers(1, 200, m)``,
   computed from the PCG64 states without a Generator, against
   ``make_rng(derive_seed(trial_seed, a)).integers(m)`` for the same
   attempts and chain sizes m from 1 to 2^32.

It then prints the time per round seed of ``make_rng(derive_seed(...))``
and of ``RoundStream``, walked attempt by attempt, and the time per leader
of a 100-node chain drawn through the stream's Generator and computed by
``RoundStream.integers``. Last, it prints what hashing one 64-attempt block
for each of T = 1, 10 and 48 trials costs per seed, per trial and per group:
one ``hash_rounds`` call per trial, as a lone stream hashes, against one
call for the group, as a lockstep step does. The check takes about half a
minute; pass a seed count to change it, for example
``python demos/06_seed_streams.py 10000``.
"""

import sys
from time import perf_counter

import numpy as np

from gathersim import derive_seed, make_rng
from gathersim.seeding import ROUND_BLOCK, RoundStream, hash_rounds, pcg64_states

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
CHUNK = 10_000
# no draw at 1; numpy redraws about half of all words at 2^31 + 11
LEADER_SIZES = (1, 2, 3, 100, 2**31 - 1, 2**31 + 11, 2**32)
ENGINE_ROWS = 10  # rounds per engine block at 100 nodes
GROUP_WIDTHS = (1, 10, 48)


def check_states(count: int) -> int:
    """Compare pcg64_states with numpy's PCG64 seeding; return the seeds checked."""
    rng = np.random.default_rng(6)
    checked = 0
    for lo in range(0, count, CHUNK):
        seeds = rng.integers(0, 2**64, min(CHUNK, count - lo), dtype=np.uint64).tolist()
        if lo == 0:
            seeds += EDGE_SEEDS
        for seed, (state, inc) in zip(seeds, pcg64_states(seeds)):
            expected = np.random.PCG64(seed).state["state"]
            if (state, inc) != (expected["state"], expected["inc"]):
                sys.exit(f"seed {seed}: ({state}, {inc}) != {expected}")
        checked += len(seeds)
    return checked


def check_streams(trial_seeds, attempts: int) -> int:
    for trial_seed in trial_seeds:
        stream = RoundStream(trial_seed)
        for a in range(1, attempts + 1):
            state = stream(a).bit_generator.state
            if state != make_rng(derive_seed(trial_seed, a)).bit_generator.state:
                sys.exit(f"trial seed {trial_seed}, attempt {a}: states differ")
    return len(trial_seeds) * attempts


def check_leaders(trial_seeds, attempts: int) -> int:
    for trial_seed in trial_seeds:
        for m in LEADER_SIZES:
            leaders = RoundStream(trial_seed).integers(1, attempts, m)
            for a, leader in enumerate(leaders, 1):
                if leader != make_rng(derive_seed(trial_seed, a)).integers(m):
                    sys.exit(f"trial seed {trial_seed}, attempt {a}, m {m}: leaders differ")
    return len(trial_seeds) * len(LEADER_SIZES) * attempts


def per_seed_us(fn, rounds: int) -> float:
    t0 = perf_counter()
    fn(rounds)
    return (perf_counter() - t0) / rounds * 1e6


def fresh(rounds: int) -> None:
    for a in range(1, rounds + 1):
        make_rng(derive_seed(12345, a))


def streamed(rounds: int) -> None:
    stream = RoundStream(12345)
    for a in range(1, rounds + 1):
        stream(a)


def generator_leaders(rounds: int) -> None:
    stream = RoundStream(12345)
    for a in range(1, rounds + 1):
        int(stream(a).integers(100))


def computed_leaders(rounds: int) -> None:
    stream = RoundStream(12345)
    for a in range(1, rounds + 1, ENGINE_ROWS):
        stream.integers(a, ENGINE_ROWS, 100)


def main() -> None:
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 1_000_000
    t0 = perf_counter()
    checked = check_states(count)
    print(f"pcg64_states == np.random.PCG64(s).state for {checked:,} seeds "
          f"(random plus {len(EDGE_SEEDS)} edge seeds), {perf_counter() - t0:.1f} s")
    trial_seeds = EDGE_SEEDS + [-1, 2**64 + 5] + [derive_seed(9, i) for i in range(18)]
    attempts = check_streams(trial_seeds, 200)
    print(f"RoundStream(t)(a) == make_rng(derive_seed(t, a)) for {attempts:,} attempts "
          f"of {len(trial_seeds)} trial seeds")
    leaders = check_leaders(trial_seeds, 200)
    print(f"RoundStream(t).integers(1, 200, m) == make_rng(derive_seed(t, a)).integers(m) "
          f"for {leaders:,} attempts, m in {LEADER_SIZES}")

    rounds = 64 * 100
    timed = {"make_rng(derive_seed)": (fresh, "round seed"),
             "RoundStream": (streamed, "round seed"),
             "stream(a).integers(100)": (generator_leaders, "leader"),
             "RoundStream.integers": (computed_leaders, "leader")}
    samples = {name: [] for name in timed}
    for _ in range(5):  # interleaved, so a burst of host load hits all
        for name, (fn, _unit) in timed.items():
            samples[name].append(per_seed_us(fn, rounds))
    for name, times in samples.items():
        times.sort()
        print(f"{name:>23}: {times[0]:.2f} us per {timed[name][1]} "
              f"(min of 5 runs of {rounds:,}; median {times[2]:.2f})")
    hashing_costs()


def hashing_costs() -> None:
    """Time hashing one block for each of T streams: per trial and per group."""
    print(f"hashing one {ROUND_BLOCK}-attempt block per trial, min of 5 runs of 100 groups:")
    print(f"{'trials':>6} {'calls':>9} {'per seed':>10} {'per trial':>11} {'per group':>11}")
    for width in GROUP_WIDTHS:
        seeds = [derive_seed(width, t) for t in range(width)]

        def per_trial():
            for seed in seeds:
                hash_rounds([RoundStream(seed)], [1], [ROUND_BLOCK])

        def per_group():
            hash_rounds([RoundStream(seed) for seed in seeds], [1] * width, [ROUND_BLOCK] * width)

        for name, fn in (("per trial", per_trial), ("per group", per_group)):
            group_us = min(per_seed_us(lambda groups: [fn() for _ in range(groups)], 100)
                           for _ in range(5))
            print(f"{width:>6} {name:>9} {group_us / width / ROUND_BLOCK:>7.2f} us "
                  f"{group_us / width:>8.1f} us {group_us:>8.1f} us")


if __name__ == "__main__":
    main()
