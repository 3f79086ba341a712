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
   each of 25 trial seeds, masked ones such as -1 and 2^64 + 5 among them.

It then prints the time per round seed of ``make_rng(derive_seed(...))``
and of ``RoundStream``, walked attempt by attempt. The check takes about half a minute; pass a seed
count to change it, for example ``python demos/06_seed_streams.py 10000``.
"""

import sys
from time import perf_counter

import numpy as np

from gathersim import derive_seed, make_rng
from gathersim.seeding import RoundStream, pcg64_states

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
CHUNK = 10_000


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

    rounds = 64 * 100
    samples = {"make_rng(derive_seed)": [], "RoundStream": []}
    for _ in range(5):  # interleaved, so a burst of host load hits both
        samples["make_rng(derive_seed)"].append(per_seed_us(fresh, rounds))
        samples["RoundStream"].append(per_seed_us(streamed, rounds))
    for name, times in samples.items():
        times.sort()
        print(f"{name:>22}: {times[0]:.2f} us per round seed "
              f"(min of 5 runs of {rounds:,}; median {times[2]:.2f})")


if __name__ == "__main__":
    main()
