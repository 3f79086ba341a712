"""Deterministic seed derivation for reproducible experiments.

All randomness in the simulator flows from 64-bit integer seeds. Sub-seeds
(per trial, per round) are the outputs of a SplitMix64 stream, a published,
portable mixing function, so every run can be reproduced bit-exactly from
its master seed on any platform. Draws themselves use numpy's PCG64;
``RoundStream`` hashes round seeds in blocks as ``SeedSequence`` does and loads
each PCG64 state (O'Neill, HMC-CS-2014-0905) into one reused Generator. Only
this seeding, which NumPy NEP 19 keeps stable, is redone here, and one draw:
``RoundStream.integers`` computes a fresh generator's first ``integers(m)``
from its state, as numpy does, so chain leaders need no Generator.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# numpy's SeedSequence mixing constants and PCG64's 128-bit LCG multiplier
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

ROUND_BLOCK = 64  # round seeds hashed per block of ``RoundStream``


def splitmix64(state):
    """SplitMix64 output function applied to ``state``, an int or a uint64 array."""
    z = state & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, index: int) -> int:
    """Return the ``index``-th output of the SplitMix64 stream seeded with ``seed``.

    Closed form: splitmix64(seed + (index + 1) * 0x9E3779B97F4A7C15 mod 2^64).
    Trial seeds are derived from the master seed with index = trial number,
    and per-round seeds from the trial seed with index = round number, so
    trials stay independent and reproducible in any execution order.
    """
    if index < 0:
        raise ValueError("index must be >= 0")
    return splitmix64((seed + (index + 1) * _GOLDEN) & _MASK64)


def make_rng(seed: int | np.random.Generator) -> np.random.Generator:
    """PCG64 generator for a 64-bit seed; a Generator is returned unchanged."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.PCG64(seed & _MASK64))


# SeedSequence's pool and output hash step k xor with c[k] and multiply by c[k + 1]
_POOL, _OUT = (np.array([init] + [mult] * steps, dtype=np.uint32).cumprod(dtype=np.uint32)[:, None]
               for init, mult, steps in ((0x43B0D7E5, 0x931E8875, 16),
                                         (0x8B51F9DD, 0x58F38DED, 8)))


def _hashmix(value: np.ndarray, steps: np.ndarray) -> np.ndarray:
    value = (value ^ steps[:-1]) * steps[1:]
    return value ^ (value >> np.uint32(16))


def seed_sequence_states(seeds) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for each uint64 seed s, as a
    (4, len(seeds)) array, in uint32 arithmetic. A seed below 2^32 is one entropy
    word, which the pool of 4 pads with zero words, so every seed hashes as two."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    words = np.zeros((4, seeds.size), dtype=np.uint32)
    words[:2] = seeds, seeds >> np.uint64(32)  # assignment keeps the low 32 bits
    pool = _hashmix(words, _POOL[:5])
    for src in range(4):
        # pool[src] hashed into each other word in turn; it does not change meanwhile
        dst = [d for d in range(4) if d != src]
        mixed = _MIX_L * pool[dst] - _MIX_R * _hashmix(pool[src], _POOL[4 + 3 * src:8 + 3 * src])
        pool[dst] = mixed ^ (mixed >> np.uint32(16))
    out = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _OUT).astype(np.uint64)
    return out[0::2] | out[1::2] << np.uint64(32)


def pcg64_states(seeds) -> Iterator[tuple[int, int]]:
    """``PCG64(s)``'s 128-bit (state, inc) for each uint64 seed s: the
    SeedSequence words seeded as ``pcg_setseq_128_srandom`` does."""
    for s_hi, s_lo, i_hi, i_lo in seed_sequence_states(seeds).T.tolist():
        inc = (i_hi << 65 | i_lo << 1 | 1) & _MASK128
        yield ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128, inc


class RoundStream:
    """``make_rng(derive_seed(trial_seed, a))`` for any attempt a >= 0: ``stream(a)``.

    Every call returns the same Generator, re-seeded, so use it before the
    next call. Seeds are hashed ROUND_BLOCK attempts at a time, in aligned
    blocks, and only the last hashed block's PCG64 states are kept: an
    attempt of that block costs no hashing, one of any other block hashes
    that block again. Each state is loaded with no buffered 32-bit draw, as
    a fresh generator starts with none. ``integers`` gives each attempt's
    first ``integers(m)`` draw from its state, loading the Generator only
    where numpy would draw again."""

    def __init__(self, trial_seed: int):
        self._bits = np.random.PCG64(0)
        self._rng = np.random.Generator(self._bits)
        self._base = np.uint64(trial_seed & _MASK64)
        self._block = -1
        self._states: list[tuple[int, int]] = []

    def _state(self, attempt: int) -> tuple[int, int]:
        if attempt < 0:
            raise ValueError("attempt must be >= 0")
        block, i = divmod(attempt, ROUND_BLOCK)
        if block != self._block:
            # attempt a is SplitMix64 step a + 1
            steps = np.arange(block * ROUND_BLOCK + 1, (block + 1) * ROUND_BLOCK + 1,
                              dtype=np.uint64)
            self._states = list(pcg64_states(splitmix64(self._base + steps * np.uint64(_GOLDEN))))
            self._block = block
        return self._states[i]

    def __call__(self, attempt: int) -> np.random.Generator:
        state, inc = self._state(attempt)
        self._bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                            "has_uint32": 0, "uinteger": 0}
        return self._rng

    def integers(self, attempt: int, rows: int, m: int) -> list[int]:
        """``[int(self(a).integers(m)) for a in range(attempt, attempt + rows)]``.

        For 1 <= m <= 2^32 numpy draws the low 32 bits x of PCG64's first
        XSL-RR output and returns (x * m) >> 32 (Lemire, ACM TOMACS 29(1),
        2019), so that is computed here from each state; only an attempt
        whose x numpy rejects, and every attempt when m > 2^32, goes through
        the Generator."""
        if m < 1:
            raise ValueError("m must be >= 1")
        if m > 1 << 32:
            return [int(self(a).integers(m)) for a in range(attempt, attempt + rows)]
        reject = ((1 << 32) - m) % m  # numpy draws again below this remainder
        out = []
        for a in range(attempt, attempt + rows):
            state, inc = self._state(a)
            state = (state * _PCG_MULT + inc) & _MASK128
            rot, word = state >> 122, ((state >> 64) ^ state) & _MASK64
            p = (((word >> rot) | (word << (64 - rot))) & _MASK32) * m
            out.append(p >> 32 if p & _MASK32 >= reject else int(self(a).integers(m)))
        return out
