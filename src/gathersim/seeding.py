"""Deterministic seed derivation for reproducible experiments.

All randomness in the simulator flows from 64-bit integer seeds. Sub-seeds
(per trial, per round) are the outputs of a SplitMix64 stream, a published,
portable mixing function, so every run can be reproduced bit-exactly from
its master seed on any platform. Draws themselves use numpy's PCG64;
``RoundStream`` takes round seeds hashed in blocks as ``SeedSequence`` does
(``hash_rounds`` hashes the blocks of many streams in one call) and loads
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
    return map(_pcg64_seeded, seed_sequence_states(seeds).T.tolist())


def _pcg64_seeded(words) -> tuple[int, int]:
    s_hi, s_lo, i_hi, i_lo = words
    inc = (i_hi << 65 | i_lo << 1 | 1) & _MASK128
    return ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128, inc


def hash_rounds(streams, attempts, rows) -> None:
    """Make each stream ready to draw its ``rows`` attempts from ``attempts`` on.

    Every (stream, block) pair that those attempts touch and that the stream
    does not hold is hashed in one ``seed_sequence_states`` call, so a group
    of trials pays one call per step that enters new blocks, and a stream
    forgets its blocks below the first one asked for. The attempts' hashed
    words then become Python ints in one ``tolist`` call; each stream keeps
    only those of its last such range.
    """
    needs = []
    for stream, attempt, count in zip(streams, attempts, rows):
        if attempt < 0:
            raise ValueError("attempt must be >= 0")
        span = range(attempt, attempt + max(count, 1))
        blocks = range(span.start // ROUND_BLOCK, (span.stop - 1) // ROUND_BLOCK + 1)
        held = stream._words
        for block in [b for b in held if b < blocks.start]:
            del held[block]
        needs.append((stream, span, blocks))
    todo = [(stream, b) for stream, _, blocks in needs for b in blocks if b not in stream._words]
    if todo:
        bases = np.array([stream._base for stream, _ in todo], dtype=np.uint64)[:, None]
        # attempt a is SplitMix64 step a + 1
        steps = np.array([b * ROUND_BLOCK + 1 for _, b in todo], dtype=np.uint64)[:, None]
        steps = steps + np.arange(ROUND_BLOCK, dtype=np.uint64)
        words = seed_sequence_states(splitmix64(bases + steps * np.uint64(_GOLDEN)).ravel())
        for k, (stream, block) in enumerate(todo):
            stream._words[block] = words[:, k * ROUND_BLOCK:(k + 1) * ROUND_BLOCK]
    words = np.concatenate([stream._words[b][:, max(span.start - b * ROUND_BLOCK, 0):
                                             span.stop - b * ROUND_BLOCK]
                            for stream, span, blocks in needs for b in blocks], axis=1).T.tolist()
    at = 0
    for stream, span, _ in needs:
        stream._span, stream._drawn = span, words[at:at + len(span)]
        at += len(span)


class RoundStream:
    """``make_rng(derive_seed(trial_seed, a))`` for any attempt a >= 0: ``stream(a)``.

    Every call returns the same Generator, re-seeded, so use it before the
    next call; it is built on the first call. Seeds are hashed ROUND_BLOCK
    attempts at a time, in aligned blocks, by ``hash_rounds``, which a
    lockstep group calls once for all its streams before they draw; an
    attempt of a block the stream holds costs no hashing. A stream that is
    asked for an attempt it was not readied for readies the rest of that
    attempt's block itself. Each attempt's PCG64 state is seeded from its
    hashed words when it is drawn, and loaded with no buffered 32-bit draw,
    as a fresh generator starts with none. ``integers`` gives each attempt's
    first ``integers(m)`` draw from its state, loading the Generator only
    where numpy would draw again."""

    def __init__(self, trial_seed: int):
        self._base = trial_seed & _MASK64
        self._words: dict[int, np.ndarray] = {}  # block -> its (4, ROUND_BLOCK) hashed words
        self._span, self._drawn = range(0), []  # attempts ready to draw and their words
        self._bits = self._rng = None

    def _state(self, attempt: int) -> tuple[int, int]:
        if attempt not in self._span:
            hash_rounds([self], [attempt], [ROUND_BLOCK - attempt % ROUND_BLOCK])
        return _pcg64_seeded(self._drawn[attempt - self._span.start])

    def __call__(self, attempt: int) -> np.random.Generator:
        state, inc = self._state(attempt)
        if self._rng is None:
            self._bits = np.random.PCG64(0)
            self._rng = np.random.Generator(self._bits)
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
        if attempt not in self._span or attempt + rows > self._span.stop:
            hash_rounds([self], [attempt], [rows])
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
