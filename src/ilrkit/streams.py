"""Many seeded numpy random streams, set up at once.

``np.random.default_rng(np.random.SeedSequence(entropy))`` costs 15-22 µs
per stream on a 2-core x86-64 host with numpy 2.4, most of it in
SeedSequence's hash, and synthgen draws one stream per synthetic entity.
``Streams`` gives the same streams for a list of entropies: it runs
SeedSequence's hash over all of them at once, as uint32 arrays, and hands
each stream's 4 seed words to PCG64 when the stream is asked for. (The
task builders draw one stream per block of 64 tasks, a few dozen per
build, and make each with ``default_rng`` directly.)
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_MASK32 = 0xFFFFFFFF

# numpy's SeedSequence (bit_generator.pyx): a pool of 4 uint32 words,
# filled and mixed with these hash constants
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = np.uint32(16)


class Streams:
    """``np.random.default_rng(np.random.SeedSequence(entropies[i]))`` for
    each ``i``, set up for all of them at once.

    ``streams[i]`` is a new Generator over a PCG64 that numpy seeds from the
    4 words SeedSequence would give it. An entropy holding anything but
    non-negative Python ints goes to ``np.random.SeedSequence`` itself when
    its stream is asked for, so its stream, or numpy's error, is numpy's own.
    """

    def __init__(self, entropies: Sequence[Sequence[int]]):
        # PCG64's seed words of each stream
        self._seeds = np.zeros((len(entropies), 4), dtype=np.uint64)
        self._fallback: dict[int, Sequence] = {}
        by_width: dict[int, tuple[list[int], list[list[int]]]] = {}
        for i, entropy in enumerate(entropies):
            words = _words(entropy)
            if words is None:
                self._fallback[i] = entropy
            else:
                # fewer words than the pool hash as if padded with 0 words,
                # so the keys are hashed in one array per width
                width = max(len(words), _POOL_SIZE)
                rows, padded = by_width.setdefault(width, ([], []))
                rows.append(i)
                padded.append(words + [0] * (width - len(words)))
        for rows, padded in by_width.values():
            self._seeds[rows] = _seed_words(np.array(padded, dtype=np.uint32))
        np.random.bit_generator.ISeedSequence.register(_SeedWords)

    def __getitem__(self, i: int) -> np.random.Generator:
        if i in self._fallback:
            return np.random.default_rng(np.random.SeedSequence(self._fallback[i]))
        return np.random.Generator(np.random.PCG64(_SeedWords(self._seeds[i])))


class _SeedWords:
    """The seed sequence of words already generated: PCG64 asks it once for
    its 4 uint64 seed words, and seeds itself from them. ``Streams``
    registers it as numpy's ``ISeedSequence``, so that importing this module
    does not import ``numpy.random``: a command that draws nothing never
    needs it."""

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self._words


def _words(entropy: Sequence[int]) -> list[int] | None:
    """The uint32 words SeedSequence assembles from ``entropy``: each value's
    32-bit words, least significant first, and one 0 word for 0. None when a
    value is not a non-negative Python int."""
    words = []
    for value in entropy:
        if type(value) is not int or value < 0:
            return None
        words.append(value & _MASK32)
        value >>= 32
        while value:
            words.append(value & _MASK32)
            value >>= 32
    return words


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` for each row of
    the (keys, words) uint32 ``entropy``, at least the pool size wide: a
    (keys, 4) uint64 array of PCG64's seed, high and low 64 bits, then its
    increment, high and low."""
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value *= np.uint32(hash_const)
        value ^= value >> _XSHIFT
        return value

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        result ^= result >> _XSHIFT
        return result

    # SeedSequence.mix_entropy: fill the pool, mix every word into every
    # other, then mix each word beyond the pool into every pool word
    pool = [hashmix(entropy[:, i]) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, entropy.shape[1]):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
    # SeedSequence.generate_state: 8 uint32 words cycled from the pool,
    # read as 4 little-endian uint64 words
    hash_const = _INIT_B
    state = []
    for k in range(8):
        value = pool[k % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value *= np.uint32(hash_const)
        value ^= value >> _XSHIFT
        state.append(value.astype(np.uint64))
    return np.stack([state[2 * j] | state[2 * j + 1] << np.uint64(32) for j in range(4)], axis=1)
