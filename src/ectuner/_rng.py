"""Seeded random number generation helpers.

All randomness in this package flows through NumPy's PCG64 bit generator so
that every draw is reproducible from an integer seed, independent of
platform.  Only ``Generator.integers`` is used for discrete draws;
sampling and shuffling are built on top of it explicitly so the draw sequence
is pinned by this module rather than by NumPy convenience-method internals.

``raw_words`` and ``StreamBlock`` give the draws of the per-item streams
``spawn_rng(seed, i)`` for a whole block of indices at once, as arrays.  They
reproduce three pieces of NumPy exactly: SeedSequence's uint32 hash mixing,
PCG64's 128-bit seeding and step with the XSL-RR output, and the bounded
integers of ``Generator.integers(0, span)`` for spans up to 2**32, which are
Lemire's multiply-shift on the 32-bit halves of the 64-bit outputs, low half
first (Lemire 2019, "Fast random integer generation in an interval").
``tests/test_rng.py`` pins each of them against the installed NumPy.
"""

from __future__ import annotations

import numpy as np

_MASK32 = 0xFFFFFFFF
# SeedSequence's hash constants and pool size (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# PCG64's 128-bit LCG multiplier, split into 32-bit limbs for 64x64-bit products
_MULT_HI = np.uint64(0x2360ED051FC65DA4)
_MULT_LO = np.uint64(0x4385DF649FCCF645)
_MULT_LO_0 = np.uint64(0x4385DF649FCCF645 & _MASK32)
_MULT_LO_1 = np.uint64(0x4385DF649FCCF645 >> 32)
_U32 = np.uint64(_MASK32)


def make_rng(seed: int) -> np.random.Generator:
    """Return a PCG64 generator seeded with ``seed``."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def spawn_rng(seed: int, index: int) -> np.random.Generator:
    """Return an independent per-item stream derived from (seed, index).

    Streams for distinct indices never overlap, so an item's draws depend
    only on (seed, index), never on which items came before it.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, index))))


def sample_indices(rng: np.random.Generator, population: int, k: int) -> list[int]:
    """Draw ``k`` distinct indices from ``range(population)``, sorted ascending.

    Partial Fisher-Yates over an index array; consumes exactly ``k`` integer
    draws from ``rng``, draw i uniform over ``range(i, population)``.
    """
    if k > population:
        raise ValueError(f"cannot sample {k} items from population of {population}")
    idx = list(range(population))
    for i, j in enumerate(rng.integers(np.arange(k), population).tolist()):
        idx[i], idx[j] = idx[j], idx[i]
    return sorted(idx[:k])


def shuffled(rng: np.random.Generator, n: int) -> list[int]:
    """Return a Fisher-Yates permutation of ``range(n)``; swap i (from n-1
    down to 1) draws its partner uniformly from ``range(i + 1)``."""
    idx = list(range(n))
    partners = rng.integers(0, np.arange(n, 1, -1)).tolist()
    for i, j in zip(range(n - 1, 0, -1), partners):
        idx[i], idx[j] = idx[j], idx[i]
    return idx


def _uint32_words(value: int) -> list[int]:
    """SeedSequence's entropy words of a non-negative integer, least
    significant first (0 is one zero word)."""
    if value < 0:
        raise ValueError(f"seed must be a non-negative integer, got {value}")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _seed_state(seed: int, indices: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence((seed, i)).generate_state(4, np.uint64)`` for every i,
    as four uint64 columns."""
    entropy = [np.full(len(indices), w, np.uint32) for w in _uint32_words(seed)]
    entropy.append(indices.astype(np.uint32))
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    zero = np.zeros(len(indices), np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    hash_const = _INIT_B
    halves = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        halves.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    return [halves[i] | halves[i + 1] << np.uint64(32) for i in range(0, 8, 2)]


def _step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray):
    """One PCG64 step, state * multiplier + inc modulo 2**128, on 64-bit limbs."""
    a0, a1 = lo & _U32, lo >> np.uint64(32)
    p00, p01 = a0 * _MULT_LO_0, a0 * _MULT_LO_1
    p10, p11 = a1 * _MULT_LO_0, a1 * _MULT_LO_1
    mid = (p00 >> np.uint64(32)) + (p01 & _U32) + (p10 & _U32)
    carry_hi = p11 + (p01 >> np.uint64(32)) + (p10 >> np.uint64(32)) + (mid >> np.uint64(32))
    new_lo = lo * _MULT_LO + inc_lo
    new_hi = carry_hi + lo * _MULT_HI + hi * _MULT_LO + inc_hi + (new_lo < inc_lo)
    return new_hi, new_lo


def raw_words(seed: int, indices, n: int) -> np.ndarray:
    """The first ``n`` 64-bit outputs of ``PCG64(SeedSequence((seed, i)))``
    for every i in ``indices`` (each in 0..2**32-1), one row per index: what
    ``spawn_rng(seed, i).bit_generator.random_raw(n)`` returns."""
    indices = np.asarray(indices, np.int64)
    if indices.size and (indices.min() < 0 or indices.max() > _MASK32):
        raise ValueError("stream indices must lie in 0..2**32-1")
    init_hi, init_lo, seq_hi, seq_lo = _seed_state(seed, indices)
    inc_hi = seq_hi << np.uint64(1) | seq_lo >> np.uint64(63)
    inc_lo = seq_lo << np.uint64(1) | np.uint64(1)
    # srandom: state 0, step (state becomes inc), add initstate, step
    lo = inc_lo + init_lo
    hi = inc_hi + init_hi + (lo < init_lo)
    hi, lo = _step(hi, lo, inc_hi, inc_lo)
    out = np.empty((len(indices), n), np.uint64)
    for j in range(n):
        hi, lo = _step(hi, lo, inc_hi, inc_lo)
        # XSL-RR: fold the halves, rotate right by the top six bits
        x, rot = hi ^ lo, hi >> np.uint64(58)
        out[:, j] = x >> rot | x << ((np.uint64(64) - rot) & np.uint64(63))
    return out


class StreamBlock:
    """The streams ``spawn_rng(seed, i)`` for a block of indices, drawn from
    in lock-step: row r of every draw is the next draw of stream
    ``indices[r]``.  A row that uses up its pre-drawn words gets more."""

    def __init__(self, seed: int, indices, n_words: int) -> None:
        self._seed = seed
        self._indices = np.asarray(indices, np.int64)
        self._halves = self._draw(max(n_words, 1))
        self._next = np.zeros(len(self._indices), np.intp)

    def _draw(self, n_words: int) -> np.ndarray:
        """The streams' 32-bit halves in the order ``next_uint32`` hands them
        out: low half of each 64-bit word first."""
        words = raw_words(self._seed, self._indices, n_words)
        halves = np.empty((len(words), 2 * n_words), np.uint64)
        halves[:, 0::2] = words & _U32
        halves[:, 1::2] = words >> np.uint64(32)
        return halves

    def integers(self, rows, span) -> np.ndarray:
        """For each of the distinct ``rows``, the next draw of its stream's
        ``Generator.integers(0, span)``, with ``span`` (one per row or one for
        all) in 1..2**32.  A span of 1 draws nothing and gives 0."""
        rows = np.asarray(rows, np.intp)
        span = np.broadcast_to(np.asarray(span, np.int64), rows.shape)
        if rows.size and (span.min() < 1 or span.max() > 2**32):
            raise ValueError("spans must lie in 1..2**32")
        span = span.astype(np.uint64)
        out = np.zeros(rows.shape, np.uint64)
        pending = np.flatnonzero(span > 1)
        while pending.size:
            r, s = rows[pending], span[pending]
            cursor = self._next[r]
            if cursor.max() >= self._halves.shape[1]:
                self._halves = self._draw(self._halves.shape[1])
            m = self._halves[r, cursor] * s
            self._next[r] = cursor + 1
            # Lemire: reject a product whose low word falls below 2**32 % span
            accept = (m & _U32) >= np.uint64(2**32) % s
            out[pending[accept]] = m[accept] >> np.uint64(32)
            pending = pending[~accept]
        return out.astype(np.int64)
