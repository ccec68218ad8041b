"""The array re-derivations in ``ectuner._rng`` against the installed NumPy:
raw PCG64 words of ``spawn_rng`` streams, their bounded integers, and the
one-call index draws of sampling and shuffling."""

from __future__ import annotations

import numpy as np
import pytest

from ectuner._rng import (
    StreamBlock,
    make_rng,
    raw_words,
    sample_indices,
    shuffled,
    spawn_rng,
)

# seeds of one, two, three, four and five uint32 words
SEEDS = [0, 7, 2**32 - 1, 2**40 + 3, 2**64 + 2**33 + 9, 2**96 + 5, 2**130 + 11]


@pytest.mark.parametrize("seed", SEEDS)
def test_raw_words_equal_numpy(seed):
    indices = [0, 1, 2, 3, 255, 4095, 4096, 4097, 2**32 - 1]
    words = raw_words(seed, indices, 16)
    assert words.dtype == np.uint64 and words.shape == (len(indices), 16)
    for row, index in zip(words, indices):
        want = spawn_rng(seed, index).bit_generator.random_raw(16)
        assert row.tolist() == want.tolist()


def test_raw_words_over_a_few_thousand_indices():
    indices = np.arange(5000)
    words = raw_words(3, indices, 2)
    for index in range(0, 5000, 7):
        want = spawn_rng(3, index).bit_generator.random_raw(2)
        assert words[index].tolist() == want.tolist()
    assert raw_words(3, [], 4).shape == (0, 4)


def test_raw_words_reject_what_seed_sequence_would_not_give():
    with pytest.raises(ValueError, match="non-negative"):
        raw_words(-1, [0], 1)
    with pytest.raises(ValueError, match="indices"):
        raw_words(0, [2**32], 1)
    with pytest.raises(ValueError, match="indices"):
        raw_words(0, [-1], 1)


SPANS = [1, 2, 3, 4, 5, 50, 3 * 2**30, 2**31 + 1, 2**32 - 1, 2**32]


@pytest.mark.parametrize("spans", [[s] for s in SPANS] + [SPANS])
def test_stream_block_integers_equal_generator_integers(spans):
    # near 2**32 Lemire rejects about a third of the draws, so rows run out
    # of their one pre-drawn word and the block draws more
    pick = np.random.default_rng(1)
    indices = np.arange(1000, 1400)
    block = StreamBlock(2**40 + 3, indices, 1)
    gens = [spawn_rng(2**40 + 3, int(i)) for i in indices]
    for _ in range(12):
        rows = np.flatnonzero(pick.random(len(indices)) < 0.7)
        span = pick.choice(spans, size=len(rows))
        got = block.integers(rows, span)
        assert got.dtype == np.int64
        want = [int(gens[r].integers(0, int(s))) for r, s in zip(rows, span)]
        assert got.tolist() == want
    # one scalar span for every row
    rows = np.arange(len(indices))
    got = block.integers(rows, spans[-1])
    assert got.tolist() == [int(g.integers(0, spans[-1])) for g in gens]


def test_stream_block_rejects_spans_outside_one_to_two_to_the_32():
    block = StreamBlock(0, [0, 1], 2)
    for span in (0, -3, 2**32 + 1):
        with pytest.raises(ValueError, match="spans"):
            block.integers([0, 1], span)
    assert block.integers([], 0).tolist() == []


def _sample_indices_scalar(rng, population, k):
    idx = list(range(population))
    for i in range(k):
        j = int(rng.integers(i, population))
        idx[i], idx[j] = idx[j], idx[i]
    return sorted(idx[:k])


def _shuffled_scalar(rng, n):
    idx = list(range(n))
    for i in range(n - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        idx[i], idx[j] = idx[j], idx[i]
    return idx


@pytest.mark.parametrize("population,k", [(0, 0), (1, 1), (5, 0), (5, 5), (12_000, 2_000)])
def test_sample_indices_equal_scalar_draws(population, k):
    fast, slow = make_rng(4), make_rng(4)
    assert sample_indices(fast, population, k) == _sample_indices_scalar(slow, population, k)
    assert fast.bit_generator.state == slow.bit_generator.state


@pytest.mark.parametrize("n", [0, 1, 2, 3, 3_000])
def test_shuffled_equals_scalar_draws(n):
    fast, slow = spawn_rng(5, 1), spawn_rng(5, 1)
    for _ in range(2):
        assert shuffled(fast, n) == _shuffled_scalar(slow, n)
        assert fast.bit_generator.state == slow.bit_generator.state
