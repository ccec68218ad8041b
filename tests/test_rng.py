"""The re-derivations in ``ectuner._rng`` against the installed NumPy: the
Python-int stream ``Pcg64`` and its index draws, and the array paths' raw
PCG64 words and bounded integers of per-read streams."""

from __future__ import annotations

import numpy as np
import pytest

import rng_oracles as oracle
from ectuner._rng import (
    Pcg64,
    StreamBlock,
    make_rng,
    raw_words,
    sample_indices,
    shuffled,
)
from rng_oracles import spawn_rng

# seeds of one, two, three, four and five uint32 words
SEEDS = [0, 7, 2**32 - 1, 2**40 + 3, 2**64 + 2**33 + 9, 2**96 + 5, 2**130 + 11]


def _numpy_stream(seed: int, index: int | None = None) -> np.random.Generator:
    return np.random.default_rng(seed) if index is None else spawn_rng(seed, index)


def _assert_same_position(ours: Pcg64, gen: np.random.Generator) -> None:
    """Both streams are at the same output and hold the same kept 32-bit half:
    their next two 32-bit and next 64-bit draws agree."""
    got = [ours.next32(), ours.next32(), ours.next64()]
    want = [int(gen.integers(0, 2**32, dtype=np.uint64)) for _ in range(2)]
    assert got == want + [int(gen.bit_generator.random_raw())]


STREAMS = [(0, None), (1, None), (2**32, None), (2**64 + 5, None),
           (0, 0), (1, 1), (2**32, 7), (2**64 + 5, 2**32 - 1), (3, 2**40 + 1)]


@pytest.mark.parametrize("seed,index", STREAMS)
def test_pcg64_raw_outputs_equal_numpy(seed, index):
    ours, gen = Pcg64(seed, index), _numpy_stream(seed, index)
    assert [ours.next64() for _ in range(16)] == gen.bit_generator.random_raw(16).tolist()


@pytest.mark.parametrize("seed,index", STREAMS)
def test_pcg64_mixed_32_and_64_bit_draws_equal_numpy(seed, index):
    # a 64-bit draw between two 32-bit ones leaves the kept high half in place
    ours, gen = Pcg64(seed, index), _numpy_stream(seed, index)
    for _ in range(5):
        got = [ours.next32(), ours.next64(), ours.next32(), ours.integers(3, 2**32 + 3),
               ours.next32(), ours.random((2,)).tolist(), ours.integers(0, 6)]
        want = [
            int(gen.integers(0, 2**32, dtype=np.uint64)),
            int(gen.bit_generator.random_raw()),
            int(gen.integers(0, 2**32, dtype=np.uint64)),
            int(gen.integers(3, 2**32 + 3)),
            int(gen.integers(0, 2**32, dtype=np.uint64)),
            gen.random((2,)).tolist(),
            int(gen.integers(0, 6)),
        ]
        assert got == want
    _assert_same_position(ours, gen)


SPANS = [1, 2, 3, 4, 5, 50, 3 * 2**30, 2**31 + 1, 2**32 - 1, 2**32]


@pytest.mark.parametrize("span", SPANS)
def test_pcg64_integers_equal_array_valued_generator_integers(span):
    # one array call against one scalar draw per element, as sample_indices
    # and shuffled make them; near 3 * 2**30 Lemire rejects a quarter of the
    # draws, and a span of 1 draws nothing
    lows = np.arange(-5, 295) * 1000
    ours, gen = Pcg64(11, 2), spawn_rng(11, 2)
    got = [ours.integers(int(lo), int(lo) + span) for lo in lows]
    assert got == gen.integers(lows, lows + span).tolist()
    _assert_same_position(ours, gen)


def test_pcg64_integers_equal_generator_integers_over_mixed_spans():
    pick = np.random.default_rng(1)
    lows = pick.integers(-(2**40), 2**40, size=2000)
    highs = lows + pick.choice(SPANS, size=len(lows))
    ours, gen = Pcg64(2**64 + 5), np.random.default_rng(2**64 + 5)
    assert [ours.integers(int(lo), int(hi)) for lo, hi in zip(lows, highs)] == (
        gen.integers(lows, highs).tolist()
    )
    _assert_same_position(ours, gen)
    # the broadcasts sample_indices and shuffled stand for
    assert [ours.integers(i, 1000) for i in range(1000)] == (
        gen.integers(np.arange(1000), 1000).tolist()
    )
    assert [ours.integers(0, i) for i in range(1000, 1, -1)] == (
        gen.integers(0, np.arange(1000, 1, -1)).tolist()
    )
    _assert_same_position(ours, gen)


@pytest.mark.parametrize("shape", [(), (0,), (1,), (7,), (3, 4), (4, 16), (2, 3, 5)])
def test_pcg64_random_equals_generator_random(shape):
    ours, gen = Pcg64(5, 1), spawn_rng(5, 1)
    ours.next32()
    gen.integers(0, 2**32, dtype=np.uint64)
    for _ in range(3):
        got, want = ours.random(shape), gen.random(shape)
        assert got.shape == want.shape and got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()
    _assert_same_position(ours, gen)


def test_pcg64_refuses_what_seed_sequence_and_integers_would_not_take():
    with pytest.raises(ValueError, match=r"^stream index must be >= 0, got -1$"):
        Pcg64(0, -1)
    rng = Pcg64(0)
    for low, high in [(0, 0), (5, 4), (0, 2**32 + 1)]:
        with pytest.raises(ValueError, match="span"):
            rng.integers(low, high)
    _assert_same_position(rng, np.random.default_rng(0))  # no draw taken


@pytest.mark.parametrize("seed", SEEDS)
def test_raw_words_equal_numpy(seed):
    indices = [0, 1, 2, 3, 255, 4095, 4096, 4097, 2**32 - 1]
    words = raw_words(seed, indices, 16)
    assert words.dtype == np.uint64 and words.shape == (len(indices), 16)
    for row, index in zip(words, indices):
        want = spawn_rng(seed, index).bit_generator.random_raw(16)
        assert row.tolist() == want.tolist()
        stream = Pcg64(seed, index)
        assert [stream.next64() for _ in range(2)] == want[:2].tolist()


def test_raw_words_over_a_few_thousand_indices():
    indices = np.arange(5000)
    words = raw_words(3, indices, 2)
    for index in range(0, 5000, 7):
        want = spawn_rng(3, index).bit_generator.random_raw(2)
        assert words[index].tolist() == want.tolist()
    assert raw_words(3, [], 4).shape == (0, 4)


def test_raw_words_reject_what_seed_sequence_would_not_give():
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        raw_words(-1, [0], 1)
    with pytest.raises(ValueError, match="indices"):
        raw_words(0, [2**32], 1)
    with pytest.raises(ValueError, match="indices"):
        raw_words(0, [-1], 1)


def test_every_generator_refuses_a_negative_seed_by_one_message():
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        make_rng(-1)
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -2$"):
        Pcg64(-2)
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -2$"):
        Pcg64(-2, 0)
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -3$"):
        StreamBlock(-3, [0], 1)


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


@pytest.mark.parametrize(
    "population,k",
    [(0, 0), (1, 1), (5, 0), (5, 5), (12_000, 2_000), (12_000, 0), (12_000, 1),
     (12_000, 12_000)],
)
def test_sample_indices_equal_scalar_draws(population, k):
    ours, gen = Pcg64(4), np.random.default_rng(4)
    assert sample_indices(ours, population, k) == oracle.sample_indices(gen, population, k)
    _assert_same_position(ours, gen)


def test_sample_indices_refuses_more_than_the_population():
    rng = Pcg64(4)
    with pytest.raises(ValueError, match="^cannot sample 4 items from population of 3$"):
        sample_indices(rng, 3, 4)
    _assert_same_position(rng, np.random.default_rng(4))  # no draw taken


@pytest.mark.parametrize("n", [0, 1, 2, 3, 3_000, 60_000])
def test_shuffled_equals_scalar_draws(n):
    ours, gen = Pcg64(5, 1), spawn_rng(5, 1)
    for _ in range(2):
        assert shuffled(ours, n) == oracle.shuffled(gen, n)
    _assert_same_position(ours, gen)
