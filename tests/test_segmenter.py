"""Word segmentation checks: offsets, remainders, and N-gap handling, plus a
differential check of the packed segmenter against the string oracle."""

from __future__ import annotations

import random

import numpy as np
import pytest

from ectuner.segmenter import WordSequence, segment_reads
from ectuner.seqio import Read, ReadSet, encode_word

from ngram_oracles import SegmentTally, oracle_segment_corpus
from seqio_oracles import decode_words


def _runs_per_read(words, n_reads):
    """The flat words of ``segment_reads`` as each read's runs of codes."""
    out = [[] for _ in range(n_reads)]
    for code, read, pos in zip(*(a.tolist() for a in words)):
        if pos == 0:
            out[read].append([])
        out[read][-1].append(code)
    return out


def _tally(readset, word_len, words):
    """The oracle's tallies, as a caller derives them from the read lengths
    and the words ``segment_reads`` kept."""
    n_words = readset.lengths // word_len
    short = int(np.count_nonzero(n_words == 0))
    kept = len(words.codes)
    return SegmentTally(len(readset) - short, short, kept, int(n_words.sum()) - kept)


def _segment(seq, word_len):
    """Runs of one read as words, through the packed segmenter, and the
    number of words skipped."""
    reads = ReadSet((Read("r", seq),))
    words = segment_reads(reads, word_len)
    (runs,) = _runs_per_read(words, 1)
    runs = tuple(tuple(decode_words(run, word_len)) for run in runs)
    return runs, _tally(reads, word_len, words).skipped_words


def test_segment_non_overlapping_from_offset_zero():
    runs, skipped = _segment("ACGTACGTACGT", 4)
    assert runs == (("ACGT", "ACGT", "ACGT"),)
    assert skipped == 0


def test_segment_drops_trailing_remainder():
    runs, _ = _segment("ACGTACGTA", 4)
    assert runs == (("ACGT", "ACGT"),)


def test_segment_word_count_matches_floor_division():
    for length in range(7, 40):
        seq = ("ACGT" * 10)[:length]
        runs, _ = _segment(seq, 7)
        assert sum(len(run) for run in runs) == length // 7


def test_segment_n_word_breaks_run_and_is_tallied():
    # words: ACG | TNA | CGT -> middle word contains N
    runs, skipped = _segment("ACGTNACGT", 3)
    assert runs == (("ACG",), ("CGT",))
    assert skipped == 1


def test_segment_all_n_read_yields_no_words():
    runs, skipped = _segment("NNNNNN", 3)
    assert runs == ()
    assert skipped == 2


def test_segment_leading_and_trailing_n_words():
    runs, skipped = _segment("NNNACGTACNNN", 3)
    assert runs == (("ACG", "TAC"),)
    assert skipped == 2


def test_segment_rejects_bad_word_length():
    reads = ReadSet((Read("r", "ACGT"),))
    with pytest.raises(ValueError):
        segment_reads(reads, 0)
    with pytest.raises(ValueError):
        segment_reads(reads, -2)
    # a read shorter than the word has no runs
    words = segment_reads(reads, 5)
    assert _runs_per_read(words, 1) == [[]]
    assert _tally(reads, 5, words) == SegmentTally(short_reads=1)


def test_segment_word_length_equal_to_read_length():
    runs, _ = _segment("ACGTACG", 7)
    assert runs == (("ACGTACG",),)


def test_words_joins_every_run():
    ws = WordSequence("x", (("AAA", "CCC"), ("GGG",)))
    assert ws.words == ("AAA", "CCC", "GGG")


def test_segment_corpus_skips_short_reads_and_tallies():
    rs = ReadSet(
        (
            Read("long", "ACGTACGTAC"),
            Read("short", "ACG"),
            Read("exact", "ACGT"),
            Read("gappy", "ACGTNNNNAC"),
        )
    )
    words = segment_reads(rs, 4)
    reads = _runs_per_read(words, len(rs))
    acgt = encode_word("ACGT")
    assert reads == [[[acgt, acgt]], [], [[acgt]], [[acgt]]]
    assert _tally(rs, 4, words) == SegmentTally(
        reads=3, short_reads=1, words=2 + 1 + 1, skipped_words=1
    )


def test_segment_corpus_of_one_read_and_of_none():
    rs = ReadSet((Read("a", "ACGTACGT"),))
    assert _runs_per_read(segment_reads(rs, 4), 1) == [[[encode_word("ACGT")] * 2]]
    assert all(len(a) == 0 for a in segment_reads(ReadSet(()), 4))


def _random_reads(rng, n):
    # N breaks runs; lengths run from empty to several words
    alphabet = "ACGT" * 8 + "N" * 8
    return ReadSet(
        tuple(
            Read(f"r{i}", "".join(rng.choices(alphabet, k=rng.randint(0, 70))))
            for i in range(n)
        )
    )


@pytest.mark.parametrize("word_len", range(1, 17))
def test_packed_segmentation_matches_string_oracle(word_len):
    rng = random.Random(word_len)
    for _ in range(12):
        reads = _random_reads(rng, rng.randint(0, 40))
        words = segment_reads(reads, word_len)
        got = _runs_per_read(words, len(reads))
        want_stats = SegmentTally()
        want = iter(oracle_segment_corpus(reads, word_len, want_stats))
        for read, runs in zip(reads, got, strict=True):
            if len(read) < word_len:
                assert runs == []
                continue
            ws = next(want)
            assert ws.read_id == read.id
            assert runs == [[encode_word(w) for w in run] for run in ws.runs]
        assert next(want, None) is None
        assert _tally(reads, word_len, words) == want_stats
