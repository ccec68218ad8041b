"""Word segmentation checks: offsets, remainders, and N-gap handling, plus a
differential check of the packed segmenter against the string oracle."""

from __future__ import annotations

import random

import pytest

from ectuner.segmenter import SegmentStats, WordSequence, segment_reads
from ectuner.seqio import Read, ReadSet, decode_words, encode_word

from ngram_oracles import oracle_segment_corpus


def _segment(seq, word_len):
    """Runs of one read as words, through the packed segmenter."""
    stats = SegmentStats()
    (runs,) = segment_reads(ReadSet((Read("r", seq),)), word_len, stats)
    words = tuple(tuple(decode_words(run, word_len)) for run in runs)
    return words, stats.skipped_words


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
    # a read shorter than the word has no runs and is tallied
    stats = SegmentStats()
    assert segment_reads(reads, 5, stats) == [[]]
    assert stats == SegmentStats(short_reads=1)


def test_segment_word_length_equal_to_read_length():
    runs, _ = _segment("ACGTACG", 7)
    assert runs == (("ACGTACG",),)


def test_from_words_builds_single_run():
    ws = WordSequence.from_words(["AAA", "CCC"], read_id="x")
    assert ws.runs == (("AAA", "CCC"),)
    assert ws.words == ("AAA", "CCC")


def test_segment_corpus_skips_short_reads_and_tallies():
    rs = ReadSet(
        (
            Read("long", "ACGTACGTAC"),
            Read("short", "ACG"),
            Read("exact", "ACGT"),
            Read("gappy", "ACGTNNNNAC"),
        )
    )
    stats = SegmentStats()
    reads = segment_reads(rs, 4, stats)
    acgt = encode_word("ACGT")
    assert reads == [[[acgt, acgt]], [], [[acgt]], [[acgt]]]
    assert stats.reads == 3
    assert stats.short_reads == 1
    assert stats.words == 2 + 1 + 1
    assert stats.skipped_words == 1


def test_segment_corpus_without_stats_object():
    rs = ReadSet((Read("a", "ACGTACGT"),))
    assert segment_reads(rs, 4) == [[[encode_word("ACGT")] * 2]]
    assert segment_reads(ReadSet(()), 4) == []


def _random_reads(rng, n):
    # N, lower case, a stray ASCII letter and non-ASCII characters all break
    # runs; lengths run from empty to several words
    alphabet = "ACGT" * 8 + "N" + "acgt" + "X" + "é" + "☃"
    return ReadSet(
        tuple(
            Read(f"r{i}", "".join(rng.choices(alphabet, k=rng.randint(0, 70))))
            for i in range(n)
        )
    )


@pytest.mark.parametrize("word_len", range(1, 17))
def test_packed_segmentation_matches_string_oracle(word_len):
    rng = random.Random(word_len)
    for trial in range(12):
        reads = _random_reads(rng, rng.randint(0, 40))
        if trial % 3 == 0:
            reads = ReadSet(tuple(Read(r.id, r.sequence.upper()) for r in reads))
        got_stats, want_stats = SegmentStats(), SegmentStats()
        got = segment_reads(reads, word_len, got_stats)
        want = iter(oracle_segment_corpus(reads, word_len, want_stats))
        for read, runs in zip(reads, got, strict=True):
            if len(read) < word_len:
                assert runs == []
                continue
            ws = next(want)
            assert ws.read_id == read.id
            assert runs == [[encode_word(w) for w in run] for run in ws.runs]
        assert next(want, None) is None
        assert got_stats == want_stats
