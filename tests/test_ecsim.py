"""Spectrum correction, external-adapter, and gain-metric checks."""

from __future__ import annotations

import itertools
import math
import os
import random
import sys
import tracemalloc

import numpy as np
import pytest

from ectuner import ecsim, ngram
from ectuner.ecsim import (
    AdapterError,
    AlignmentError,
    GainUndefinedError,
    KmerSpectrum,
    KSpectrumConfig,
    ToolAdapter,
    adapter_corrector,
    builtin_corrector,
    ec_gain,
    kmer_spectrum,
    kspectrum_correct,
    run_external,
)
from ectuner.injector import InjectionSpec, generate_genome, inject_readset, sample_clean_reads
from ectuner.seqio import Read, ReadSet

from ecsim_oracles import (
    as_dict,
    oracle_correct_read,
    oracle_gain_counts,
    oracle_spectrum,
    spectrum_of,
)


def test_kmer_spectrum_matches_naive_recount():
    genome = generate_genome(500, seed=1)
    rs = sample_clean_reads(genome, 80, 30, seed=2)
    for k in (3, 7, 15):
        assert as_dict(kmer_spectrum(rs, k)) == oracle_spectrum(rs, k)


def test_kmer_spectrum_skips_n_windows_and_short_reads():
    rs = ReadSet((Read("a", "ACGNACG"), Read("b", "AC")))
    assert as_dict(kmer_spectrum(rs, 3)) == {"ACG": 2}
    with pytest.raises(ValueError):
        kmer_spectrum(rs, 0)
    with pytest.raises(ValueError, match="limit of 32"):
        kmer_spectrum(rs, 33)


@pytest.mark.parametrize("k", range(1, 33))
def test_kmer_spectrum_matches_the_oracle_at_every_k(k, monkeypatch):
    # each k joins its own set of power-of-two pieces; the reads are ragged,
    # some shorter than k, with single Ns and runs of N
    rng = random.Random(k)
    reads = _messy_reads(rng, generate_genome(300, seed=k), 60)
    want = oracle_spectrum(reads, k)
    assert as_dict(kmer_spectrum(reads, k)) == want
    # blocks of five windows: most k-mers cross a block boundary
    monkeypatch.setattr(ecsim, "_SPECTRUM_BLOCK", 5)
    assert as_dict(kmer_spectrum(reads, k)) == want
    empty = kmer_spectrum(ReadSet(()), k)
    assert len(empty) == 0 and empty.codes.dtype == np.uint64


def test_kmer_spectrum_matches_the_oracle_across_a_block_of_windows():
    rng = random.Random(5)
    reads = _messy_reads(rng, generate_genome(5000, seed=5), 5000)
    assert len(reads.codes) > 2 * ecsim._SPECTRUM_BLOCK
    for k in (1, 17, 25, 32):
        assert as_dict(kmer_spectrum(reads, k)) == oracle_spectrum(reads, k)


def _min_count_sets(k):
    """Deep reads of a short genome, so counts of 1 to 5 and more all occur,
    mixed with ragged reads holding single Ns and runs of N, all-N reads,
    reads shorter than any k and one window of k T's, the highest code, which
    the genome rarely holds; and an empty set."""
    genome = generate_genome(400, seed=61)
    deep = sample_clean_reads(genome, 150, 40, seed=62)
    messy = _messy_reads(random.Random(61), genome, 120)
    odd = (
        Read("one-n", genome[:20] + "N" + genome[21:45]),
        Read("all-n", "N" * 40),
        Read("all-n-short", "NNN"),
        Read("short", genome[50:51]),
        Read("empty", ""),
        Read("top", "T" * k),
    )
    return ReadSet(deep.reads + messy.reads + odd), ReadSet(())


_MIN_COUNT_KS = [1, 2, 9, 17, 25, 31, 32]


@pytest.mark.parametrize("k", _MIN_COUNT_KS)
@pytest.mark.parametrize("block", [5, ecsim._SPECTRUM_BLOCK])
def test_kmer_spectrum_min_count_is_the_full_spectrum_filtered(k, block, monkeypatch):
    # blocks of five windows: runs are compared across block boundaries
    monkeypatch.setattr(ecsim, "_SPECTRUM_BLOCK", block)
    for reads in _min_count_sets(k):
        full = kmer_spectrum(reads, k)
        for m in (1, 2, 3, 5):
            got = kmer_spectrum(reads, k, m)
            got.check()
            kept = full.counts >= m
            assert got.codes.tolist() == full.codes[kept].tolist()
            assert got.counts.tolist() == full.counts[kept].tolist()
            assert got.codes.dtype == np.uint64 and got.counts.dtype == np.int64
    with pytest.raises(ValueError, match="min_count must be >= 1, got 0"):
        kmer_spectrum(reads, k, 0)


@pytest.mark.parametrize("k", _MIN_COUNT_KS)
def test_correction_against_its_own_solid_spectrum_equals_the_full_one(k, monkeypatch):
    # the corrector counts its own spectrum with min_count = solid_min,
    # through the module attribute that tracing wraps
    calls = []

    def counted(readset, k, min_count=1):
        calls.append((k, min_count))
        return kmer_spectrum(readset, k, min_count)

    monkeypatch.setattr(ecsim, "kmer_spectrum", counted)
    for reads in _min_count_sets(k):
        full = kmer_spectrum(reads, k)
        for m in (1, 2, 3, 5):
            config = KSpectrumConfig(k, solid_min=m)
            calls.clear()
            got = kspectrum_correct(reads, config)
            assert calls == [(k, m)]
            want = kspectrum_correct(reads, config, full)
            assert got.codes.tobytes() == want.codes.tobytes()
            assert got.lengths.tolist() == want.lengths.tolist()
            assert got.names == want.names
            # an explicit spectrum counted at solid_min corrects the same too;
            # one counted above it lacks solid k-mers and is refused
            solid = kspectrum_correct(reads, config, kmer_spectrum(reads, k, m))
            assert solid.codes.tobytes() == want.codes.tobytes()
            with pytest.raises(ValueError, match=f"min_count {m + 1} lacks"):
                kspectrum_correct(reads, config, kmer_spectrum(reads, k, m + 1))


@pytest.fixture(scope="module")
def tune_default_reads():
    """12 000 x 50 bp reads of a 10 kb genome with substitution/low errors,
    the size of the tune-default benchmark's input."""
    clean = sample_clean_reads(generate_genome(10_000, seed=1), 12_000, 50, seed=2)
    return inject_readset(clean, InjectionSpec("substitution", "low", seed=3))[0]


@pytest.mark.parametrize("k", [17, 25])
def test_kmer_spectrum_peak_memory(tune_default_reads, k):
    # one uint64 per in-read window, then the distinct codes and counts;
    # the block pieces stay small beside them
    tracemalloc.start()
    try:
        kmer_spectrum(tune_default_reads, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7.5e6


# tracemalloc peaks of the spectrum of the k-mers counted 3 times or more,
# in bytes: one uint64 and one run flag per in-read window, and the block
# pieces.  The distinct k-mers are never gathered; the full spectrum, which
# gathers them, peaks at 6.75 MB (k = 17) and 6.07 MB (k = 25)
_SOLID_SPECTRUM_PEAK = {17: 4.82e6, 25: 3.89e6}


@pytest.mark.parametrize("k", [17, 25])
def test_solid_spectrum_peak_memory(tune_default_reads, k):
    tracemalloc.start()
    try:
        kmer_spectrum(tune_default_reads, k, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _SOLID_SPECTRUM_PEAK[k] + 0.5e6


def test_ngram_scoring_peak_memory(tune_default_reads):
    # 84 000 words scored 2**15 at a time peak at 6.68 MB, their segmented
    # words included; scored all at once, with a Python float per word, 10.35 MB
    model = ngram.train_reads(tune_default_reads)
    tracemalloc.start()
    try:
        model.score_reads(tune_default_reads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7.5e6


def test_ngram_training_peak_memory(tune_default_reads):
    # 84 000 words, each order's keys sorted once and every set-sized array
    # dropped once spent, peak at 7.04 MB, the 4.47 MB model included.
    # Keeping a history sort's arrays through the event sort peaks at
    # 7.81 MB, keeping the words' read column at 7.72 MB, and counting
    # through np.unique's inverse at 9.43 MB
    tracemalloc.start()
    try:
        ngram.train_reads(tune_default_reads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7.5e6


@pytest.fixture(scope="module")
def saved_model(tune_default_reads, tmp_path_factory):
    """The default model of the tune-default reads, and its 3.27 MB file."""
    model = ngram.train_reads(tune_default_reads)
    path = str(tmp_path_factory.mktemp("model") / "reads.ngram")
    model.save(path)  # which also imports hashlib before any tracing
    return model, path


def test_ngram_save_peak_memory(saved_model):
    # written and hashed an order at a time, each order's arrays dropped
    # before the next is built, the file peaks at 5.21 MB; with every
    # order's token rows built at once, a np.unique per token column and
    # the whole file joined into one bytearray, at 10.31 MB
    model, path = saved_model
    tracemalloc.start()
    try:
        model.save(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.5e6


def test_ngram_load_peak_memory(saved_model):
    # one aligned uint32 copy of the body, dropped with the file's bytes
    # before the tables are indexed, peaks at 12.24 MB; the body held as
    # int64 and again as uint32, with the file, while indexing, at 25.91 MB
    path = saved_model[1]
    tracemalloc.start()
    try:
        ngram.NgramModel.load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 15e6


# tracemalloc peaks of the correction alone, in bytes, before the neighbour
# search took runs (tune_default_reads, explicit spectrum); the margin is
# about one block of candidates, 2**14 at some 120 bytes each
_CORRECTION_PEAK = {9: 3.29e6, 17: 3.11e6, 25: 3.22e6}


@pytest.mark.parametrize("k", [9, 17, 25])
def test_correction_peak_memory(tune_default_reads, k):
    # at k = 9 the head runs of a 10 kb genome hold about 40 k-mers each,
    # so a round's runs expanded whole would peak near 18 MB
    spectrum = kmer_spectrum(tune_default_reads, k)
    tracemalloc.start()
    try:
        kspectrum_correct(tune_default_reads, KSpectrumConfig(k), spectrum)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _CORRECTION_PEAK[k] + 2e6


def test_kspectrum_config_validation():
    with pytest.raises(ValueError):
        KSpectrumConfig(k=0)
    with pytest.raises(ValueError):
        KSpectrumConfig(k=5, solid_min=0)
    with pytest.raises(ValueError):
        KSpectrumConfig(k=5, max_edits=-1)
    assert KSpectrumConfig(k=32).k == 32
    limit = "k=33 exceeds the built-in corrector's limit of 32"
    with pytest.raises(ValueError, match=limit):
        KSpectrumConfig(k=33)


def _messy_reads(rng, genome, n):
    """Ragged reads drawn from ``genome`` with substitutions, single Ns and
    runs of N."""
    reads = []
    for i in range(n):
        length = rng.randint(0, 60)
        start = rng.randint(0, len(genome) - length)
        seq = list(genome[start : start + length])
        for j in range(length):
            draw = rng.random()
            if draw < 0.03:
                seq[j] = rng.choice("ACGT")
            elif draw < 0.04:
                seq[j] = "N"
            elif draw < 0.045:
                seq[j : j + 3] = "N" * len(seq[j : j + 3])
        reads.append(Read(f"r{i}", "".join(seq)))
    return ReadSet(tuple(reads))


@pytest.mark.parametrize("k", [1, 2, 3, 7, 16, 21, 32])
def test_packed_corrector_matches_scalar_oracle(k):
    rng = random.Random(k)
    genome = generate_genome(300, seed=k)
    reads = _messy_reads(rng, genome, 80)
    deep = sample_clean_reads(genome, 200, 40, seed=k + 1)
    assert as_dict(kmer_spectrum(reads, k)) == oracle_spectrum(reads, k)
    assert as_dict(kmer_spectrum(deep, k)) == oracle_spectrum(deep, k)
    spectra = [
        (None, oracle_spectrum(reads, k)),
        (spectrum_of(oracle_spectrum(deep, k), k), oracle_spectrum(deep, k)),
        (kmer_spectrum(deep, k), oracle_spectrum(deep, k)),
    ]
    for solid_min in range(1, 6):
        for max_edits in range(4):
            config = KSpectrumConfig(k, solid_min, max_edits)
            for given, counts in spectra:
                fixed = kspectrum_correct(reads, config, spectrum=given)
                for read, got in zip(reads, fixed):
                    want = oracle_correct_read(read, k, solid_min, max_edits, counts)
                    assert got == Read(read.id, want.sequence, read.quality)


def test_all_t_32mer_wins_a_tie_break_alone():
    # the all-T 32-mer has the largest code a 64-bit k-mer can take
    counts = {"T" * 32: 5}
    spectrum = spectrum_of(counts, 32)
    assert spectrum.codes.tolist() == [2**64 - 1]
    config = KSpectrumConfig(32, solid_min=1, max_edits=1)
    for first in "CA":
        read = Read("r", first + "T" * 31)
        fixed = kspectrum_correct(ReadSet((read,)), config, spectrum=spectrum)
        want = oracle_correct_read(read, 32, 1, 1, counts)
        assert fixed[0].sequence == want.sequence == "T" * 32


def test_all_t_32mer_loses_a_tie_and_wins_on_count():
    window = "T" * 31 + "G"
    assert _corrected(window, {"T" * 32: 5, "T" * 31 + "C": 5}, 32) == "T" * 31 + "C"
    assert _corrected(window, {"T" * 32: 6, "T" * 31 + "C": 5}, 32) == "T" * 32


def _corrected(sequence, counts, k, solid_min=3, max_edits=1):
    """The corrected sequence, checked against the scalar oracle first."""
    read = Read("r", sequence)
    config = KSpectrumConfig(k, solid_min, max_edits)
    fixed = kspectrum_correct(ReadSet((read,)), config, spectrum=spectrum_of(counts, k))
    want = oracle_correct_read(read, k, solid_min, max_edits, counts)
    assert fixed[0].sequence == want.sequence
    return fixed[0].sequence


# The search looks at offsets below h = k // 2 only when the window's tail
# (its last k - h bases) ends a solid k-mer, and at offsets from h on only
# when its head (its first h bases) starts one.  For k = 8 the window
# ACGT|TGCA has head ACGT and tail TGCA.


def test_only_neighbour_differing_in_the_head_is_found():
    assert _corrected("ACGTTGCA", {"ACCTTGCA": 5}, 8) == "ACCTTGCA"
    assert _corrected("ACGTTGCA", {"TCGTTGCA": 5}, 8) == "TCGTTGCA"


def test_only_neighbour_differing_in_the_tail_is_found():
    assert _corrected("ACGTTGCA", {"ACGTTGGA": 5}, 8) == "ACGTTGGA"
    assert _corrected("ACGTTGCA", {"ACGTTGCT": 5}, 8) == "ACGTTGCT"


def test_ties_across_halves_go_to_the_smallest_code():
    # the head-half neighbour is the smaller code
    counts = {"ACCTTGCA": 5, "ACGTTGAA": 5}
    assert _corrected("ACGTTGCA", counts, 8) == "ACCTTGCA"
    # the tail-half neighbour is the smaller code
    counts = {"ATGTTGCA": 5, "ACGTTGAA": 5}
    assert _corrected("ACGTTGCA", counts, 8) == "ACGTTGAA"
    # a higher count beats a smaller code, from either half
    counts = {"ACCTTGCA": 5, "ACGTTGGA": 6}
    assert _corrected("ACGTTGCA", counts, 8) == "ACGTTGGA"
    counts = {"ACTTTGCA": 6, "ACGTTGAA": 5}
    assert _corrected("ACGTTGCA", counts, 8) == "ACTTTGCA"


def test_an_unknown_base_is_the_only_offset_fixed_in_either_half():
    # the N reads as A in the packed code, so ACATTGCT is a single
    # replacement of the coded window, at an offset the N rules out
    counts = {"ACATTGCA": 5, "ACGTTGCA": 7, "ACATTGCT": 9}
    assert _corrected("ACNTTGCA", counts, 8) == "ACGTTGCA"
    counts = {"ACGTTGCA": 5, "ACGTTGGA": 7, "TCGTTGAA": 9}
    assert _corrected("ACGTTGNA", counts, 8) == "ACGTTGGA"
    # with the N in one half, no neighbour in the other is ever taken
    assert _corrected("ACNTTGCA", {"ACATTGCT": 9}, 8) == "ACNTTGCA"
    assert _corrected("ACGTTGNA", {"TCGTTGAA": 9}, 8) == "ACGTTGNA"


def test_ties_within_one_half_go_to_the_smallest_code():
    # three neighbours share the top count; a fourth, with a smaller code,
    # counts less
    head = {"TCGTTGCA": 5, "ACCTTGCA": 5, "AGGTTGCA": 5, "AAGTTGCA": 4}
    assert _corrected("ACGTTGCA", head, 8) == "ACCTTGCA"
    tail = {"ACGTTGCT": 5, "ACGTTGGA": 5, "ACGTCGCA": 5, "ACGTAGCA": 4}
    assert _corrected("ACGTTGCA", tail, 8) == "ACGTCGCA"
    # the same counts, all looked up together
    assert _corrected("ACGTTGCA", head | tail, 8) == "ACCTTGCA"


def test_solid_neighbours_at_the_other_offsets_of_an_n_window_are_refused():
    # with the N read as A, each of these is one replacement away from the
    # window's code, at an offset other than the N's, in either half
    counts = {"TCATTGCA": 9, "AGATTGCA": 9, "ACATAGCA": 9, "ACATTGCT": 9}
    assert _corrected("ACNTTGCA", counts, 8) == "ACNTTGCA"
    assert _corrected("ACNTTGCA", counts | {"ACCTTGCA": 3}, 8) == "ACCTTGCA"


@pytest.mark.parametrize("k", [5, 7])
def test_dense_spectrum_ranking_matches_the_oracle(k):
    # half of all k-mers are solid at solid_min 1, with counts 1-3, so most
    # weak windows have several solid neighbours, many of them tied
    rng = random.Random(k)
    kmers = ["".join(p) for p in itertools.product("ACGT", repeat=k)]
    counts = {kmer: rng.randint(1, 3) for kmer in rng.sample(kmers, len(kmers) // 2)}
    spectrum = spectrum_of(counts, k)
    reads = _messy_reads(rng, generate_genome(400, seed=k), 150)
    for max_edits in (1, 2, 3):
        config = KSpectrumConfig(k, solid_min=1, max_edits=max_edits)
        fixed = kspectrum_correct(reads, config, spectrum=spectrum)
        for read, got in zip(reads, fixed):
            want = oracle_correct_read(read, k, 1, max_edits, counts)
            assert got.sequence == want.sequence


@pytest.mark.parametrize("k", [7, 8, 9])
def test_the_offsets_either_side_of_the_split_are_fixed(k):
    window = "ACGTTGCAT"[:k]
    h = k // 2
    for p in (h - 1, h):
        fixed = window[:p] + ("A" if window[p] != "A" else "C") + window[p + 1 :]
        assert _corrected(window, {fixed: 5}, k) == fixed
        assert _corrected(window + "GG", {fixed: 5}, k) == fixed + "GG"


@pytest.mark.parametrize("k", [1, 2, 8, 32])
def test_a_spectrum_with_no_solid_kmer_changes_nothing(k):
    window = ("ACGTTGCA" * 4)[:k]
    assert _corrected(window + "C", {}, k) == window + "C"
    near = "C" + window[1:] if window[0] != "C" else "A" + window[1:]
    assert _corrected(window, {near: 2}, k) == window
    assert _corrected("N" + window, {near: 2}, k) == "N" + window


def test_explicit_spectrum_must_be_a_kmer_spectrum_of_the_same_k():
    rs = ReadSet((Read("r", "NAACAAA"),))
    config = KSpectrumConfig(k=3, solid_min=1)
    for spectrum in ({"AAA": 5}, kmer_spectrum(rs, 4)):
        with pytest.raises(ValueError, match="must be a KmerSpectrum of k=3"):
            kspectrum_correct(rs, config, spectrum=spectrum)
    fixed = kspectrum_correct(rs, config, spectrum=spectrum_of({"AAA": 5}, 3))
    assert fixed[0].sequence == "AAAAAAA"


def test_malformed_explicit_spectra_are_refused():
    good = spectrum_of({"AAA": 5, "ACA": 4, "TTT": 3}, 3)
    codes, counts = good.codes, good.counts
    cases = [
        (codes[::-1], counts[::-1], "strictly ascending"),
        (codes[[0, 0, 1]], counts, "strictly ascending"),
        (codes, counts[:2], "of one length"),
        (codes.reshape(1, 3), counts.reshape(1, 3), "must be flat"),
        (np.append(codes[:2], np.uint64(64)), counts, "code 64 is not a 3-mer"),
        (codes, np.array([5, 0, 3]), "at least 1"),
        (codes.astype(np.int64), counts, "flat uint64"),
        (codes, counts.astype(float), "counts integers"),
    ]
    rs = ReadSet((Read("r", "ACAAT"),))
    for bad_codes, bad_counts, message in cases:
        with pytest.raises(ValueError, match=message):
            kspectrum_correct(rs, KSpectrumConfig(3, 1, 1), KmerSpectrum(3, bad_codes, bad_counts))
    with pytest.raises(ValueError, match="limit of 32"):
        KmerSpectrum(33, codes, counts)
    fixed = kspectrum_correct(rs, KSpectrumConfig(3, 3, 1), good)
    assert fixed[0] == oracle_correct_read(rs[0], 3, 3, 1, as_dict(good))
    top = KmerSpectrum(32, np.array([2**64 - 1], np.uint64), np.array([1]))
    top.check()


def test_kmer_spectrum_is_sorted_codes_and_counts():
    rs = ReadSet((Read("a", "ACGTACGA"), Read("b", "ACGT")))
    spec = kmer_spectrum(rs, 4)
    assert spec.k == 4
    assert spec.codes.dtype == np.uint64 and spec.counts.dtype == np.int64
    assert np.all(spec.codes[1:] > spec.codes[:-1])
    assert len(spec) == 5
    assert spec.values() == [1, 2, 1, 1, 1]
    assert all(type(c) is int for c in spec.values())
    assert as_dict(spec) == {"ACGA": 1, "ACGT": 2, "CGTA": 1, "GTAC": 1, "TACG": 1}
    # arrays make field-wise equality ambiguous, so a spectrum is only itself
    assert KmerSpectrum.__eq__ is object.__eq__
    empty = kmer_spectrum(ReadSet((Read("s", "AC"),)), 4)
    assert len(empty) == 0 and empty.values() == []


def test_single_error_is_restored_against_deep_spectrum():
    window = "ACGTTGCAACGGTCAATCGGTACATTGCAC"
    clean = [Read(f"c{i}", window) for i in range(30)]
    errored = Read("e", window[:12] + "G" + window[13:])
    assert errored.sequence != window
    rs = ReadSet(tuple(clean + [errored]))
    fixed = kspectrum_correct(rs, KSpectrumConfig(k=5, solid_min=3, max_edits=2))
    assert fixed[30].sequence == window
    assert [r.sequence for r in fixed.reads[:30]] == [window] * 30


def test_all_solid_data_is_unchanged():
    window = "ACGTTGCAACGGTCAATCGGTACATTGCAC"
    rs = ReadSet(tuple(Read(f"c{i}", window) for i in range(10)))
    fixed = kspectrum_correct(rs, KSpectrumConfig(k=7, solid_min=3, max_edits=2))
    assert [r.sequence for r in fixed] == [r.sequence for r in rs]


def test_max_edits_caps_corrections():
    # an all-A truth with three C errors; the explicit spectrum leaves the
    # corrector exactly one solid replacement per broken window
    bad = "AACAAAAAACAAAAAACAAA"
    rs = ReadSet((Read("e", bad),))
    spectrum = spectrum_of({"AAAAA": 10}, 5)

    capped = kspectrum_correct(
        rs, KSpectrumConfig(k=5, solid_min=3, max_edits=2), spectrum=spectrum
    )
    assert capped[0].sequence == "AAAAAAAAAAAAAAAACAAA"

    untouched = kspectrum_correct(
        rs, KSpectrumConfig(k=5, solid_min=3, max_edits=0), spectrum=spectrum
    )
    assert untouched[0].sequence == bad

    full = kspectrum_correct(
        rs, KSpectrumConfig(k=5, solid_min=3, max_edits=5), spectrum=spectrum
    )
    assert full[0].sequence == "A" * 20


def test_tie_breaks_choose_lexicographically_smallest():
    rs = ReadSet((Read("r", "AAA"),))
    spectrum = spectrum_of({"AAC": 5, "CAA": 5}, 3)
    fixed = kspectrum_correct(rs, KSpectrumConfig(k=3, solid_min=3), spectrum=spectrum)
    assert fixed[0].sequence == "AAC"

    spectrum = spectrum_of({"AAC": 5, "CAA": 9}, 3)
    fixed = kspectrum_correct(rs, KSpectrumConfig(k=3, solid_min=3), spectrum=spectrum)
    assert fixed[0].sequence == "CAA"


def test_reads_shorter_than_k_pass_through():
    rs = ReadSet((Read("s", "ACGT"),))
    fixed = kspectrum_correct(rs, KSpectrumConfig(k=9, solid_min=2))
    assert fixed[0].sequence == "ACGT"


def test_correction_is_thread_invariant():
    genome = generate_genome(3000, seed=3)
    clean = sample_clean_reads(genome, 400, 50, seed=4)
    rs, _ = inject_readset(clean, InjectionSpec("substitution", "low", seed=5))
    cfg = KSpectrumConfig(k=13, solid_min=3, max_edits=2)
    seq = kspectrum_correct(rs, cfg)
    par = kspectrum_correct(rs, cfg)
    assert [r.sequence for r in seq] == [r.sequence for r in par]


def test_builtin_corrector_improves_gain_on_synthetic_data():
    genome = generate_genome(20_000, seed=6)
    clean = sample_clean_reads(genome, 8000, 50, seed=7)
    corrupted, _ = inject_readset(clean, InjectionSpec("substitution", "low", seed=8))
    corrector = builtin_corrector(solid_min=3, max_edits=2)
    fixed = corrector(corrupted, 15)
    assert ec_gain(corrupted, fixed, clean) > 0.4


@pytest.fixture(scope="module")
def n_and_subst_high_reads():
    """The golden scenario's reads (3 000 clean reads of a 6 kb genome and
    60 holding one or two N), with substitutions at the high rate."""
    genome = generate_genome(6_000, seed=91)
    reads = list(sample_clean_reads(genome, 3_000, 50, seed=92))
    for i in range(60):
        seq = genome[97 * i : 97 * i + 50]
        at = (13 * i) % 50
        seq = seq[:at] + "N" * (1 + i % 2) + seq[at + 1 + i % 2 :]
        reads.append(Read(f"n{i}", seq[:50]))
    noisy, _ = inject_readset(ReadSet(reads), InjectionSpec("substitution", "high", 93))
    return noisy


@pytest.mark.parametrize("k", [1, 2, *range(9, 26), 31, 32])
def test_a_sample_against_the_whole_spectrum_is_its_rows_of_the_whole_correction(
    n_and_subst_high_reads, k
):
    # each read is corrected on its own against the spectrum, so a held-out
    # sample needs no correction run of its own
    reads = n_and_subst_high_reads
    rows = np.sort(np.random.default_rng(k).choice(len(reads), 600, replace=False))
    spectrum = kmer_spectrum(reads, k)
    for solid_min in (1, 2, 3):
        config = KSpectrumConfig(k=k, solid_min=solid_min)
        whole = kspectrum_correct(reads, config)
        sample = kspectrum_correct(reads.take(rows), config, spectrum=spectrum)
        assert np.array_equal(sample.codes, whole.take(rows).codes), solid_min


def test_ec_gain_hand_cases():
    orig = ReadSet((Read("r", "ACGT"),))
    truth = ReadSet((Read("r", "AAGT"),))
    assert ec_gain(orig, ReadSet((Read("r", "AAGT"),)), truth) == 1.0
    assert ec_gain(orig, ReadSet((Read("r", "ACGT"),)), truth) == 0.0
    # one error untouched plus one good base broken: (0 - 1) / 1
    assert ec_gain(orig, ReadSet((Read("r", "ACGA"),)), truth) == -1.0
    # fix the error but break a good base: (1 - 1) / 1
    assert ec_gain(orig, ReadSet((Read("r", "AAGA"),)), truth) == 0.0


def test_ec_gain_matches_base_by_base_count():
    rng = random.Random(9)
    genome = generate_genome(300, seed=9)
    truth = _messy_reads(rng, genome, 60)

    def mutate(rs):
        return ReadSet(tuple(
            Read(r.id, "".join(
                rng.choice("ACGTN") if rng.random() < 0.1 else ch
                for ch in r.sequence
            ))
            for r in rs
        ))

    original = mutate(truth)
    corrected = mutate(original)
    tp, fp, errors = oracle_gain_counts(original, corrected, truth)
    assert ec_gain(original, corrected, truth) == (tp - fp) / errors


def test_ec_gain_reports_the_first_misaligned_read():
    a = ReadSet((Read("r1", "ACGT"), Read("r2", "ACGT"), Read("r3", "ACGT")))
    long2 = ReadSet((Read("r1", "ACGT"), Read("r2", "ACGTT"), Read("x", "ACGT")))
    with pytest.raises(AlignmentError, match=r"read 'r2': lengths differ \(4/5/4\)"):
        ec_gain(a, long2, a)
    renamed2 = ReadSet((Read("r1", "ACGT"), Read("x", "ACGT"), Read("r3", "ACGTT")))
    with pytest.raises(AlignmentError, match="read id mismatch: 'r2' / 'r2' / 'x'"):
        ec_gain(a, a, renamed2)
    with pytest.raises(AlignmentError, match="counts differ: original 3, corrected 2"):
        ec_gain(a, ReadSet(a.reads[:2]), a)


def test_ec_gain_alignment_errors():
    a = ReadSet((Read("r", "ACGT"),))
    with pytest.raises(AlignmentError):
        ec_gain(a, a, ReadSet(()))
    with pytest.raises(AlignmentError):
        ec_gain(a, a, ReadSet((Read("other", "ACGT"),)))
    with pytest.raises(AlignmentError):
        ec_gain(a, a, ReadSet((Read("r", "ACGTT"),)))
    with pytest.raises(GainUndefinedError):
        ec_gain(a, a, a)


def test_adapter_template_validation():
    # the template's one tunable placeholder is the one the tool takes
    assert ToolAdapter("tool -i {input} -o {output} -k {k}").param_name == "k"
    with pytest.raises(ValueError):
        ToolAdapter("tool -i {input} -o {output}")
    for template in ("tool {input} {output} {k} {GL}", "tool {input} {output} {q}"):
        with pytest.raises(ValueError, match=r"exactly one of \{k\} and \{GL\}"):
            ToolAdapter(template)
    assert ToolAdapter("tool {input} {output} --gl {GL}").param_name == "GL"
    ToolAdapter("tool {input} {output} {k}", timeout=0.5)
    for timeout in (0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="timeout must be positive and finite"):
            ToolAdapter("tool {input} {output} {k}", timeout=timeout)


def test_identity_shell_adapter_round_trips(tmp_path, monkeypatch):
    monkeypatch.setenv("ATHENA_TMPDIR", str(tmp_path))
    adapter = ToolAdapter('sh -c "cp {input} {output} && : {k}"')
    rs = ReadSet((Read("r1", "ACGTACGT", "IIIIIIII"), Read("r2", "TTTTACGT")))
    out = run_external(adapter, 17, rs)
    assert [r.sequence for r in out] == [r.sequence for r in rs]
    assert [r.id for r in out] == ["r1", "r2"]
    # success removes the exchange directory
    assert [d for d in os.listdir(tmp_path) if d.startswith("ectuner-")] == []


def test_python_script_adapter_receives_parameter(tmp_path, monkeypatch):
    monkeypatch.setenv("ATHENA_TMPDIR", str(tmp_path))
    script = tmp_path / "fixer.py"
    script.write_text(
        "import sys\n"
        "inp, outp, k = sys.argv[1], sys.argv[2], int(sys.argv[3])\n"
        "assert k == 21\n"
        "lines = open(inp).read().splitlines()\n"
        "with open(outp, 'w') as fh:\n"
        "    for i in range(0, len(lines), 4):\n"
        "        fh.write(lines[i] + '\\n' + lines[i+1].replace('T', 'A') + '\\n')\n"
        "        fh.write('+\\n' + lines[i+3] + '\\n')\n"
    )
    adapter = ToolAdapter(f"{sys.executable} {script} {{input}} {{output}} {{k}}")
    rs = ReadSet((Read("r1", "TTTT"),))
    out = adapter_corrector(adapter)(rs, 21)
    assert out[0].sequence == "AAAA"


def test_adapter_failure_keeps_workdir_with_stderr(tmp_path, monkeypatch):
    monkeypatch.setenv("ATHENA_TMPDIR", str(tmp_path))
    adapter = ToolAdapter('sh -c "echo boom >&2; : {input} {output} {k}; exit 3"')
    rs = ReadSet((Read("r1", "ACGT"),))
    with pytest.raises(AdapterError) as err:
        run_external(adapter, 9, rs)
    msg = str(err.value)
    assert "exited with 3" in msg
    assert "boom" in msg
    kept = [d for d in os.listdir(tmp_path) if d.startswith("ectuner-")]
    assert len(kept) == 1
    assert (tmp_path / kept[0] / "stderr.txt").read_text().strip() == "boom"


def test_adapter_missing_output_is_an_error(tmp_path, monkeypatch):
    monkeypatch.setenv("ATHENA_TMPDIR", str(tmp_path))
    adapter = ToolAdapter('sh -c ": {input} {output} {k}"')
    rs = ReadSet((Read("r1", "ACGT"),))
    with pytest.raises(AdapterError) as err:
        run_external(adapter, 9, rs)
    assert "no output" in str(err.value)


@pytest.mark.parametrize(
    "output", ["echo garbage", "printf '\\\\377'"], ids=["text", "binary"]
)
def test_adapter_unreadable_output_is_an_error(tmp_path, monkeypatch, output):
    monkeypatch.setenv("ATHENA_TMPDIR", str(tmp_path))
    adapter = ToolAdapter(f'sh -c "{output} > {{output}}; : {{input}} {{k}}"')
    rs = ReadSet((Read("r1", "ACGT"),))
    with pytest.raises(AdapterError) as err:
        run_external(adapter, 9, rs)
    (kept,) = [d for d in os.listdir(tmp_path) if d.startswith("ectuner-")]
    assert f"unreadable (files kept in {tmp_path / kept})" in str(err.value)
    assert (tmp_path / kept / "output.fastq").exists()


def test_adapter_missing_binary_is_an_error(tmp_path, monkeypatch):
    monkeypatch.setenv("ATHENA_TMPDIR", str(tmp_path))
    adapter = ToolAdapter("definitely-not-a-real-tool {input} {output} {k}")
    rs = ReadSet((Read("r1", "ACGT"),))
    with pytest.raises(AdapterError) as err:
        run_external(adapter, 9, rs)
    (kept,) = [d for d in os.listdir(tmp_path) if d.startswith("ectuner-")]
    message = str(err.value)
    assert message.startswith("could not launch 'definitely-not-a-real-tool' ")
    assert f"(files kept in {tmp_path / kept}): " in message
    files = sorted(os.listdir(tmp_path / kept))
    assert files == ["input.fastq", "stderr.txt", "stdout.txt"]


def test_adapter_timeout_is_an_error(tmp_path, monkeypatch):
    monkeypatch.setenv("ATHENA_TMPDIR", str(tmp_path))
    adapter = ToolAdapter(
        'sh -c "sleep 5; cp {input} {output}; : {k}"', timeout=0.4
    )
    rs = ReadSet((Read("r1", "ACGT"),))
    with pytest.raises(AdapterError) as err:
        run_external(adapter, 9, rs)
    assert "timed out" in str(err.value)
