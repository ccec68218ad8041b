"""The corrector's solid k-mer lookups against brute force.

``_SolidCounts.neighbours`` takes a window's solid single-base neighbours
from the runs of solid k-mers that share the window's head or its tail, or,
for a half whose run is long, from probes of the hash index; here it is
checked against every single-base replacement of the window, made one at a
time (``oracle_neighbours``).  ``_SolidCounts.index``, the
exact hash lookup, is checked against ``seqio.find_sorted``.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from ectuner import ecsim
from ectuner.ecsim import KSpectrumConfig, kspectrum_correct
from ectuner.seqio import Read, ReadSet, find_sorted

from ecsim_oracles import oracle_correct_read, oracle_neighbours, spectrum_of
from seqio_oracles import decode_words


def _code(window: str) -> int:
    """The window's code, an N read as A, as the corrector reads it."""
    return int(window.translate(str.maketrans("ACGTN", "01230")) or "0", 4)


def _solid(counts: dict[str, int], k: int, solid_min: int) -> ecsim._SolidCounts:
    spectrum = spectrum_of(counts, k)
    return ecsim._SolidCounts(spectrum.codes, spectrum.counts, solid_min, k)


def _neighbours(counts, k, solid_min, windows):
    """``neighbours`` of windows holding at most one N, as a set of
    (window, count, k-mer, offset), after checking none comes twice."""
    solid = _solid(counts, k, solid_min)
    kmers = np.array([_code(w) for w in windows], np.uint64)
    unknown = np.array([w.find("N") for w in windows], np.int64)
    w, count, code, j = solid.neighbours(kmers, unknown)
    got = list(zip(w.tolist(), count.tolist(), decode_words(code, k), j.tolist()))
    assert len(got) == len(set(got))
    return set(got)


def _replace(window: str, p: int, base: str) -> str:
    return window[:p] + base + window[p + 1 :]


def _cases(rng: random.Random, k: int, n: int):
    """``n`` windows of k bases, a third with one N, and a sparse spectrum:
    some single-base neighbours of each window (at the N, elsewhere, in
    both halves), some windows themselves and their N read as A, k-mers two
    bases away that share a head or a tail, and unrelated k-mers; counts
    1-6, so some sit below a threshold of 3."""
    windows, counts = [], {}

    def add(kmer):
        counts[kmer] = rng.randint(1, 6)

    for i in range(n):
        window = "".join(rng.choice("ACGT") for _ in range(k))
        if i % 4 == 0:
            add(window)  # a solid window, or one just below the threshold
        for _ in range(3):
            p = rng.randrange(k)
            add(_replace(window, p, rng.choice("ACGT")))
        if k >= 2:
            p, q = rng.sample(range(k), 2)
            add(_replace(_replace(window, p, "ACGT"[(_code(window[p]) + 1) % 4]),
                         q, "ACGT"[(_code(window[q]) + 1) % 4]))
        if i % 3 == 1:
            p = rng.choice(sorted({0, k // 2 - 1, k // 2, k - 1} - {-1}))
            add(_replace(window, p, "A"))
            add(_replace(window, p, "C"))
            window = _replace(window, p, "N")
        windows.append(window)
        add("".join(rng.choice("ACGT") for _ in range(k)))
    return windows, counts


@pytest.mark.parametrize("k", [1, 2, 3, 16, 17, 31, 32])
@pytest.mark.parametrize("solid_min", [1, 3])
def test_run_neighbours_match_brute_force_on_sparse_spectra(k, solid_min):
    windows, counts = _cases(random.Random(100 * k + solid_min), k, 300)
    want = oracle_neighbours(windows, counts, solid_min)
    assert _neighbours(counts, k, solid_min, windows) == want
    assert any(w.count("N") for w in windows) and want


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("solid_min", [1, 3])
def test_run_neighbours_match_brute_force_on_dense_spectra(k, solid_min):
    # every k-mer is in the spectrum, so every run is as long as it can be
    rng = random.Random(k)
    counts = {"".join(p): rng.randint(1, 6) for p in itertools.product("ACGT", repeat=k)}
    windows = ["".join(p) for p in itertools.product("ACGT", repeat=k)]
    windows += [_replace(w, rng.randrange(k), "N") for w in windows[::3]]
    want = oracle_neighbours(windows, counts, solid_min)
    assert _neighbours(counts, k, solid_min, windows) == want


@pytest.mark.parametrize("solid_min", [1, 3])
def test_long_runs_are_probed_and_match_brute_force(solid_min):
    # every 8-mer that starts AAAA or ends TTTT is in the spectrum: the head
    # runs of AAAA windows and the tail runs of TTTT windows hold 256 k-mers,
    # more than their halves' 13 flips, so those halves probe the index,
    # while the other halves of the same windows take their runs
    rng = random.Random(8)
    windows, counts = _cases(rng, 8, 200)
    for p in itertools.product("ACGT", repeat=4):
        counts["AAAA" + "".join(p)] = rng.randint(1, 6)
        counts["".join(p) + "TTTT"] = rng.randint(1, 6)
    windows += ["AAAA" + w[4:] for w in windows[::2]] + [w[:4] + "TTTT" for w in windows[::2]]
    want = oracle_neighbours(windows, counts, solid_min)
    assert _neighbours(counts, 8, solid_min, windows) == want
    assert any(w.startswith("AAAA") and "N" in w for w in windows)
    assert any(w.endswith("TTTT") and "N" in w for w in windows)


@pytest.mark.parametrize("cost", [0, 2**40])
@pytest.mark.parametrize("k", [1, 2, 5, 17, 32])
def test_every_half_probed_or_none_matches_brute_force(k, cost, monkeypatch):
    # cost 0 probes every half with a nonempty run; 2**40 probes none
    monkeypatch.setattr(ecsim, "_PROBE_COST", cost)
    windows, counts = _cases(random.Random(k), k, 200)
    dense = {"".join(p): 3 for p in itertools.product("ACGT", repeat=k)} if k <= 5 else {}
    counts = {**counts, **dense}
    assert _neighbours(counts, k, 3, windows) == oracle_neighbours(windows, counts, 3)


@pytest.mark.parametrize("block", [1, 7])
def test_run_neighbours_are_the_same_in_blocks_of_candidates(block, monkeypatch):
    windows, counts = _cases(random.Random(7), 17, 200)
    want = _neighbours(counts, 17, 2, windows)
    monkeypatch.setattr(ecsim, "_NEIGHBOUR_BLOCK", block)
    assert _neighbours(counts, 17, 2, windows) == want
    # every run of a dense spectrum is probed
    dense = {"".join(p): 3 for p in itertools.product("ACGT", repeat=5)}
    windows = ["ACGTA", "TTTTT", "NCGAC", "AANAG", "CATTN"]
    assert _neighbours(dense, 5, 3, windows) == oracle_neighbours(windows, dense, 3)


@pytest.mark.parametrize("k", [1, 2, 17, 32])
def test_an_empty_solid_set_has_no_neighbours_and_no_keys(k):
    windows, counts = _cases(random.Random(k), k, 30)
    assert _neighbours({}, k, 1, windows) == set()
    # every count below the threshold leaves the solid set empty too
    assert _neighbours({w: 1 for w in counts}, k, 2, windows) == set()
    solid = _solid({}, k, 1)
    assert solid.index(np.array([_code(w) for w in windows], np.uint64)).tolist() == [-1] * 30


@pytest.mark.parametrize("k", [1, 2, 3, 16, 17, 31, 32])
def test_windows_with_zero_one_and_two_n_are_corrected_as_the_oracle_does(k):
    # the corrector hands neighbours only windows with at most one N; a
    # window with two has no solid neighbour, which the oracle shows
    rng = random.Random(k)
    windows, counts = _cases(rng, k, 120)
    two = [_replace(w, rng.randrange(k), "N") for w in windows if "N" in w]
    reads = ReadSet(tuple(Read(f"r{i}", w) for i, w in enumerate(windows + two)))
    fixed = kspectrum_correct(reads, KSpectrumConfig(k, 3, 1), spectrum_of(counts, k))
    for read, got in zip(reads, fixed):
        assert got.sequence == oracle_correct_read(read, k, 3, 1, counts).sequence


def _index_matches_find_sorted(codes, queries):
    solid = ecsim._SolidCounts(codes, np.full(len(codes), 5, np.int64), 3, 32)
    assert np.array_equal(solid.index(queries), find_sorted(codes, queries))
    return solid


def test_hash_index_matches_find_sorted_on_random_codes_with_bit_63():
    rng = np.random.default_rng(1)
    codes = np.unique(rng.integers(0, 2**64, 50_000, np.uint64, endpoint=False))
    assert (codes >= 2**63).any() and (codes < 2**63).any()
    queries = np.concatenate((
        codes, codes ^ np.uint64(1), codes ^ np.uint64(2**63),
        rng.integers(0, 2**64, 50_000, np.uint64, endpoint=False),
        np.array([0, 2**63 - 1, 2**63, 2**64 - 1], np.uint64),
    ))
    rng.shuffle(queries)
    _index_matches_find_sorted(codes, queries)


def test_hash_index_finds_keys_pushed_past_a_shared_home():
    # keys chosen to share three neighbouring homes (and the last three of
    # the table, where a chain runs past its end), so most sit past theirs
    rng = np.random.default_rng(2)
    pool = np.unique(rng.integers(0, 2**64, 50_000, np.uint64, endpoint=False))
    probe = ecsim._SolidCounts(pool[:1], np.array([5]), 3, 32)
    home = probe._home(pool)
    size = len(probe.table) - probe.reach
    keys, absent = [], []
    for first in (300, size - 3):
        for h in range(first, first + 3):
            sharing = pool[home == h]
            keys.append(sharing[: len(sharing) // 2])
            absent.append(sharing[len(sharing) // 2 :])
    codes = np.sort(np.concatenate(keys))
    assert 4 * len(codes) < size  # the same table size as the probe's
    solid = _index_matches_find_sorted(
        codes, np.concatenate((codes, *absent, pool[:1000]))
    )
    assert solid.reach >= 10
    assert np.array_equal(solid._home(codes), probe._home(codes))
