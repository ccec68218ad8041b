"""Scalar reference implementations used to cross-check the packed corrector.

These are the string-and-dict versions of ``ecsim.kmer_spectrum``,
``ecsim.kspectrum_correct`` and ``ecsim.ec_gain``, one read and one character
at a time, so a bug in the packed production code cannot hide in a shared
helper.  ``spectrum_of`` and ``as_dict`` carry a ``{k-mer: count}`` dict to a
``KmerSpectrum`` and back, through the word code of ``seqio``.
"""

from __future__ import annotations

import numpy as np

from ectuner.ecsim import KmerSpectrum
from ectuner.seqio import Read, ReadSet, encode_word

from seqio_oracles import decode_words

_ACGT = frozenset("ACGT")


def spectrum_of(counts: dict[str, int], k: int) -> KmerSpectrum:
    """The spectrum holding ``counts``, whose keys must be k-mers over ACGT."""
    for kmer in counts:
        if len(kmer) != k:
            raise ValueError(f"{kmer!r} is not a {k}-mer")
    codes = np.array([encode_word(kmer) for kmer in counts], np.uint64)
    values = np.array(list(counts.values()), np.int64)
    order = np.argsort(codes)
    return KmerSpectrum(k, codes[order], values[order])


def as_dict(spectrum: KmerSpectrum) -> dict[str, int]:
    """``spectrum`` as a ``{k-mer: count}`` dict."""
    return dict(zip(decode_words(spectrum.codes, spectrum.k), spectrum.values()))


def oracle_spectrum(readset: ReadSet, k: int) -> dict[str, int]:
    """Counts of every ACGT-only k-mer over all overlapping windows."""
    spectrum: dict[str, int] = {}
    for read in readset:
        seq = read.sequence
        for i in range(len(seq) - k + 1):
            kmer = seq[i : i + k]
            if _ACGT.issuperset(kmer):
                spectrum[kmer] = spectrum.get(kmer, 0) + 1
    return spectrum


def oracle_correct_read(
    read: Read, k: int, solid_min: int, max_edits: int, spectrum: dict[str, int]
) -> Read:
    """Scan left to right; at each insolid window apply the single-base
    replacement with the highest solid count (ties: smallest k-mer), at most
    ``max_edits`` times."""
    seq = read.sequence
    if len(seq) < k or max_edits == 0:
        return read
    edits = 0
    i = 0
    end = len(seq) - k
    while i <= end:
        kmer = seq[i : i + k]
        if spectrum.get(kmer, 0) >= solid_min:
            i += 1
            continue
        best_count = 0
        best_kmer = None
        best_pos = -1
        best_base = ""
        for p in range(k):
            cur = kmer[p]
            head, tail = kmer[:p], kmer[p + 1 :]
            for b in "ACGT":
                if b == cur:
                    continue
                cand = head + b + tail
                c = spectrum.get(cand, 0)
                if c < solid_min:
                    continue
                if c > best_count or (
                    c == best_count and best_kmer is not None and cand < best_kmer
                ):
                    best_count = c
                    best_kmer = cand
                    best_pos = i + p
                    best_base = b
        if best_kmer is not None:
            seq = seq[:best_pos] + best_base + seq[best_pos + 1 :]
            edits += 1
            if edits >= max_edits:
                break
        i += 1
    if edits == 0:
        return read
    return Read(read.id, seq, read.quality)


def oracle_gain_counts(
    original: ReadSet, corrected: ReadSet, truth: ReadSet
) -> tuple[int, int, int]:
    """(true positives, false positives, erroneous bases), base by base."""
    tp = fp = errors = 0
    for orig, corr, true in zip(original, corrected, truth):
        for o, c, t in zip(orig.sequence, corr.sequence, true.sequence):
            if o != t:
                errors += 1
                if c == t:
                    tp += 1
            elif c != t:
                fp += 1
    return tp, fp, errors


def oracle_neighbours(
    windows: list[str], spectrum: dict[str, int], solid_min: int
) -> set[tuple[int, int, str, int]]:
    """Every solid single-base replacement of each window, as (window, count,
    k-mer, offset): three bases at each offset, or the four at an N; a
    replacement that leaves an N is never solid."""
    found = set()
    for w, window in enumerate(windows):
        for p, cur in enumerate(window):
            for b in "ACGT":
                cand = window[:p] + b + window[p + 1 :]
                if b != cur and spectrum.get(cand, 0) >= solid_min:
                    found.add((w, spectrum[cand], cand, p))
    return found
