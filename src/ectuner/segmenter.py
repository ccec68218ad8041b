"""Fixed-length word segmentation of reads.

A read is cut into consecutive non-overlapping words of ``word_len`` bases
starting at offset 0; a trailing partial word is dropped.  Words containing
N are excluded.  Consecutive kept words form runs; an excluded word breaks
the run, so downstream consumers can avoid conditioning across the gap.
Words are ``seqio.encode_word`` codes cut from a ``seqio.ReadSet``'s base
codes, flat with each word's read and run position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .seqio import ReadSet, spans


@dataclass(frozen=True)
class WordSequence:
    """The words of one read, grouped into gap-free runs."""

    read_id: str
    runs: tuple[tuple[str, ...], ...]
    skipped: int = 0

    @property
    def words(self) -> tuple[str, ...]:
        return tuple(w for run in self.runs for w in run)


class Words(NamedTuple):
    """The kept words of a read set, flat and in read order: each word's
    code, the index of its read and its position in its run (from 0)."""

    codes: np.ndarray
    read: np.ndarray
    pos: np.ndarray


def segment_reads(readset: ReadSet, word_len: int) -> Words:
    """The words of every read; a read shorter than ``word_len`` has none."""
    if word_len <= 0:
        raise ValueError(f"word length must be positive, got {word_len}")
    bases, starts, lengths = readset.codes, readset.starts, readset.lengths
    n_words = lengths // word_len
    row = np.repeat(np.arange(len(lengths)), n_words)  # each word's read
    at = spans(starts, n_words, word_len)
    codes = np.zeros(len(at), np.int64)
    kept = np.ones(len(at), bool)
    for j in range(word_len):
        column = bases[at + j]
        codes = (codes << 2) | (column & 3)
        kept &= column != 4
    # a run opens at each kept word that does not follow a kept word of its read
    opens = (kept & ~np.r_[False, kept[:-1] & (row[1:] == row[:-1])])[kept]
    run_start = np.flatnonzero(opens)
    pos = np.arange(len(opens)) - run_start[np.cumsum(opens) - 1]
    return Words(codes[kept], row[kept], pos)
