"""Record-by-record reference for FASTQ parsing: the reader that
``ectuner.seqio.read_fastq`` replaced with chunked parsing.

It reads four lines per record, upper-cases each sequence and checks every
record on its own, its quality characters last, so its ids, sequences, qualities and the type, message
and line number of each error are what the chunked parser must give.
``as_packed`` gives the reads a ``ReadSet`` of them holds, ``decode_words``
turns word codes back into text for the tests, and
``write_fasta`` writes the FASTA files they read, which ``ectuner`` itself
does not write.
"""

from __future__ import annotations

import gzip
from typing import Iterator

import numpy as np

from ectuner import seqio
from ectuner.seqio import LETTERS, FastqParseError, Read

_VALID = frozenset("ACGTN")
_PHRED = frozenset(map(chr, range(33, 127)))


def _open(path: str):
    return gzip.open(path, "rt") if path.endswith(".gz") else open(path)


def iter_fastq(path: str) -> Iterator[Read]:
    """Stream reads from a 4-line-per-record FASTQ file."""
    with _open(path) as fh:
        lineno = 0
        while True:
            header = fh.readline()
            if not header:
                return
            lineno += 1
            header = header.rstrip("\n")
            if not header.startswith("@"):
                raise FastqParseError(
                    f"line {lineno}: expected '@' header, got {header[:40]!r}"
                )
            words = header[1:].split()  # none for a blank id
            read_id = words[0] if words else ""
            if not read_id:
                raise FastqParseError(f"line {lineno}: empty read id")
            seq = fh.readline()
            plus = fh.readline()
            qual = fh.readline()
            if not qual:
                raise FastqParseError(
                    f"line {lineno}: truncated record for read {read_id!r}"
                )
            lineno += 3
            seq = seq.rstrip("\n").upper()
            qual = qual.rstrip("\n")
            if not plus.startswith("+"):
                raise FastqParseError(
                    f"line {lineno - 1}: expected '+' separator for read {read_id!r}"
                )
            bad = set(seq) - _VALID
            if bad:
                raise FastqParseError(
                    f"line {lineno - 2}: read {read_id!r} contains invalid characters "
                    f"{sorted(bad)} (allowed: A, C, G, T, N)"
                )
            if not seq:
                raise FastqParseError(
                    f"line {lineno - 2}: read {read_id!r} has an empty sequence"
                )
            if len(qual) != len(seq):
                raise FastqParseError(
                    f"line {lineno}: read {read_id!r} quality length {len(qual)} "
                    f"!= sequence length {len(seq)}"
                )
            bad = set(qual) - _PHRED
            if bad:
                raise FastqParseError(
                    f"line {lineno}: read {read_id!r} has quality characters "
                    f"outside '!'..'~': {sorted(bad)}"
                )
            yield Read(read_id, seq, qual)


def as_packed(reads) -> tuple[Read, ...]:
    """``reads`` as a ``ReadSet`` of them gives them back: when any has a
    quality, each without one has the 'I's it is written with."""
    if all(r.quality is None for r in reads):
        return tuple(reads)
    return tuple(Read(r.id, r.sequence, "I" * len(r)) if r.quality is None else r
                 for r in reads)


def decode_words(codes, length: int) -> Iterator[str]:
    """The words of ``length`` bases that ``codes`` encode, in order."""
    shifts = np.arange(2 * length - 2, -1, -2, dtype=np.uint64)
    codes = np.asarray(codes, np.uint64)
    for start in range(0, len(codes), 4096):
        chunk = (codes[start : start + 4096, None] >> shifts) & 3
        text = LETTERS[chunk].tobytes().decode("ascii")
        yield from (text[i : i + length] for i in range(0, len(text), length))


def write_fasta(reads, path: str, width: int = 70) -> None:
    """FASTA of ``reads``, each sequence wrapped at ``width`` columns; a
    ``.gz`` path is gzip-compressed as ``write_fastq`` compresses it.  Reads
    the readers would not take back as they are are refused, before the
    file is opened, by the rule ``write_fastq`` applies."""
    readset = seqio._writable(reads)
    with seqio._writing(path) as fh:
        for r in readset:
            lines = [r.sequence[i : i + width] for i in range(0, len(r.sequence), width)]
            fh.write("\n".join([f">{r.id}", *lines, ""]).encode())
