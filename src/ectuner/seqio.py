"""FASTQ/FASTA ingest, emission, seeded subsampling, and the packed read set.

Sequences are normalized to upper case on ingest and validated against the
alphabet {A, C, G, T, N}.  Files whose name ends in ``.gz`` are read and
written gzip-compressed (with a fixed mtime of 0 so identical content yields
identical bytes).

A ``ReadSet`` keeps its reads packed: one flat ``uint8`` array of base codes
(A=0, C=1, G=2, T=3, N=4), read after read, with a code-4 separator after
each so no window spans two reads, and each read's start and length.  Other
modules read these arrays; this one alone builds them or turns codes back
into text.  A word of ACGT bases is the number its 2-bit codes spell, first
base most significant, so numeric order is string order.
"""

from __future__ import annotations

import gzip
import io
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from ._rng import make_rng, sample_indices

BASES = "ACGT"
VALID_CHARS = frozenset(BASES + "N")
LETTERS = np.frombuffer(b"ACGTN", np.uint8)  # code -> letter
# byte -> code, anything but ACGT 4; and code -> letter, with 5 a line break
CODE_TABLE = bytes(BASES.find(chr(b)) if chr(b) in BASES else 4 for b in range(256))
_TEXT = bytes.maketrans(bytes(range(6)), b"ACGTN\n")
ACGT = frozenset(BASES)
_ROW_BLOCK = 4096  # reads decoded at a time
_BASE_DIGIT = str.maketrans(BASES, "0123")


class ParseError(ValueError):
    """Malformed sequence file."""


class FastqParseError(ParseError):
    pass


class FastaParseError(ParseError):
    pass


@dataclass(frozen=True, slots=True)
class Read:
    """A single sequencing read.

    ``quality`` is optional; when present it must be exactly as long as the
    sequence.  Alphabet checks happen when reads are parsed or packed into a
    ``ReadSet``, not here; an empty sequence (a fully deleted read) is valid.
    """

    id: str
    sequence: str
    quality: str | None = None

    def __post_init__(self) -> None:
        if self.quality is not None and len(self.quality) != len(self.sequence):
            raise ValueError(
                f"read {self.id!r}: quality length {len(self.quality)} "
                f"!= sequence length {len(self.sequence)}"
            )

    def __len__(self) -> int:
        return len(self.sequence)


class ReadSet:
    """Reads packed as the module docstring lays out: ``codes``, ``starts``
    and ``lengths``, with each read's ``ids`` and ``qualities`` (None for a
    read without one).  ``ReadSet(reads)`` packs ``Read`` objects once and
    refuses any character outside ACGTN; iterating, indexing and ``reads``
    make ``Read`` objects back from the arrays."""

    def __init__(self, reads: Iterable[Read] = ()) -> None:
        ids, seqs, quals = [], [], []
        for read in reads:
            ids.append(read.id)
            seqs.append(read.sequence)
            quals.append(read.quality)
        lengths = np.fromiter(map(len, seqs), np.int64, len(seqs))
        starts = np.cumsum(lengths + 1) - lengths - 1
        # N is code 4, so it serves as the separator
        text = ("N".join(seqs) + "N" if seqs else "").encode("ascii", "replace")
        if text.translate(None, b"ACGTN"):
            row = next(i for i, s in enumerate(seqs) if set(s) - VALID_CHARS)
            raise ValueError(
                f"read {ids[row]!r} contains characters outside ACGTN: "
                f"{sorted(set(seqs[row]) - VALID_CHARS)}"
            )
        codes = np.frombuffer(text.translate(CODE_TABLE), np.uint8)
        self._set(codes, starts, lengths, tuple(ids), tuple(quals))

    def _set(self, codes, starts, lengths, ids, qualities) -> "ReadSet":
        for array in (codes, starts, lengths):
            array.flags.writeable = False  # shared between sets
        self.codes, self.starts, self.lengths = codes, starts, lengths
        self.ids, self.qualities = ids, qualities
        return self

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int) -> Read:
        return self.take([range(len(self))[i]]).reads[0]

    def __iter__(self) -> Iterator[Read]:
        return (Read(*row) for block in self._blocks() for row in zip(*block))

    @property
    def reads(self) -> tuple[Read, ...]:
        return tuple(self)

    def _blocks(self) -> Iterator[tuple[tuple, list[str], tuple]]:
        """Ids, sequences and qualities, decoded ``_ROW_BLOCK`` reads at a time."""
        for first in range(0, len(self), _ROW_BLOCK):
            rows = slice(first, first + _ROW_BLOCK)
            start = self.starts[first]
            ends = self.starts[rows] + self.lengths[rows]  # the separators
            chars = self.codes[start : ends[-1] + 1].copy()
            chars[ends - start] = 5
            seqs = chars.tobytes().translate(_TEXT).decode("ascii").split("\n")
            yield self.ids[rows], seqs[:-1], self.qualities[rows]

    def take(self, rows) -> "ReadSet":
        """The reads at ``rows``, in that order."""
        rows = np.asarray(rows, np.intp)
        lengths = self.lengths[rows]
        starts = np.cumsum(lengths + 1) - lengths - 1
        # each read's codes and its separator, moved from its old start
        moved = np.repeat(self.starts[rows] - starts, lengths + 1)
        codes = self.codes[moved + np.arange(len(moved))]
        picked = rows.tolist()
        ids = tuple(self.ids[i] for i in picked)
        quals = tuple(self.qualities[i] for i in picked)
        return object.__new__(ReadSet)._set(codes, starts, lengths, ids, quals)

    def with_codes(self, codes: np.ndarray) -> "ReadSet":
        """These reads with ``codes``, in the same layout, as their bases."""
        return object.__new__(ReadSet)._set(
            codes, self.starts, self.lengths, self.ids, self.qualities
        )

    def changed_reads(self, other: "ReadSet") -> int:
        """How many reads differ in sequence from the read at the same
        position of ``other``, over the positions both sets have."""
        n = min(len(self), len(other))
        a, b = self, other
        if len(a) != len(b) or not np.array_equal(a.lengths, b.lengths):
            rows = np.flatnonzero(a.lengths[:n] == b.lengths[:n])
            a, b = a.take(rows), b.take(rows)
        same = np.logical_and.reduceat(a.codes == b.codes, a.starts) if len(a) else ()
        return n - int(np.count_nonzero(same))


def encode_word(word: str) -> int:
    """The code of an ACGT word (0 for the empty word)."""
    if not ACGT.issuperset(word):
        raise ValueError(f"word {word!r} contains characters outside ACGT")
    return int(word.translate(_BASE_DIGIT) or "0", 4)


def decode_words(codes, length: int) -> Iterator[str]:
    """The words of ``length`` bases that ``codes`` encode, in order."""
    shifts = np.arange(2 * length - 2, -1, -2, dtype=np.uint64)
    codes = np.asarray(codes, np.uint64)
    for start in range(0, len(codes), 4096):
        chunk = (codes[start : start + 4096, None] >> shifts) & 3
        text = LETTERS[chunk].tobytes().decode("ascii")
        yield from (text[i : i + length] for i in range(0, len(text), length))


def base_codes(chars: np.ndarray) -> np.ndarray:
    """The base code of every byte in the ``uint8`` array ``chars``."""
    return np.frombuffer(chars.tobytes().translate(CODE_TABLE), np.uint8)


def _open_text(path: str, mode: str):
    if path.endswith(".gz"):
        if "r" in mode:
            return io.TextIOWrapper(gzip.open(path, "rb"))
        # mtime pinned to 0 and FNAME suppressed so identical content always
        # yields identical bytes, independent of write time and path
        raw = open(path, "wb")
        return io.TextIOWrapper(
            gzip.GzipFile(filename="", fileobj=raw, mode="wb", mtime=0)
        )
    return open(path, mode)


def _check_sequence(seq: str, read_id: str, lineno: int, exc: type[ParseError]) -> str:
    seq = seq.upper()
    bad = set(seq) - VALID_CHARS
    if bad:
        raise exc(
            f"line {lineno}: read {read_id!r} contains invalid characters "
            f"{sorted(bad)} (allowed: A, C, G, T, N)"
        )
    if not seq:
        raise exc(f"line {lineno}: read {read_id!r} has an empty sequence")
    return seq


def iter_fastq(path: str) -> Iterator[Read]:
    """Stream reads from a 4-line-per-record FASTQ file."""
    with _open_text(path, "r") as fh:
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
            seq = seq.rstrip("\n")
            qual = qual.rstrip("\n")
            if not plus.startswith("+"):
                raise FastqParseError(
                    f"line {lineno - 1}: expected '+' separator for read {read_id!r}"
                )
            seq = _check_sequence(seq, read_id, lineno - 2, FastqParseError)
            if len(qual) != len(seq):
                raise FastqParseError(
                    f"line {lineno}: read {read_id!r} quality length {len(qual)} "
                    f"!= sequence length {len(seq)}"
                )
            yield Read(read_id, seq, qual)


def iter_fasta(path: str) -> Iterator[Read]:
    """Stream reads from a FASTA file; wrapped sequence lines are joined."""
    with _open_text(path, "r") as fh:
        read_id: str | None = None
        start_line = 0
        parts: list[str] = []
        lineno = 0
        for line in fh:
            lineno += 1
            line = line.rstrip("\n")
            if line.startswith(">"):
                if read_id is not None:
                    seq = _check_sequence(
                        "".join(parts), read_id, start_line, FastaParseError
                    )
                    yield Read(read_id, seq)
                words = line[1:].split()
                read_id = words[0] if words else ""
                if not read_id:
                    raise FastaParseError(f"line {lineno}: empty record id")
                start_line = lineno
                parts = []
            elif read_id is None:
                raise FastaParseError(
                    f"line {lineno}: sequence data before any '>' header"
                )
            else:
                parts.append(line.strip())
        if read_id is not None:
            seq = _check_sequence("".join(parts), read_id, start_line, FastaParseError)
            yield Read(read_id, seq)


def read_fastq(path: str) -> ReadSet:
    return ReadSet(iter_fastq(path))


def read_fasta(path: str) -> ReadSet:
    return ReadSet(iter_fasta(path))


def load_reads(path: str) -> ReadSet:
    """Load a read file, picking the format from the file name."""
    base = path[:-3] if path.endswith(".gz") else path
    if base.endswith((".fa", ".fasta", ".fna")):
        return read_fasta(path)
    return read_fastq(path)


def write_fastq(reads: Iterable[Read], path: str) -> None:
    """Write FASTQ; reads without quality get a constant 'I' string."""
    readset = reads if isinstance(reads, ReadSet) else ReadSet(reads)
    with _open_text(path, "w") as fh:
        for ids, seqs, quals in readset._blocks():
            fh.write("".join([
                f"@{read_id}\n{seq}\n+\n{'I' * len(seq) if qual is None else qual}\n"
                for read_id, seq, qual in zip(ids, seqs, quals)
            ]))


def write_fasta(reads: Iterable[Read], path: str, width: int = 70) -> None:
    with _open_text(path, "w") as fh:
        for r in reads:
            fh.write(f">{r.id}\n")
            for i in range(0, len(r.sequence), width):
                fh.write(r.sequence[i : i + width] + "\n")


def sample_reads(readset: ReadSet, n: int, seed: int) -> ReadSet:
    """Uniform sample of ``n`` reads without replacement, in ingest order.

    ``n`` greater than the population returns the whole set unchanged.
    """
    if n < 0:
        raise ValueError(f"sample size must be >= 0, got {n}")
    if n >= len(readset):
        return readset
    return readset.take(sample_indices(make_rng(seed), len(readset), n))
