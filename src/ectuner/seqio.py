"""FASTQ/FASTA ingest, emission, seeded subsampling, and the base code.

Sequences are normalized to upper case on ingest and validated against the
alphabet {A, C, G, T, N}.  Files whose name ends in ``.gz`` are read and
written gzip-compressed (with a fixed mtime of 0 so identical content yields
identical bytes).

Every module that packs bases uses the one code here: A=0, C=1, G=2, T=3,
any other character 4.  A word of ACGT bases is the number its 2-bit codes
spell, first base most significant, so numeric order is string order.
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
LETTERS = np.frombuffer(BASES.encode("ascii"), np.uint8)  # code -> letter
# code point -> code, for code points up to 255; base_codes takes any
CODE_TABLE = np.full(256, 4, np.uint8)
CODE_TABLE[LETTERS] = np.arange(4)
ACGT = frozenset(BASES)
_CODE_CHUNK = 1 << 13
_BASE_DIGIT = str.maketrans(BASES, "0123")


class ParseError(ValueError):
    """Malformed sequence file."""


class FastqParseError(ParseError):
    pass


class FastaParseError(ParseError):
    pass


@dataclass(frozen=True)
class Read:
    """A single sequencing read.

    ``quality`` is optional; when present it must be exactly as long as the
    sequence.  Alphabet checks happen at the file boundary (parse/write), not
    here, so degenerate in-memory reads (e.g. fully deleted) stay usable.
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


@dataclass(frozen=True)
class ReadSet:
    """An ordered collection of reads with a provenance label."""

    reads: tuple[Read, ...]
    source: str = ""

    def __len__(self) -> int:
        return len(self.reads)

    def __iter__(self) -> Iterator[Read]:
        return iter(self.reads)

    def __getitem__(self, i: int) -> Read:
        return self.reads[i]


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


def pack_reads(readset: ReadSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every read's characters as code points end to end, each read followed
    by a newline (so no window spans two reads), with each read's start and
    length."""
    lengths = np.fromiter((len(r) for r in readset), np.int64, len(readset))
    starts = np.cumsum(lengths + 1) - lengths - 1
    text = "".join(r.sequence + "\n" for r in readset)
    if text.isascii():
        return np.frombuffer(text.encode("ascii"), np.uint8), starts, lengths
    chars = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), "<u4")
    return chars, starts, lengths


def base_codes(chars: np.ndarray) -> np.ndarray:
    """The base code of every code point in ``chars``, as ``pack_reads``
    gives them; a code point above 255 is never a base, so it gets 4.  The
    table lookup runs a chunk at a time, so ``take``'s 8-byte copy of its
    index stays a fixed size however long ``chars`` is."""
    out = np.empty(len(chars), np.uint8)
    for start in range(0, len(chars), _CODE_CHUNK):
        chunk = chars[start : start + _CODE_CHUNK]
        if chars.dtype != np.uint8:
            chunk = np.minimum(chunk, 255)
        CODE_TABLE.take(chunk, out=out[start : start + _CODE_CHUNK])
    return out


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
    return ReadSet(tuple(iter_fastq(path)), source=path)


def read_fasta(path: str) -> ReadSet:
    return ReadSet(tuple(iter_fasta(path)), source=path)


def load_reads(path: str) -> ReadSet:
    """Load a read file, picking the format from the file name."""
    base = path[:-3] if path.endswith(".gz") else path
    if base.endswith((".fa", ".fasta", ".fna")):
        return read_fasta(path)
    return read_fastq(path)


def write_fastq(reads: Iterable[Read], path: str) -> None:
    """Write FASTQ; reads without quality get a constant 'I' string."""
    with _open_text(path, "w") as fh:
        for r in reads:
            qual = r.quality if r.quality is not None else "I" * len(r.sequence)
            fh.write(f"@{r.id}\n{r.sequence}\n+\n{qual}\n")


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
    rng = make_rng(seed)
    keep = sample_indices(rng, len(readset), n)
    return ReadSet(
        tuple(readset.reads[i] for i in keep),
        source=f"{readset.source}|sample:{n}:{seed}",
    )
