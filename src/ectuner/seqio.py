"""FASTQ/FASTA ingest, emission, seeded subsampling, and the packed read set.

Sequences are normalized to upper case on ingest and validated against the
alphabet {A, C, G, T, N}.  FASTQ is parsed a chunk of text at a time, every
record of a chunk checked at once; an error still names the line of the
first bad record.  Files whose name ends in ``.gz`` are read and
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
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._rng import Pcg64, sample_indices

BASES = "ACGT"
VALID_CHARS = frozenset(BASES + "N")
LETTERS = np.frombuffer(b"ACGTN", np.uint8)  # code -> letter
# byte -> code, anything but ACGT 4; and code -> letter, with 5 a line break
CODE_TABLE = bytes(BASES.find(chr(b)) if chr(b) in BASES else 4 for b in range(256))
_TEXT = bytes.maketrans(bytes(range(6)), b"ACGTN\n")
ACGT = frozenset(BASES)
_ROW_BLOCK = 4096  # reads decoded or gathered at a time
_CHUNK = 1 << 18  # characters of FASTQ text parsed at a time
# byte -> code of a FASTQ sequence letter, either case; 255 for anything else
_FASTQ_CODES = bytes(
    "ACGTNacgtn".index(chr(b)) % 5 if chr(b) in "ACGTNacgtn" else 255
    for b in range(256)
)
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
    refuses any character outside ACGTN; ``ReadSet.packed`` takes codes
    already packed.  Iterating, indexing and ``reads`` make ``Read`` objects
    back from the arrays."""

    def __init__(self, reads: Iterable[Read] = ()) -> None:
        ids, seqs, quals = [], [], []
        for read in reads:
            ids.append(read.id)
            seqs.append(read.sequence)
            quals.append(read.quality)
        lengths = np.fromiter(map(len, seqs), np.int64, len(seqs))
        # N is code 4, so it serves as the separator
        text = ("N".join(seqs) + "N" if seqs else "").encode("ascii", "replace")
        if text.translate(None, b"ACGTN"):
            _refuse_letters(ids, seqs)
        codes = np.frombuffer(text.translate(CODE_TABLE), np.uint8)
        self._set(codes, _starts(lengths), lengths, tuple(ids), tuple(quals))

    @classmethod
    def packed(cls, codes, lengths, ids, qualities=None) -> "ReadSet":
        """Reads from their codes in the packed layout, each read followed by
        its code-4 separator: flat, or one row per read when all reads have
        the same length.  ``qualities`` None gives every read none."""
        codes = np.ascontiguousarray(codes, np.uint8).reshape(-1)
        lengths = np.asarray(lengths, np.int64)
        ids = tuple(ids)
        starts = _starts(lengths)
        if (
            len(ids) != len(lengths)
            or len(codes) != int(lengths.sum()) + len(lengths)
            or codes.max(initial=0) > 4
            or (codes[starts + lengths] != 4).any()
        ):
            raise ValueError("codes, lengths and ids do not describe packed reads")
        qualities = (None,) * len(ids) if qualities is None else tuple(qualities)
        return object.__new__(cls)._set(codes, starts, lengths, ids, qualities)

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
        """The reads at ``rows``, in that order, gathered ``_ROW_BLOCK`` at
        a time so the gather index stays small."""
        rows = np.asarray(rows, np.intp)
        lengths = self.lengths[rows]
        starts = _starts(lengths)
        codes = np.empty(int(lengths.sum()) + len(rows), np.uint8)
        ids, quals = [], []
        for first in range(0, len(rows), _ROW_BLOCK):
            block = slice(first, first + _ROW_BLOCK)
            picked = rows[block]
            # each read's codes and its separator, from its old start
            at = spans(self.starts[picked], lengths[block] + 1)
            codes[starts[first] : starts[first] + len(at)] = self.codes[at]
            picked = picked.tolist()
            ids += map(self.ids.__getitem__, picked)
            quals += map(self.qualities.__getitem__, picked)
        return object.__new__(ReadSet)._set(
            codes, starts, lengths, tuple(ids), tuple(quals)
        )

    def with_codes(self, codes: np.ndarray) -> "ReadSet":
        """These reads with ``codes``, in the same layout, as their bases."""
        return object.__new__(ReadSet)._set(
            codes, self.starts, self.lengths, self.ids, self.qualities
        )

    def differing(self, other: "ReadSet") -> np.ndarray:
        """Whether each read differs in sequence from the read at the same
        position of ``other``, a set of the same starts and lengths."""
        if not len(self):
            return np.zeros(0, bool)
        return ~np.logical_and.reduceat(self.codes == other.codes, self.starts)

    def changed_reads(self, other: "ReadSet") -> int:
        """How many reads differ in sequence from the read at the same
        position of ``other``, over the positions both sets have."""
        n = min(len(self), len(other))
        a, b = self, other
        if len(a) != len(b) or not np.array_equal(a.lengths, b.lengths):
            rows = np.flatnonzero(a.lengths[:n] == b.lengths[:n])
            a, b = a.take(rows), b.take(rows)
        return n - len(a) + int(np.count_nonzero(a.differing(b)))


def _starts(lengths: np.ndarray) -> np.ndarray:
    """Where each read of ``lengths`` starts, with a separator after each."""
    return np.cumsum(lengths + 1) - lengths - 1


def _refuse_letters(ids: Iterable[str], seqs: Iterable[str]) -> None:
    """Raise for the first of ``seqs`` holding a character outside ACGTN."""
    for read_id, seq in zip(ids, seqs):
        bad = set(seq) - VALID_CHARS
        if bad:
            raise ValueError(
                f"read {read_id!r} contains characters outside ACGTN: {sorted(bad)}"
            )


def substrings(text: str, starts: np.ndarray, length: int, ids) -> ReadSet:
    """The reads of ``length`` characters of ``text`` at ``starts``, named
    ``ids``, gathered straight into the packed layout.  A read holding a
    character outside ACGTN is refused as ``ReadSet(reads)`` refuses it."""
    raw = text.encode("ascii", "replace")  # one byte per character
    if raw.translate(None, b"ACGTN"):
        _refuse_letters(ids, (text[s : s + length] for s in starts.tolist()))
    # one spare code, so the window at the last start has room for a separator
    codes = np.frombuffer(raw.translate(CODE_TABLE) + b"\4", np.uint8)
    block = sliding_window_view(codes, length + 1)[starts]
    block[:, length] = 4
    return ReadSet.packed(block, np.full(len(starts), length), ids)


def encode_word(word: str) -> int:
    """The code of an ACGT word (0 for the empty word)."""
    if not ACGT.issuperset(word):
        raise ValueError(f"word {word!r} contains characters outside ACGT")
    return int(word.translate(_BASE_DIGIT) or "0", 4)


def find_sorted(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """The index of each query in the sorted ``keys``, or -1 where absent.
    The queries are searched in sorted order, which keeps the search in
    cache and is several times faster than searching them as they come."""
    if len(keys) == 0:
        return np.full(len(queries), -1, np.int64)
    order = np.argsort(queries)
    ordered = queries[order]
    j = np.minimum(np.searchsorted(keys, ordered), len(keys) - 1)
    found = np.empty(len(queries), np.int64)
    found[order] = np.where(keys[j] == ordered, j, -1)
    return found


def spans(starts: np.ndarray, lengths: np.ndarray, step: int = 1) -> np.ndarray:
    """The ranges starts[i], starts[i] + step, ... of lengths[i] values each,
    one after another."""
    first = np.cumsum(lengths) - lengths
    at = np.repeat(starts - step * first, lengths)
    at += np.arange(0, step * len(at), step)
    return at


def base_codes(chars: np.ndarray) -> np.ndarray:
    """The base code of every byte in the ``uint8`` array ``chars``."""
    return np.frombuffer(chars.tobytes().translate(CODE_TABLE), np.uint8)


def decode(codes: np.ndarray) -> str:
    """The letters of base ``codes``, as one string."""
    return LETTERS[codes].tobytes().decode("ascii")


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


@contextmanager
def _reading(path: str, exc: type[ParseError]):
    """The text of ``path``; a ``.gz`` file that is cut short or not gzip,
    and bytes that do not decode, raise ``exc`` naming the file."""
    try:
        with _open_text(path, "r") as fh:
            yield fh
    except (EOFError, zlib.error, gzip.BadGzipFile) as err:
        raise exc(f"{path}: broken gzip file: {err}") from None
    except UnicodeDecodeError as err:
        raise exc(f"{path}: not {err.encoding} text: {err.reason}") from None


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


def read_fastq(path: str) -> ReadSet:
    """Parse a 4-line-per-record FASTQ file ``_CHUNK`` characters at a time,
    packing each chunk's whole records straight into the set's arrays."""
    codes = bytearray()  # grows in place, so the codes are never copied whole
    chunks = []  # lengths, ids and qualities of each chunk's records
    lineno, rest = 0, ""
    with _reading(path, FastqParseError) as fh:
        while True:
            # at least as much as is left over, so a record longer than a
            # chunk is read in doubling steps
            text = fh.read(max(_CHUNK, len(rest)))
            lines = (rest + text).split("\n")
            if not text and not lines[-1]:  # the end of the file, after a line break
                lines.pop()
            # before the end, the last line may be cut short: keep it for later
            whole = (len(lines) - 1) // 4 * 4 if text else len(lines)
            if whole:
                chunk_codes, lengths, ids, quals = _fastq_chunk(lines[:whole], lineno)
                codes += chunk_codes
                chunks.append((lengths, ids, quals))
                lineno += whole
            if not text:
                break
            rest = "\n".join(lines[whole:])
    if not chunks:
        return ReadSet()
    lengths, ids, quals = zip(*chunks)
    return ReadSet.packed(
        np.frombuffer(codes, np.uint8), np.concatenate(lengths),
        chain.from_iterable(ids), chain.from_iterable(quals),
    )


def _fastq_chunk(lines: list[str], lineno: int):
    """The codes, lengths, ids and qualities of the records in ``lines``,
    which start at line ``lineno + 1``.  Each check runs on the whole chunk
    at once; a chunk that fails one is walked record by record to raise for
    the first bad record."""
    heads, seqs, pluses, quals = (lines[i::4] for i in range(4))
    ids = [(h[1:].split(maxsplit=1) or [""])[0] for h in heads]
    # one code-4 separator after each read; a non-ASCII letter becomes "?"
    text = ("N".join(seqs) + "N").encode("ascii", "replace")
    codes = text.translate(_FASTQ_CODES)
    lengths = np.fromiter(map(len, seqs), np.int64, len(seqs))
    if (
        len(lines) % 4
        or not all(ids)
        or not _all_start_with(heads, "@")
        or not _all_start_with(pluses, "+")
        or np.frombuffer(codes, np.uint8).max() > 4
        or not lengths.all()
        or not np.array_equal(lengths, np.fromiter(map(len, quals), np.int64))
    ):
        _check_fastq_records(lines, lineno)
    return codes, lengths, ids, quals


def _all_start_with(lines: list[str], prefix: str) -> bool:
    # no line holds a "\n", so each match is the start of a line
    return ("\n" + "\n".join(lines)).count("\n" + prefix) == len(lines)


def _check_fastq_records(lines: list[str], lineno: int) -> None:
    """Raise for the first malformed record in ``lines`` (starting at line
    ``lineno + 1``) the error a record-by-record reader gives.  Every record
    the chunk checks refuse is malformed here too: lowercase ACGTN are the
    only letters besides ACGTN that upper-case into ACGTN."""
    for i in range(0, len(lines), 4):
        at = lineno + i + 1
        header = lines[i]
        if not header.startswith("@"):
            raise FastqParseError(
                f"line {at}: expected '@' header, got {header[:40]!r}"
            )
        words = header[1:].split()  # none for a blank id
        if not words:
            raise FastqParseError(f"line {at}: empty read id")
        read_id = words[0]
        if i + 4 > len(lines):
            raise FastqParseError(
                f"line {at}: truncated record for read {read_id!r}"
            )
        seq, plus, qual = lines[i + 1 : i + 4]
        if not plus.startswith("+"):
            raise FastqParseError(
                f"line {at + 2}: expected '+' separator for read {read_id!r}"
            )
        seq = _check_sequence(seq, read_id, at + 1, FastqParseError)
        if len(qual) != len(seq):
            raise FastqParseError(
                f"line {at + 3}: read {read_id!r} quality length {len(qual)} "
                f"!= sequence length {len(seq)}"
            )


def iter_fasta(path: str) -> Iterator[Read]:
    """Stream reads from a FASTA file; wrapped sequence lines are joined."""
    with _reading(path, FastaParseError) as fh:
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


def read_fasta(path: str) -> ReadSet:
    return ReadSet(iter_fasta(path))


def fasta_named(path: str) -> bool:
    """Whether ``load_reads`` reads ``path`` as FASTA, by its name."""
    base = path[:-3] if path.endswith(".gz") else path
    return base.endswith((".fa", ".fasta", ".fna"))


def load_reads(path: str) -> ReadSet:
    """Load a read file, picking the format from the file name."""
    return read_fasta(path) if fasta_named(path) else read_fastq(path)


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
    return readset.take(sample_indices(Pcg64(seed), len(readset), n))
