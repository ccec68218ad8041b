"""FASTQ/FASTA ingest, FASTQ emission, seeded subsampling, and the packed read set.

Sequences are normalized to upper case on ingest and validated against the
alphabet {A, C, G, T, N}, and qualities against Phred+33 ('!'..'~').  FASTQ
is parsed a chunk of text at a time, every record of a chunk checked at
once with whole-chunk string operations; an error still names the line of
the first bad record.  It is written a block of reads at a time, the same
way.  FASTA is read, a record at a time, but not written.  The writer
refuses, before opening the file, a read that the readers would refuse or
read back otherwise: an empty id, an id holding whitespace, or an empty
sequence.  Files whose name ends in ``.gz`` are read and written
gzip-compressed (with a fixed mtime of 0 so identical content yields
identical bytes).

A ``ReadSet`` keeps its reads packed: one flat ``uint8`` array of base codes
(A=0, C=1, G=2, T=3, N=4), read after read, with a code-4 separator after
each so no window spans two reads, and each read's start and length.  The
quality bytes lie in a second ``uint8`` array in the same layout, one for
every read or none at all, and the ids in one UTF-8 byte array with an
offset per read (``Ids``), so a set holds no Python object per read.
``ReadSet.packed`` is the one constructor from these arrays.  Other modules
read them; this one alone builds them or turns them back into text.  A
word of ACGT bases is the number its 2-bit codes spell, first base most
significant, so numeric order is string order.
"""

from __future__ import annotations

import gzip
import io
import re
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
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
_NO_QUALITY = bytes.maketrans(b"ACGTN", b"IIIII")  # letters -> the written quality
ACGT = frozenset(BASES)
_ROW_BLOCK = 4096  # reads decoded or gathered at a time
_CHUNK = 1 << 18  # characters of FASTQ text parsed at a time
# byte -> code of a FASTQ sequence letter, either case; 255 for anything else
_FASTQ_CODES = bytes(
    "ACGTNacgtn".index(chr(b)) % 5 if chr(b) in "ACGTNacgtn" else 255
    for b in range(256)
)
_BASE_DIGIT = str.maketrans(BASES, "0123")
_PHRED_CHARS = frozenset(map(chr, range(33, 127)))  # what a FASTQ quality holds
_PHRED_LINES = bytes(range(33, 127)) + b"\n"
# every character str.split() splits at, but the line break; headers that
# hold none of them and are ASCII are their ids
_ASCII_BLANKS = b" \t\x0b\x0c\r\x1c\x1d\x1e\x1f"
# in header lines without their "@": the blanks before an id, and the first
# blank after it with the rest of its line, so what is left is the id
_HEADER_TAIL = re.compile(r"^[^\S\n]+|[^\S\n][^\n]*", re.MULTILINE)


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


class Ids:
    """Read ids packed as one UTF-8 byte array, ``text``: each id followed by
    a line break, which no id holds.  ``at`` is where each id starts, and
    where the last one's line break ends.  Ids are equal when their texts
    are."""

    __slots__ = ("text", "at")

    def __init__(self, text=b"") -> None:
        self.text = np.frombuffer(text, np.uint8)
        self.at = np.concatenate(([0], np.flatnonzero(self.text == 10) + 1))

    @classmethod
    def of(cls, ids: list[str]) -> "Ids":
        """``ids`` packed; an id that holds a line break, which FASTQ cannot
        carry, raises ``ValueError`` naming it."""
        text = "\n".join(ids) + "\n" if ids else ""
        if text.count("\n") != len(ids) or "\r" in text:
            bad = next(i for i in ids if "\n" in i or "\r" in i)
            raise ValueError(f"read id {bad!r} holds a line break")
        return cls(text.encode())

    def __len__(self) -> int:
        return len(self.at) - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, Ids) and np.array_equal(self.text, other.text)

    __hash__ = None

    def __getitem__(self, i: int) -> str:
        return self.text[self.at[i] : self.at[i + 1] - 1].tobytes().decode()

    def take(self, rows) -> "Ids":
        """The ids at ``rows``: an array of indices, or a slice of step 1."""
        if isinstance(rows, slice):
            first, last, _ = rows.indices(len(self))
            return Ids(self.text[self.at[first] : self.at[max(first, last)]])
        rows = np.asarray(rows, np.intp)
        return Ids(self.text[spans(self.at[rows], self.at[rows + 1] - self.at[rows])])

    def strs(self) -> list[str]:
        return self.text.tobytes().decode().split("\n")[:-1]


class ReadSet:
    """Reads packed as the module docstring lays out: ``codes``, ``starts``
    and ``lengths``, with the reads' ``names`` (``Ids``) and ``quals``, the
    quality bytes in the codes' layout, each read's followed by a line
    break.  Every read has a quality, or ``quals`` is None: packed beside
    reads that have one, a read without one holds the 'I's the writer gives
    it.

    ``ReadSet(reads)`` packs ``Read`` objects once; ``ReadSet.packed`` takes
    the arrays packed already.  Both refuse a base outside ACGTN and a
    quality character outside '!'..'~' (Phred+33), naming the read, and
    ``Ids.of`` an id holding a line break.  Iterating, indexing and
    ``reads`` make ``Read`` objects back from the arrays."""

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
            _refuse(ids, seqs)
        codes = np.frombuffer(text.translate(CODE_TABLE), np.uint8)
        packed = None
        if any(q is not None for q in quals):
            text = "\n".join(["I" * len(s) if q is None else q for s, q in zip(seqs, quals)])
            if not text.isascii():
                _refuse(ids, quals, quality=True)
            packed = np.frombuffer((text + "\n").encode("ascii"), np.uint8)
        starts, names = _starts(lengths), Ids.of(ids)
        _check(codes, starts, lengths, names, packed)
        self._set(codes, starts, lengths, names, packed)

    @classmethod
    def packed(cls, codes, lengths, names: Ids, quals=None) -> "ReadSet":
        """Reads from their codes in the packed layout, each read followed by
        its code-4 separator: flat, or one row per read when all reads have
        the same length.  ``names`` are their ids, and ``quals``, if not
        None, their quality bytes in the same layout, each read's followed by
        a line break.  Arrays that do not hold packed reads raise
        ``ValueError`` naming the first read that is not (``_check``)."""
        codes = np.ascontiguousarray(codes, np.uint8).reshape(-1)
        lengths = np.asarray(lengths, np.int64)
        starts = _starts(lengths)
        _check(codes, starts, lengths, names, quals)
        return object.__new__(cls)._set(codes, starts, lengths, names, quals)

    def _set(self, codes, starts, lengths, names, quals) -> "ReadSet":
        for array in (codes, starts, lengths, names.text, names.at, quals):
            if array is not None:
                array.flags.writeable = False  # shared between sets
        self.codes, self.starts, self.lengths = codes, starts, lengths
        self.names, self.quals = names, quals
        return self

    def __len__(self) -> int:
        return len(self.lengths)

    def __getitem__(self, i: int) -> Read:
        return self.take([range(len(self))[i]]).reads[0]

    def __iter__(self) -> Iterator[Read]:
        return (Read(*row) for block in self._blocks() for row in zip(*block))

    @property
    def reads(self) -> tuple[Read, ...]:
        return tuple(self)

    def _span(self, first: int, last: int) -> slice:
        """Where reads ``first`` to ``last`` (not empty) lie in ``codes``,
        separators included."""
        return slice(self.starts[first], self.starts[last - 1] + self.lengths[last - 1] + 1)

    def _letters(self, first: int, last: int) -> bytes:
        """The letters of reads ``first`` to ``last`` (not empty), each
        read's followed by a line break."""
        span = self._span(first, last)
        chars = self.codes[span].copy()
        chars[self.starts[first:last] + self.lengths[first:last] - span.start] = 5
        return chars.tobytes().translate(_TEXT)

    def _blocks(self) -> Iterator[tuple[list[str], list[str], list]]:
        """Ids, sequences and qualities, decoded ``_ROW_BLOCK`` reads at a time."""
        for first in range(0, len(self), _ROW_BLOCK):
            last = min(first + _ROW_BLOCK, len(self))
            seqs = self._letters(first, last).decode("ascii").split("\n")[:-1]
            quals = [None] * len(seqs)
            if self.quals is not None:
                quals = self.quals[self._span(first, last)].tobytes().decode().split("\n")[:-1]
            yield self.names.take(slice(first, last)).strs(), seqs, quals

    def _fastq(self, first: int, last: int) -> bytes:
        """The FASTQ records of reads ``first`` to ``last`` (not empty); a
        read without a quality gets 'I's."""
        seqs = self._letters(first, last)
        if self.quals is None:
            quals = seqs.translate(_NO_QUALITY)
        else:
            quals = self.quals[self._span(first, last)].tobytes()
        names = self.names.take(slice(first, last)).text.tobytes()
        lines = [b"+"] * (4 * (last - first))
        lines[0::4] = (b"@" + names[:-1].replace(b"\n", b"\n@")).split(b"\n")
        lines[1::4] = seqs[:-1].split(b"\n")
        lines[3::4] = quals[:-1].split(b"\n")
        return b"\n".join(lines) + b"\n"

    def take(self, rows) -> "ReadSet":
        """The reads at ``rows``, in that order, gathered ``_ROW_BLOCK`` at
        a time so the gather index stays small."""
        rows = np.asarray(rows, np.intp)
        lengths = self.lengths[rows]
        starts = _starts(lengths)
        codes = np.empty(int(lengths.sum()) + len(rows), np.uint8)
        quals = None if self.quals is None else np.empty_like(codes)
        names = [self.names.text[:0]]
        for first in range(0, len(rows), _ROW_BLOCK):
            block = slice(first, first + _ROW_BLOCK)
            picked = rows[block]
            # each read's codes and its separator, from its old start
            at = spans(self.starts[picked], lengths[block] + 1)
            out = slice(starts[first], starts[first] + len(at))
            codes[out] = self.codes[at]
            if quals is not None:
                quals[out] = self.quals[at]
            names.append(self.names.take(picked).text)
        return object.__new__(ReadSet)._set(
            codes, starts, lengths, Ids(np.concatenate(names)), quals
        )

    def with_codes(self, codes: np.ndarray) -> "ReadSet":
        """These reads with ``codes``, in the same layout, as their bases."""
        return object.__new__(ReadSet)._set(
            codes, self.starts, self.lengths, self.names, self.quals
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


def _refuse(ids: Iterable[str], texts: Iterable, quality: bool = False) -> None:
    """Raise for the first of ``texts`` holding a character outside ACGTN,
    or with ``quality`` outside '!'..'~' (a None text holds none)."""
    for read_id, text in zip(ids, texts):
        bad = set(text or "") - (_PHRED_CHARS if quality else VALID_CHARS)
        if bad:
            what = "has quality" if quality else "contains"
            outside = "'!'..'~'" if quality else "ACGTN"
            raise ValueError(f"read {read_id!r} {what} characters outside {outside}: "
                             f"{sorted(bad)}")


def _check(codes, starts, lengths, names: Ids, quals) -> None:
    """Raise ``ValueError`` naming the first read that these arrays do not
    hold as packed reads: one without an id or of negative length, without
    a separator or a line break where its bases or its quality bytes end,
    or holding a code above 4 or a quality byte outside '!'..'~'.  Checked
    ``_ROW_BLOCK`` reads at a time, so no temporary grows with the set."""
    n = len(lengths)
    if len(names) != n:
        raise ValueError(f"read {len(names)} has no id" if len(names) < n
                         else f"id {names[n]!r} names no read")
    if lengths.min(initial=0) < 0:
        raise ValueError(f"read {names[int(np.argmin(lengths))]!r} has a negative length")
    ends = starts + lengths
    total = int(ends[-1]) + 1 if n else 0
    if len(codes) < total:
        i = int(np.searchsorted(ends, len(codes)))
        raise ValueError(f"read {names[i]!r} runs past the end of the codes")
    if len(codes) > total:
        raise ValueError(f"{len(codes) - total} codes follow the last read")
    if quals is not None and len(quals) != total:
        raise ValueError(f"{len(quals)} quality bytes for {total} codes")
    for first in range(0, n, _ROW_BLOCK):
        last = min(first + _ROW_BLOCK, n)
        span = slice(starts[first], ends[last - 1] + 1)
        block, seps = codes[span], ends[first:last] - span.start
        fine = block.max() <= 4 and (block[seps] == 4).all()
        if fine and quals is not None:
            qual = quals[span]
            # line breaks at the separators, and no byte outside 33..126 besides
            fine = (qual[seps] == 10).all() and np.count_nonzero(qual - 33 > 93) == len(seps)
        if fine:
            continue
        for i in range(first, last):
            s, e = starts[i], ends[i]
            if codes[e] != 4 or quals is not None and quals[e] != 10:
                raise ValueError(f"read {names[i]!r} is not followed by a separator")
            if codes[s:e].max(initial=0) > 4:
                raise ValueError(f"read {names[i]!r} holds codes above 4: "
                                 f"{sorted(set(codes[s:e].tolist()) - set(range(5)))}")
            if quals is not None:
                _refuse([names[i]], [quals[s:e].tobytes().decode("latin-1")], quality=True)


def substrings(text: str, starts: np.ndarray, length: int, ids) -> ReadSet:
    """The reads of ``length`` characters of ``text`` at ``starts``, named
    ``ids``, gathered straight into the packed layout.  A read holding a
    character outside ACGTN is refused as ``ReadSet(reads)`` refuses it."""
    raw = text.encode("ascii", "replace")  # one byte per character
    if raw.translate(None, b"ACGTN"):
        _refuse(ids, (text[s : s + length] for s in starts.tolist()))
    # one spare code, so the window at the last start has room for a separator
    codes = np.frombuffer(raw.translate(CODE_TABLE) + b"\4", np.uint8)
    block = sliding_window_view(codes, length + 1)[starts]
    block[:, length] = 4
    return ReadSet.packed(block, np.full(len(starts), length), Ids.of(ids))


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


@contextmanager
def _writing(path: str):
    """A binary file to write ``path``; a ``.gz`` one is gzip-compressed
    with the mtime pinned to 0 and no file name, so identical content
    always yields identical bytes, whenever and wherever it is written."""
    with open(path, "wb") as raw:
        if not path.endswith(".gz"):
            yield raw
            return
        with gzip.GzipFile(filename="", fileobj=raw, mode="wb", mtime=0) as fh:
            yield fh
            # the sync flush that closing a text wrapper around it made: the
            # files keep the bytes they had when they were written as text
            fh.flush()


@contextmanager
def _reading(path: str, exc: type[ParseError]):
    """The text of ``path``; a ``.gz`` file that is cut short or not gzip,
    and bytes that do not decode, raise ``exc`` naming the file."""
    try:
        opened = io.TextIOWrapper(gzip.open(path, "rb")) if path.endswith(".gz") else open(path)
        with opened as fh:
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
    # these grow in place, so they are never copied whole
    codes, names, quals = bytearray(), bytearray(), bytearray()
    lengths = []
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
                chunk = _fastq_chunk(lines[:whole], lineno)
                codes += chunk[0]
                names += chunk[1]
                quals += chunk[2]
                lengths.append(chunk[3])
                lineno += whole
            if not text:
                break
            rest = "\n".join(lines[whole:])
    if not lengths:
        return ReadSet()
    return ReadSet.packed(
        np.frombuffer(codes, np.uint8), np.concatenate(lengths), Ids(names),
        np.frombuffer(quals, np.uint8),
    )


def _fastq_chunk(lines: list[str], lineno: int):
    """The codes, ids, qualities (as bytes, each read followed by its
    separator) and lengths of the records in ``lines``, which start at line
    ``lineno + 1``.  Each check runs on the whole chunk at once; a chunk
    that fails one is walked record by record to raise for the first bad
    record."""
    heads, seqs, pluses, quals = (lines[i::4] for i in range(4))
    # no line holds a "\n", so each "\n@" starts a header
    text = "\n" + "\n".join(heads)
    headers = text.count("\n@")
    text = text.replace("\n@", "\n")[1:] + "\n"
    names = text.encode()
    if len(names) != len(text) or len(names.translate(None, _ASCII_BLANKS)) != len(names):
        names = _HEADER_TAIL.sub("", text).encode()  # non-ASCII, or with blanks
    # one code-4 separator after each read; a non-ASCII letter becomes "?"
    text = ("N".join(seqs) + "N").encode("ascii", "replace")
    codes = text.translate(_FASTQ_CODES)
    lengths = np.fromiter(map(len, seqs), np.int64, len(seqs))
    qual_text = "\n".join(quals) + "\n"
    qual_bytes = qual_text.encode()
    if (
        len(lines) % 4
        or names.startswith(b"\n")
        or b"\n\n" in names  # an empty id
        or headers != len(heads)
        or not _all_start_with(pluses, "+")
        or np.frombuffer(codes, np.uint8).max() > 4
        or not lengths.all()
        or not np.array_equal(lengths, np.fromiter(map(len, quals), np.int64))
        or len(qual_bytes) != len(qual_text)  # not ASCII
        or qual_bytes.translate(None, _PHRED_LINES)
    ):
        _check_fastq_records(lines, lineno)
    return codes, names, qual_bytes, lengths


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
        bad = set(qual) - _PHRED_CHARS
        if bad:
            raise FastqParseError(
                f"line {at + 3}: read {read_id!r} has quality characters "
                f"outside '!'..'~': {sorted(bad)}"
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


def fasta_named(path: str) -> bool:
    """Whether ``load_reads`` reads ``path`` as FASTA, by its name."""
    base = path[:-3] if path.endswith(".gz") else path
    return base.endswith((".fa", ".fasta", ".fna"))


def load_reads(path: str) -> ReadSet:
    """Load a read file, picking the format from the file name."""
    return ReadSet(iter_fasta(path)) if fasta_named(path) else read_fastq(path)


def _writable(reads: Iterable[Read]) -> ReadSet:
    """``reads`` packed, once each read is one the readers take back as it
    is: a read with an empty id, an id holding whitespace (the readers keep
    an id's first word) or no bases raises ``ValueError`` naming it."""
    readset = reads if isinstance(reads, ReadSet) else ReadSet(reads)
    names = readset.names
    text = names.text.tobytes()
    # ASCII ids, none empty and none holding whitespace, need no look one by
    # one; each check is a pass of memchr or numpy over the packed ids
    if (not text.isascii() or any(blank in text for blank in _ASCII_BLANKS)
            or (np.diff(names.at) == 1).any()):
        for i, read_id in enumerate(names.strs()):
            if not read_id:
                raise ValueError(f"read {i} has an empty id")
            if read_id.split() != [read_id]:
                raise ValueError(f"read id {read_id!r} holds whitespace")
    if not readset.lengths.all():
        read_id = names[int(np.argmin(readset.lengths))]
        raise ValueError(f"read {read_id!r} has an empty sequence")
    return readset


def write_fastq(reads: Iterable[Read], path: str) -> None:
    """Write FASTQ; reads without quality get a constant 'I' string."""
    readset = _writable(reads)
    with _writing(path) as fh:
        for first in range(0, len(readset), _ROW_BLOCK):
            fh.write(readset._fastq(first, min(first + _ROW_BLOCK, len(readset))))


def sample_reads(readset: ReadSet, n: int, seed: int) -> ReadSet:
    """Uniform sample of ``n`` reads without replacement, in ingest order.

    ``n`` greater than the population returns the whole set unchanged.
    """
    if n < 0:
        raise ValueError(f"sample size must be >= 0, got {n}")
    if n >= len(readset):
        return readset
    return readset.take(sample_indices(Pcg64(seed), len(readset), n))
