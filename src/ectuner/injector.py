"""Synthetic genomes, clean reads, and seeded error injection.

Error models, applied per read with an independent PCG64 stream derived from
(seed, read index), so each read's draws are pinned by the order below and
do not depend on any other read:

* deletion of a segment of length d < l starting at index ~ U{0..l-d}
* insertion of an i.i.d. uniform ACGT segment of length n at index ~ U{0..l-n}
* n independent substitutions, each at index ~ U{0..l-1} (with replacement)
  by a uniform base, so one draw in four leaves the base unchanged

The low error regime draws the per-read count uniformly from {1..5}, the
high regime from {6..10}.  A mixture picks one of the three kinds per read
with equal probability.  Every applied change is recorded in an ErrorLedger
whose inverse replay restores the original reads exactly.

Draw order per read (for independent re-derivation): mixture kind first if
applicable, then the count, then the kind's own draws as listed above; the
insertion segment is drawn as one vector after its index, substitution draws
alternate position then base.  Every draw is ``Generator.integers`` on the
read's stream ``Generator(PCG64(SeedSequence((seed, index))))``.

``inject_readset`` follows this protocol for a whole block of reads at once:
``_rng.StreamBlock`` computes each read's draws from raw PCG64 words as
NumPy would (SeedSequence, PCG64 XSL-RR, Lemire bounded integers on 32-bit
halves, low half first), so every corrupted read and ledger change is the
one the per-read calls would give.  It makes no object per read or per
change: substitutions are written into a copy of the packed base codes,
indels are spliced into it, and the ledger is kept as columns.
``sample_clean_reads`` likewise gathers the genome's codes straight into the
packed layout.  ``tests/injector_oracles.py`` keeps the per-read paths as
the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, NamedTuple

import numpy as np

from ._rng import StreamBlock, check_seed, make_rng
from .seqio import BASES, Read, ReadSet, decode, spans, substrings

KINDS = ("deletion", "insertion", "substitution")
REGIMES = {"low": (1, 5), "high": (6, 10)}


class LedgerReplayError(ValueError):
    pass


class LedgerEntry(NamedTuple):
    read_id: str
    position: int
    kind: str
    original: str
    observed: str


_HEADER = "read_id\tposition\tkind\toriginal\tobserved"
_ROWS = 4096  # changes written or made into entries at a time


class ErrorLedger:
    """Applied changes in application order, kept as columns: change j is
    to read ``read_ids[rows[j]]`` at ``positions[j]``, of kind
    ``KINDS[kinds[j]]``, and replaced ``original[original_at[j]:
    original_at[j + 1]]`` with the ``observed`` text cut the same way.
    ``ErrorLedger(entries)`` takes ``LedgerEntry`` tuples; ``entries`` makes
    them on first use."""

    def __init__(self, entries: Iterable[LedgerEntry] = ()) -> None:
        entries = tuple(entries)
        ids, positions, kinds, original, observed = tuple(zip(*entries)) or ((),) * 5
        self._set(
            ids, np.arange(len(ids)), np.array(positions, np.int64),
            np.array([KINDS.index(k) for k in kinds], np.uint8),
            "".join(original), _offsets(list(map(len, original))),
            "".join(observed), _offsets(list(map(len, observed))),
        )
        self.__dict__["entries"] = entries

    def _set(self, read_ids, rows, positions, kinds, original, original_at,
             observed, observed_at) -> "ErrorLedger":
        self.read_ids, self.rows = read_ids, rows
        self.positions, self.kinds = positions, kinds
        self.original, self.original_at = original, original_at
        self.observed, self.observed_at = observed, observed_at
        return self

    def __len__(self) -> int:
        return len(self.positions)

    def _fields(self, first: int) -> tuple[list, ...]:
        """The five TSV fields of changes ``first`` to ``first + _ROWS``."""
        block = slice(first, first + _ROWS)
        return (
            list(map(self.read_ids.__getitem__, self.rows[block].tolist())),
            self.positions[block].tolist(),
            list(map(KINDS.__getitem__, self.kinds[block].tolist())),
            _cut(self.original, self.original_at[first : first + _ROWS + 1]),
            _cut(self.observed, self.observed_at[first : first + _ROWS + 1]),
        )

    @cached_property
    def entries(self) -> tuple[LedgerEntry, ...]:
        return tuple(chain.from_iterable(
            map(LedgerEntry, *self._fields(first)) for first in range(0, len(self), _ROWS)
        ))

    def to_tsv(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(_HEADER + "\n")
            for first in range(0, len(self), _ROWS):
                ids, positions, kinds, original, observed = self._fields(first)
                lines = zip(ids, map(str, positions), kinds, original, observed)
                fh.write("\n".join(map("\t".join, lines)) + "\n")

    @classmethod
    def from_tsv(cls, path: str) -> "ErrorLedger":
        entries = []
        with open(path) as fh:
            header = fh.readline().rstrip("\n")
            if header != _HEADER:
                raise ValueError(f"{path}: unexpected ledger header {header!r}")
            for lineno, line in enumerate(fh, start=2):
                fields = line.rstrip("\n").split("\t")
                if len(fields) != 5:
                    raise ValueError(f"{path}:{lineno}: expected 5 fields")
                rid, pos, kind, orig, obs = fields
                if kind not in KINDS:
                    raise ValueError(f"{path}:{lineno}: unknown kind {kind!r}")
                entries.append(LedgerEntry(rid, int(pos), kind, orig, obs))
        return cls(entries)


def _offsets(lengths) -> np.ndarray:
    """Where each piece of ``lengths``, laid one after another, starts, and
    where the last ends."""
    return np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))


def _cut(text: str, at: np.ndarray) -> list[str]:
    """The pieces of ``text`` between consecutive offsets ``at``."""
    at = at.tolist()
    return [text[a:b] for a, b in zip(at, at[1:])]


@dataclass(frozen=True)
class InjectionSpec:
    """What to inject: a kind ('deletion', 'insertion', 'substitution', or
    'mixture') at a rate regime ('low' = 1..5 per read, 'high' = 6..10)."""

    kind: str
    regime: str
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS + ("mixture",):
            raise ValueError(f"unknown error kind {self.kind!r}")
        if self.regime not in REGIMES:
            raise ValueError(f"unknown rate regime {self.regime!r}")
        check_seed(self.seed)


def generate_genome(length: int, seed: int) -> str:
    """Uniform i.i.d. ACGT string of the given length."""
    if length <= 0:
        raise ValueError(f"genome length must be positive, got {length}")
    return decode(make_rng(seed).integers(0, 4, size=length))


def sample_clean_reads(genome: str, n: int, read_len: int, seed: int) -> ReadSet:
    """n forward-strand substrings at uniform start positions, named r0, r1, ..."""
    if read_len > len(genome):
        raise ValueError(
            f"read length {read_len} exceeds genome length {len(genome)}"
        )
    if read_len <= 0 or n < 0:
        raise ValueError("read length must be positive and n non-negative")
    starts = make_rng(seed).integers(0, len(genome) - read_len + 1, size=n)
    return substrings(genome, starts, read_len, [f"r{i}" for i in range(n)])


# -- edits --------------------------------------------------------------------


def _substitute(seq: str, n: int, rng: np.random.Generator) -> tuple[str, list]:
    """n position/base draw pairs on one sequence, with replacement across
    positions, all from one broadcast ``integers`` call (the same draws, in
    the same order, as 2n scalar calls)."""
    if n <= 0:
        raise ValueError(f"substitution count must be positive, got {n}")
    draws = rng.integers(0, np.tile([len(seq), 4], n)).tolist()
    chars = list(seq)
    edits = []
    for pos, code in zip(draws[0::2], draws[1::2]):
        base = BASES[code]
        if chars[pos] != base:
            edits.append(("substitution", pos, chars[pos], base))
            chars[pos] = base
    return "".join(chars), edits


def _adjust_quality(kind: str, quality: str | None, pos: int, n: int) -> str | None:
    if quality is None or kind == "substitution":
        return quality
    if kind == "deletion":
        return quality[:pos] + quality[pos + n :]
    return quality[:pos] + "I" * n + quality[pos:]


# reads per block: bounds the block's arrays to a few MB at any read count
_BLOCK = 4096
_DEL, _INS, _SUB = range(3)


def inject_readset(
    readset: ReadSet, spec: InjectionSpec
) -> tuple[ReadSet, ErrorLedger]:
    """Corrupt every read as ``spec`` directs; returns the new set and its ledger.

    Reads are corrupted a block at a time, every read's draws taken from its
    own stream as the module docstring lays out.  A read too short for its
    edit (an insertion longer than the read, a deletion of all its bases, or
    a substitution into an empty read) raises ``ValueError`` naming it.
    Substitutions are written into a copy of the set's base codes, then the
    indels are spliced into it; only a read with both an indel and a quality
    string is edited on its own.
    """
    if not len(readset):
        return readset, ErrorLedger()
    codes = readset.codes.copy()
    changes, indels = zip(*(
        _inject_block(readset, first, spec, codes)
        for first in range(0, len(readset), _BLOCK)
    ))
    rows, positions, kinds, old, old_lengths, new, new_lengths = _join(changes)
    ledger = object.__new__(ErrorLedger)._set(
        readset.ids, rows, positions, kinds,
        decode(old), _offsets(old_lengths), decode(new), _offsets(new_lengths),
    )
    rows, kinds, at, counts, segments = _join(indels)
    if not len(rows):
        return readset.with_codes(codes), ledger
    where = readset.starts[rows] + at
    cut = kinds == _DEL
    # one insertion point per inserted code, which np.insert keeps in order;
    # a dropped code moves up by the codes inserted before it
    put = np.repeat(where[~cut], counts[~cut])
    drop = spans(where[cut], counts[cut])
    codes = np.insert(codes, put, segments)
    codes = np.delete(codes, drop + np.searchsorted(put, drop))
    lengths = readset.lengths.copy()
    lengths[rows] += np.where(cut, -counts, counts)
    qualities = list(readset.qualities)
    for r, kind, i, c in zip(rows.tolist(), kinds.tolist(), at.tolist(), counts.tolist()):
        qualities[r] = _adjust_quality(KINDS[kind], qualities[r], i, c)
    return ReadSet.packed(codes, lengths, readset.ids, qualities), ledger


def _inject_block(
    readset: ReadSet, first: int, spec: InjectionSpec, codes: np.ndarray
):
    """Corrupt one block of reads from index ``first``, each draw of the
    protocol taken for every read that makes it at once.  Substitutions go
    into ``codes``.  Returns the block's ledger columns (rows, positions,
    kinds, and the original and observed codes with each change's share of
    them) and its indels (rows, kinds, positions, counts and the inserted
    codes)."""
    lo, hi = REGIMES[spec.regime]
    lengths = readset.lengths[first : first + _BLOCK]
    n = len(lengths)
    every = np.arange(n)
    # 2 + 2 * hi 32-bit draws cover every read unless Lemire rejects one
    streams = StreamBlock(spec.seed, every + first, hi + 1)
    if spec.kind == "mixture":
        kinds = streams.integers(every, 3)
    else:
        kinds = np.full(n, KINDS.index(spec.kind))
    counts = lo + streams.integers(every, hi - lo + 1)
    # a deletion must leave one base: a read cannot be written empty
    short = lengths < np.where(kinds == _SUB, 1, counts) + (kinds == _DEL)
    if short.any():
        r = int(np.argmax(short))
        raise ValueError(
            f"read {readset.ids[first + r]!r} of length {lengths[r]} is too short "
            f"for {KINDS[kinds[r]]} count {counts[r]}"
        )

    indel = np.flatnonzero(kinds != _SUB)
    at = streams.integers(indel, lengths[indel] - counts[indel] + 1)
    ins = np.flatnonzero(kinds == _INS)
    segments = np.zeros((len(ins), hi), np.uint8)
    for slot in range(hi):
        rows = counts[ins] > slot
        segments[rows, slot] = streams.integers(ins[rows], 4)
    segments = segments[np.arange(hi) < counts[ins, None]]  # row after row

    sub = np.flatnonzero(kinds == _SUB)
    changed = [(np.zeros(0, np.intp), np.zeros(0, np.int64), codes[:0], codes[:0])]
    for slot in range(hi):
        rows = sub[counts[sub] > slot]
        pos = streams.integers(rows, lengths[rows])
        new = streams.integers(rows, 4).astype(np.uint8)
        where = readset.starts[first + rows] + pos
        old = codes[where]
        hit = old != new
        # applied slot by slot, so a repeated position sees the earlier change
        codes[where[hit]] = new[hit]
        changed.append((rows[hit], pos[hit], old[hit], new[hit]))
    rows, pos, old, new = (np.concatenate(a) for a in zip(*changed))

    # every change in application order: by read, a read's substitutions by slot
    indel_kinds, indel_counts = kinds[indel], counts[indel]
    cut = indel_kinds == _DEL
    where = readset.starts[first + indel[cut]] + at[cut]
    deleted = readset.codes[spans(where, indel_counts[cut])]
    ones = np.ones(len(rows), np.int8)  # counts are at most 10
    old_lengths = np.concatenate((ones, np.where(cut, indel_counts, 0).astype(np.int8)))
    new_lengths = np.concatenate((ones, np.where(cut, 0, indel_counts).astype(np.int8)))
    rows = np.concatenate((rows, indel))
    order = np.argsort(rows, kind="stable")
    changes = (
        first + rows[order],
        np.concatenate((pos, at))[order],
        np.concatenate((np.full(len(pos), _SUB), indel_kinds))[order].astype(np.uint8),
        *_regroup(np.concatenate((old, deleted)), old_lengths, order),
        *_regroup(np.concatenate((new, segments)), new_lengths, order),
    )
    return changes, (first + indel, indel_kinds, at, indel_counts, segments)


def _regroup(pieces: np.ndarray, lengths: np.ndarray, order: np.ndarray):
    """The pieces of ``lengths``, laid one after another in ``pieces``, laid
    out again in ``order``; returns them and their lengths."""
    starts = (np.cumsum(lengths) - lengths)[order]
    lengths = lengths[order]
    return pieces[spans(starts, lengths)], lengths


def _join(blocks) -> list[np.ndarray]:
    """Each column of ``blocks`` joined across them."""
    return [np.concatenate(column) for column in zip(*blocks)]


def revert(corrupted: ReadSet, ledger: ErrorLedger) -> ReadSet:
    """Undo ledger changes (applied in reverse) to recover the originals.

    Quality strings are not restored for indel edits; reverted reads keep a
    synthesized quality where the original had one.
    """
    by_id: dict[str, list[LedgerEntry]] = {}
    for e in ledger.entries:
        by_id.setdefault(e.read_id, []).append(e)
    out = []
    for read in corrupted:
        seq = read.sequence
        had_indel = False
        for e in reversed(by_id.get(read.id, [])):
            if e.kind == "substitution":
                if seq[e.position] != e.observed:
                    raise LedgerReplayError(
                        f"read {read.id!r} pos {e.position}: expected "
                        f"{e.observed!r}, found {seq[e.position]!r}"
                    )
                seq = seq[: e.position] + e.original + seq[e.position + 1 :]
            elif e.kind == "insertion":
                had_indel = True
                got = seq[e.position : e.position + len(e.observed)]
                if got != e.observed:
                    raise LedgerReplayError(
                        f"read {read.id!r} pos {e.position}: expected inserted "
                        f"segment {e.observed!r}, found {got!r}"
                    )
                seq = seq[: e.position] + seq[e.position + len(e.observed) :]
            else:
                had_indel = True
                seq = seq[: e.position] + e.original + seq[e.position :]
        qual = read.quality
        if qual is not None and (had_indel or len(qual) != len(seq)):
            qual = "I" * len(seq)
        out.append(Read(read.id, seq, qual))
    return ReadSet(out)
