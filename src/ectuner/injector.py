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
read's stream ``Generator(PCG64(SeedSequence((seed, index))))``.  An inserted
base gets quality 'I'; a deleted base takes its quality with it.

``inject_readset`` follows this protocol for a whole block of reads at once:
``_rng.StreamBlock`` computes each read's draws from raw PCG64 words as
NumPy would (SeedSequence, PCG64 XSL-RR, Lemire bounded integers on 32-bit
halves, low half first), so every corrupted read and ledger change is the
one the per-read calls would give.  It makes no object per read or per
change: each block's substitutions are written into a copy of its packed
base codes, its indels are spliced into them and its qualities through one
gather map, and the ledger is kept as columns.
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
from .seqio import BASES, Ids, Read, ReadSet, decode, spans, substrings

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


_ROWS = 4096  # changes written or made into entries at a time


class ErrorLedger:
    """Applied changes in application order, kept as columns: change j is
    to read ``names[rows[j]]`` (``names`` an ``Ids``) at ``positions[j]``, of kind
    ``KINDS[kinds[j]]``, and replaced ``original[original_at[j]:
    original_at[j + 1]]`` with the ``observed`` text cut the same way.
    ``ErrorLedger(entries)`` takes ``LedgerEntry`` tuples; ``entries`` makes
    them on first use."""

    def __init__(self, entries: Iterable[LedgerEntry] = ()) -> None:
        entries = tuple(entries)
        ids, positions, kinds, original, observed = tuple(zip(*entries)) or ((),) * 5
        self._set(
            Ids.of(list(ids)), np.arange(len(ids)), np.array(positions, np.int64),
            np.array([KINDS.index(k) for k in kinds], np.uint8),
            "".join(original), _offsets(list(map(len, original))),
            "".join(observed), _offsets(list(map(len, observed))),
        )
        self.__dict__["entries"] = entries

    def _set(self, names, rows, positions, kinds, original, original_at,
             observed, observed_at) -> "ErrorLedger":
        self.names, self.rows = names, rows
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
            self.names.take(self.rows[block]).strs(),
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
            fh.write("read_id\tposition\tkind\toriginal\tobserved\n")
            for first in range(0, len(self), _ROWS):
                ids, positions, kinds, original, observed = self._fields(first)
                lines = zip(ids, map(str, positions), kinds, original, observed)
                fh.write("\n".join(map("\t".join, lines)) + "\n")


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
    The new codes, and qualities when the reads have them and lengths
    change, grow block by block, so they are never copied whole.
    """
    if not len(readset):
        return readset, ErrorLedger()
    codes, quals, lengths, changes = bytearray(), bytearray(), [], []
    for first in range(0, len(readset), _BLOCK):
        block_codes, block_quals, block_lengths, block_changes = _inject_block(
            readset, first, spec
        )
        codes += block_codes.data
        quals += block_quals.data
        lengths.append(block_lengths)
        changes.append(block_changes)
    rows, positions, kinds, old, old_lengths, new, new_lengths = _join(changes)
    ledger = object.__new__(ErrorLedger)._set(
        readset.names, rows, positions, kinds,
        decode(old), _offsets(old_lengths), decode(new), _offsets(new_lengths),
    )
    codes = np.frombuffer(codes, np.uint8)
    if spec.kind == "substitution":
        return readset.with_codes(codes), ledger
    return ReadSet.packed(
        codes, np.concatenate(lengths), readset.names,
        None if readset.quals is None else np.frombuffer(quals, np.uint8),
    ), ledger


def _inject_block(readset: ReadSet, first: int, spec: InjectionSpec):
    """Corrupt one block of reads from index ``first``, each draw of the
    protocol taken for every read that makes it at once.  Returns the
    block's new codes, its new qualities (empty when they do not change),
    its new lengths and its ledger columns (rows, positions, kinds, and the
    original and observed codes with each change's share of them)."""
    lo, hi = REGIMES[spec.regime]
    lengths = readset.lengths[first : first + _BLOCK]
    n = len(lengths)
    span = readset._span(first, first + n)
    starts = readset.starts[first : first + n] - span.start  # in the block
    codes = readset.codes[span].copy()
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
            f"read {readset.names[first + r]!r} of length {lengths[r]} is too short "
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
        where = starts[rows] + pos
        old = codes[where]
        hit = old != new
        # applied slot by slot, so a repeated position sees the earlier change
        codes[where[hit]] = new[hit]
        changed.append((rows[hit], pos[hit], old[hit], new[hit]))
    rows, pos, old, new = (np.concatenate(a) for a in zip(*changed))

    # every change in application order: by read, a read's substitutions by slot
    indel_kinds, indel_counts = kinds[indel], counts[indel]
    cut = indel_kinds == _DEL
    deleted = codes[spans(starts[indel[cut]] + at[cut], indel_counts[cut])]
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
    if spec.kind == "substitution":
        return codes, codes[:0], lengths, changes

    # each read is its head, its inserted bases and its tail, whose first
    # deleted bases are skipped: one gather map from the block's codes with
    # the inserted bases after them, or its qualities with 'I's after them
    head, dropped, added = (np.zeros(n, np.int64) for _ in range(3))
    head[indel] = at
    dropped[indel[cut]] = indel_counts[cut]
    added[ins] = counts[ins]
    tail = head + dropped
    gather = spans(
        np.stack((starts, len(codes) + np.cumsum(added) - added, starts + tail), 1).ravel(),
        np.stack((head, added, lengths + 1 - tail), 1).ravel(),
    )
    quals = codes[:0]
    if readset.quals is not None:
        inserted = np.full(len(segments), ord("I"), np.uint8)
        quals = np.concatenate((readset.quals[span], inserted))[gather]
    return np.concatenate((codes, segments))[gather], quals, lengths + added - dropped, changes


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
