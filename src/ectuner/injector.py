"""Synthetic genomes, clean reads, and seeded error injection.

Error models, applied per read with an independent PCG64 stream derived from
(seed, read index), so each read's draws are pinned by the order below and
do not depend on any other read:

* deletion of a segment of length d starting at index ~ U{0..l-d}
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
read's stream ``spawn_rng(seed, index)``.

``inject_readset`` follows this protocol for a whole block of reads at once:
``_rng.StreamBlock`` computes each read's draws from raw PCG64 words as
NumPy would (SeedSequence, PCG64 XSL-RR, Lemire bounded integers on 32-bit
halves, low half first), so every corrupted read and ledger entry is the one
the per-read calls would give; ``tests/injector_oracles.py`` keeps the
per-read path as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rng import StreamBlock, make_rng
from .seqio import BASES, LETTERS, Read, ReadSet

KINDS = ("deletion", "insertion", "substitution")
REGIMES = {"low": (1, 5), "high": (6, 10)}


class LedgerReplayError(ValueError):
    pass


@dataclass(frozen=True)
class LedgerEntry:
    read_id: str
    position: int
    kind: str
    original: str
    observed: str


@dataclass(frozen=True)
class ErrorLedger:
    """Applied changes in application order, one entry per change."""

    entries: tuple[LedgerEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def to_tsv(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("read_id\tposition\tkind\toriginal\tobserved\n")
            for e in self.entries:
                fh.write(
                    f"{e.read_id}\t{e.position}\t{e.kind}\t{e.original}\t{e.observed}\n"
                )

    @classmethod
    def from_tsv(cls, path: str) -> "ErrorLedger":
        entries = []
        with open(path) as fh:
            header = fh.readline().rstrip("\n")
            if header != "read_id\tposition\tkind\toriginal\tobserved":
                raise ValueError(f"{path}: unexpected ledger header {header!r}")
            for lineno, line in enumerate(fh, start=2):
                fields = line.rstrip("\n").split("\t")
                if len(fields) != 5:
                    raise ValueError(f"{path}:{lineno}: expected 5 fields")
                rid, pos, kind, orig, obs = fields
                if kind not in KINDS:
                    raise ValueError(f"{path}:{lineno}: unknown kind {kind!r}")
                entries.append(LedgerEntry(rid, int(pos), kind, orig, obs))
        return cls(tuple(entries))


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
        if self.seed < 0:
            raise ValueError(f"injection seed must be >= 0, got {self.seed}")


def generate_genome(length: int, seed: int) -> str:
    """Uniform i.i.d. ACGT string of the given length."""
    if length <= 0:
        raise ValueError(f"genome length must be positive, got {length}")
    ids = make_rng(seed).integers(0, 4, size=length)
    return LETTERS[ids].tobytes().decode("ascii")


def sample_clean_reads(genome: str, n: int, read_len: int, seed: int) -> ReadSet:
    """n forward-strand substrings at uniform start positions."""
    if read_len > len(genome):
        raise ValueError(
            f"read length {read_len} exceeds genome length {len(genome)}"
        )
    if read_len <= 0 or n < 0:
        raise ValueError("read length must be positive and n non-negative")
    starts = make_rng(seed).integers(0, len(genome) - read_len + 1, size=n)
    return ReadSet(
        Read(id=f"r{i}", sequence=genome[s : s + read_len])
        for i, s in enumerate(starts.tolist())
    )


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


# reads per block: bounds the block's arrays to a few hundred kB at any read count
_BLOCK = 1024
_INS, _SUB = KINDS.index("insertion"), KINDS.index("substitution")


def inject_readset(
    readset: ReadSet, spec: InjectionSpec
) -> tuple[ReadSet, ErrorLedger]:
    """Corrupt every read as ``spec`` directs; returns the new set and its ledger.

    Reads are corrupted a block at a time, every read's draws taken from its
    own stream as the module docstring lays out.  A read too short for its
    edit (an indel longer than the read, or a substitution into an empty
    read) raises ``ValueError`` naming it.  Substitutions are written into a
    copy of the set's base codes; only reads with an indel are rebuilt.
    """
    codes = readset.codes.copy()
    indels: dict[int, Read] = {}
    entries: list[LedgerEntry] = []
    for first in range(0, len(readset), _BLOCK):
        entries += _inject_block(readset, first, spec, codes, indels)
    corrupted = readset.with_codes(codes)
    if indels:
        rows = range(len(readset))
        kept = iter(corrupted.take([row for row in rows if row not in indels]))
        corrupted = ReadSet(indels[r] if r in indels else next(kept) for r in rows)
    return corrupted, ErrorLedger(tuple(entries))


def _inject_block(
    readset: ReadSet, first: int, spec: InjectionSpec, codes: np.ndarray, indels: dict
) -> list[LedgerEntry]:
    """Corrupt one block of reads from index ``first``, each draw of the
    protocol taken for every read that makes it at once: substitutions go
    into ``codes``, each read with an indel into ``indels`` by index."""
    lo, hi = REGIMES[spec.regime]
    block = slice(first, first + _BLOCK)
    ids, lengths = readset.ids[block], readset.lengths[block]
    n = len(ids)
    every = np.arange(n)
    # 2 + 2 * hi 32-bit draws cover every read unless Lemire rejects one
    streams = StreamBlock(spec.seed, every + first, hi + 1)
    if spec.kind == "mixture":
        kinds = streams.integers(every, 3)
    else:
        kinds = np.full(n, KINDS.index(spec.kind))
    counts = lo + streams.integers(every, hi - lo + 1)
    short = lengths < np.where(kinds == _SUB, 1, counts)
    if short.any():
        r = int(np.argmax(short))
        raise ValueError(
            f"read {ids[r]!r} of length {lengths[r]} is too short for "
            f"{KINDS[kinds[r]]} count {counts[r]}"
        )

    indel = np.flatnonzero(kinds != _SUB)
    at = np.zeros(n, np.int64)
    at[indel] = streams.integers(indel, lengths[indel] - counts[indel] + 1)
    ins = np.flatnonzero(kinds == _INS)
    segments = np.zeros((len(ins), hi), np.int64)
    for slot in range(hi):
        rows = counts[ins] > slot
        segments[rows, slot] = streams.integers(ins[rows], 4)
    segment_text = LETTERS[segments].tobytes().decode("ascii")
    segment = {
        r: segment_text[j * hi : j * hi + c]
        for j, (r, c) in enumerate(zip(ins.tolist(), counts[ins].tolist()))
    }

    sub = np.flatnonzero(kinds == _SUB)
    # each read's substitutions, in application order, at bounds[r]:bounds[r + 1]
    bounds, pos, old, new = [0] * (n + 1), [], [], []
    if sub.size:
        changed = []  # per slot: rows, positions, old and new codes
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
        by_read = np.argsort(rows, kind="stable")
        bounds = np.searchsorted(rows[by_read], np.arange(n + 1)).tolist()
        pos = pos[by_read].tolist()
        old, new = (LETTERS[a[by_read]].tobytes().decode("ascii") for a in (old, new))

    entries = []
    indel_reads = iter(readset.take(first + indel))
    for r, (read_id, kind, i, c) in enumerate(
        zip(ids, kinds.tolist(), at.tolist(), counts.tolist())
    ):
        if kind == _SUB:
            entries += (
                LedgerEntry(read_id, pos[k], "substitution", old[k], new[k])
                for k in range(bounds[r], bounds[r + 1])
            )
            continue
        read = next(indel_reads)
        seq = read.sequence
        if kind == _INS:
            edit, seq = ("", segment[r]), seq[:i] + segment[r] + seq[i:]
        else:
            edit, seq = (seq[i : i + c], ""), seq[:i] + seq[i + c :]
        entries.append(LedgerEntry(read_id, i, KINDS[kind], *edit))
        quality = _adjust_quality(KINDS[kind], read.quality, i, c)
        indels[first + r] = Read(read_id, seq, quality)
    return entries


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
