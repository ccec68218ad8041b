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
alternate position then base.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rng import make_rng, spawn_rng
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
    reads = tuple(
        Read(id=f"r{i}", sequence=genome[s : s + read_len])
        for i, s in enumerate(starts)
    )
    return ReadSet(reads, source="synthetic")


# -- single-read edits --------------------------------------------------------


def _delete(seq: str, d: int, rng: np.random.Generator) -> tuple[str, list]:
    l = len(seq)
    if not 0 < d <= l:
        raise ValueError(f"deletion length {d} invalid for read of length {l}")
    i = int(rng.integers(0, l - d + 1))
    return seq[:i] + seq[i + d :], [("deletion", i, seq[i : i + d], "")]


def _insert(seq: str, n: int, rng: np.random.Generator) -> tuple[str, list]:
    l = len(seq)
    if not 0 < n <= l:
        raise ValueError(f"insertion length {n} invalid for read of length {l}")
    i = int(rng.integers(0, l - n + 1))
    segment = LETTERS[rng.integers(0, 4, size=n)].tobytes().decode("ascii")
    return seq[:i] + segment + seq[i:], [("insertion", i, "", segment)]


def _substitute(seq: str, n: int, rng: np.random.Generator) -> tuple[str, list]:
    l = len(seq)
    if n <= 0:
        raise ValueError(f"substitution count must be positive, got {n}")
    chars = list(seq)
    edits = []
    for _ in range(n):
        pos = int(rng.integers(0, l))
        base = BASES[int(rng.integers(0, 4))]
        if chars[pos] != base:
            edits.append(("substitution", pos, chars[pos], base))
            chars[pos] = base
    return "".join(chars), edits


_EDIT_FNS = {"deletion": _delete, "insertion": _insert, "substitution": _substitute}


def _adjust_quality(kind: str, quality: str | None, pos: int, n: int) -> str | None:
    if quality is None or kind == "substitution":
        return quality
    if kind == "deletion":
        return quality[:pos] + quality[pos + n :]
    return quality[:pos] + "I" * n + quality[pos:]


def _apply(read: Read, kind: str, count: int, rng: np.random.Generator):
    seq, edits = _EDIT_FNS[kind](read.sequence, count, rng)
    qual = read.quality
    for k, pos, orig, obs in edits:
        if k != "substitution":
            qual = _adjust_quality(k, qual, pos, max(len(orig), len(obs)))
    return Read(read.id, seq, qual), [
        LedgerEntry(read.id, pos, k, orig, obs) for k, pos, orig, obs in edits
    ]


def inject_deletion(read: Read, d: int, rng: np.random.Generator) -> Read:
    """Remove a window of d bases at a uniform index (one integer draw)."""
    return _apply(read, "deletion", d, rng)[0]


def inject_insertion(read: Read, n: int, rng: np.random.Generator) -> Read:
    """Insert n uniform bases at a uniform index (index draw, then vector)."""
    return _apply(read, "insertion", n, rng)[0]


def inject_substitution(read: Read, n: int, rng: np.random.Generator) -> Read:
    """n position/base draw pairs, with replacement across positions."""
    return _apply(read, "substitution", n, rng)[0]


def inject_readset(
    readset: ReadSet, spec: InjectionSpec
) -> tuple[ReadSet, ErrorLedger]:
    """Corrupt every read as ``spec`` directs; returns the new set and its ledger."""
    lo, hi = REGIMES[spec.regime]

    def corrupt(idx: int, read: Read):
        rng = spawn_rng(spec.seed, idx)
        kind = spec.kind
        if kind == "mixture":
            kind = KINDS[int(rng.integers(0, 3))]
        count = int(rng.integers(lo, hi + 1))
        return _apply(read, kind, count, rng)

    results = [corrupt(idx, read) for idx, read in enumerate(readset)]
    reads = tuple(r for r, _ in results)
    entries = tuple(e for _, es in results for e in es)
    return (
        ReadSet(reads, source=f"{readset.source}|{spec.kind}:{spec.regime}"),
        ErrorLedger(entries),
    )


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
    return ReadSet(tuple(out), source=f"{corrupted.source}|reverted")
