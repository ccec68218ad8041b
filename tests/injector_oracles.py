"""Per-read reference for read simulation and error injection: the scalar
paths that ``ectuner.injector`` replaced with packed ones.

``sample_clean_reads`` makes one ``Read`` per read and packs them with
``ReadSet(reads)``.  ``inject_readset`` gives each read its own
``spawn_rng(seed, index)`` generator, makes one ``integers`` call per draw,
in the order the injector's module docstring documents, and assembles the
ledger entry by entry; ``write_ledger`` writes those entries line by line,
and ``read_ledger`` reads a ledger TSV back into an ``ErrorLedger``.
Tests compare the packed paths to these with exact ``==``.
"""

from __future__ import annotations

import numpy as np

from ectuner._rng import make_rng
from ectuner.injector import KINDS, REGIMES, ErrorLedger, InjectionSpec, LedgerEntry
from ectuner.seqio import BASES, LETTERS, Read, ReadSet
from rng_oracles import spawn_rng


def sample_clean_reads(genome: str, n: int, read_len: int, seed: int) -> ReadSet:
    """n ``Read`` substrings at uniform start positions, packed afterwards."""
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


def _delete(seq: str, d: int, rng: np.random.Generator) -> tuple[str, list]:
    l = len(seq)
    if not 0 < d < l:
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


def substitute(seq: str, n: int, rng: np.random.Generator) -> tuple[str, list]:
    """n scalar position/base draw pairs, with replacement across positions."""
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


_EDIT_FNS = {"deletion": _delete, "insertion": _insert, "substitution": substitute}


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


def corrupt(idx: int, read: Read, spec: InjectionSpec):
    """One read's corrupted copy and ledger entries, from its own stream."""
    lo, hi = REGIMES[spec.regime]
    rng = spawn_rng(spec.seed, idx)
    kind = spec.kind
    if kind == "mixture":
        kind = KINDS[int(rng.integers(0, 3))]
    count = int(rng.integers(lo, hi + 1))
    return _apply(read, kind, count, rng)


def inject_readset(readset: ReadSet, spec: InjectionSpec):
    """Every read corrupted one at a time: the reads and the ledger entries."""
    results = [corrupt(idx, read, spec) for idx, read in enumerate(readset)]
    return [r for r, _ in results], [e for _, es in results for e in es]


def write_ledger(entries, path: str) -> None:
    """The ledger TSV, one line per entry."""
    with open(path, "w") as fh:
        fh.write("read_id\tposition\tkind\toriginal\tobserved\n")
        for e in entries:
            fh.write(f"{e.read_id}\t{e.position}\t{e.kind}\t{e.original}\t{e.observed}\n")


def read_ledger(path: str) -> ErrorLedger:
    """The ledger in a TSV file that ``ErrorLedger.to_tsv`` wrote."""
    with open(path) as fh:
        assert fh.readline() == "read_id\tposition\tkind\toriginal\tobserved\n"
        rows = [line.rstrip("\n").split("\t") for line in fh]
    return ErrorLedger(LedgerEntry(rid, int(pos), kind, orig, obs)
                       for rid, pos, kind, orig, obs in rows)
