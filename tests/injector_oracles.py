"""Per-read reference for error injection: the scalar path that
``ectuner.injector.inject_readset`` replaced with block injection.

Each read gets its own ``spawn_rng(seed, index)`` generator and makes one
``integers`` call per draw, in the order the injector's module docstring
documents.  Tests compare the block path to this one with exact ``==``.
"""

from __future__ import annotations

import numpy as np

from ectuner._rng import spawn_rng
from ectuner.injector import KINDS, REGIMES, InjectionSpec, LedgerEntry
from ectuner.seqio import BASES, LETTERS, Read, ReadSet


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
