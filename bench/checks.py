"""Independent recomputations the benchmark checks the program's outputs by.

Nothing here calls into ``ectuner``.  FASTQ parsing, correction gain, k-mer
spectra, edit justification, ledger replay and word counts are written from
their definitions, so a fault in the program cannot hide in a shared helper.
"""

from __future__ import annotations

import collections
import itertools

import numpy as np

ACGT = frozenset("ACGT")


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def read_fastq(path: str) -> list[tuple[str, str]]:
    """(id, sequence) of every record of a 4-line FASTQ file."""
    with open(path) as fh:
        lines = fh.read().split("\n")
    require(len(lines) % 4 == 1 and lines[-1] == "", f"{path}: not 4-line FASTQ")
    return [
        (lines[i][1:].split()[0], lines[i + 1]) for i in range(0, len(lines) - 1, 4)
    ]


def write_fastq(records: list[tuple[str, str]], path: str) -> None:
    with open(path, "w") as fh:
        for rid, seq in records:
            fh.write(f"@{rid}\n{seq}\n+\n{'I' * len(seq)}\n")


def _base_matrix(records: list[tuple[str, str]]) -> np.ndarray:
    lengths = {len(s) for _, s in records}
    require(len(lengths) == 1, "gain needs reads of one length")
    joined = "".join(s for _, s in records).encode("ascii")
    return np.frombuffer(joined, dtype=np.uint8).reshape(len(records), -1)


def gain(original, corrected, truth) -> float:
    """(bases restored - bases broken) / erroneous bases, over aligned reads."""
    require(
        [r for r, _ in original] == [r for r, _ in corrected] == [r for r, _ in truth],
        "gain: read ids differ between original, corrected and truth",
    )
    o, c, t = _base_matrix(original), _base_matrix(corrected), _base_matrix(truth)
    wrong = o != t
    restored = int(np.count_nonzero(wrong & (c == t)))
    broken = int(np.count_nonzero(~wrong & (c != t)))
    errors = int(np.count_nonzero(wrong))
    require(errors > 0, "gain: no erroneous bases")
    return (restored - broken) / errors


def spectrum(seqs, k: int) -> collections.Counter:
    """Counts of every ACGT-only k-mer over all overlapping windows."""
    counts = collections.Counter()
    for s in seqs:
        windows = (s[i : i + k] for i in range(len(s) - k + 1))
        if ACGT.issuperset(s):
            counts.update(windows)
        else:
            counts.update(w for w in windows if ACGT.issuperset(w))
    return counts


def check_corrections(inputs, outputs, k, solid_min, max_edits, counts) -> int:
    """Corrected reads keep ids and lengths, differ from their input in at
    most ``max_edits`` bases, and every changed base sits in a window that a
    subset of the read's edits (the ones applied by then) turns into a solid
    k-mer of ``counts``.  Returns the number of reads changed.
    """
    require(len(inputs) == len(outputs), "corrected read count differs")
    changed = 0
    for (rid, before), (cid, after) in zip(inputs, outputs):
        require(rid == cid, f"corrected read id {cid!r} where {rid!r} was")
        require(len(before) == len(after), f"read {rid!r} changed length")
        if before == after:
            continue
        changed += 1
        edits = [p for p in range(len(before)) if before[p] != after[p]]
        require(len(edits) <= max_edits, f"read {rid!r}: {len(edits)} edits")
        for p in edits:
            require(
                _justified(before, after, edits, p, k, solid_min, counts),
                f"read {rid!r}: edit at {p} makes no solid {k}-mer",
            )
    return changed


def _justified(before, after, edits, p, k, solid_min, counts) -> bool:
    others = [q for q in edits if q != p]
    for n in range(len(others) + 1):
        for subset in itertools.combinations(others, n):
            seq = list(before)
            for q in (p, *subset):
                seq[q] = after[q]
            seq = "".join(seq)
            for i in range(max(0, p - k + 1), min(p, len(seq) - k) + 1):
                if counts.get(seq[i : i + k], 0) >= solid_min:
                    return True
    return False


def replay_ledger(corrupted, ledger_path: str) -> list[tuple[str, str]]:
    """Undo every ledgered change, last first, from the TSV alone."""
    changes = collections.defaultdict(list)
    with open(ledger_path) as fh:
        header = fh.readline().rstrip("\n").split("\t")
        require(
            header == ["read_id", "position", "kind", "original", "observed"],
            f"{ledger_path}: unexpected header {header}",
        )
        for line in fh:
            rid, pos, kind, original, observed = line.rstrip("\n").split("\t")
            changes[rid].append((int(pos), kind, original, observed))
    out = []
    for rid, seq in corrupted:
        for pos, kind, original, observed in reversed(changes.pop(rid, [])):
            found = seq[pos : pos + len(observed)]
            require(found == observed, f"ledger: read {rid!r} at {pos} has {found!r}")
            if kind not in ("substitution", "insertion", "deletion"):
                raise CheckFailed(f"ledger: unknown kind {kind!r}")
            seq = seq[:pos] + original + seq[pos + len(observed) :]
        out.append((rid, seq))
    require(not changes, f"ledger names unknown reads {sorted(changes)[:3]}")
    return out


def full_words(seqs, word_len: int) -> int:
    """Non-overlapping words of ``word_len`` from offset 0 that are all ACGT."""
    return sum(
        1
        for s in seqs
        for i in range(len(s) // word_len)
        if ACGT.issuperset(s[i * word_len : (i + 1) * word_len])
    )


def char_transitions(seqs) -> int:
    """Next-character predictions with an ACGT target, over reads of length >= 2."""
    return sum(sum(1 for ch in s[1:] if ch in ACGT) for s in seqs if len(s) >= 2)


def word_runs(seq: str, word_len: int) -> list[tuple[str, ...]]:
    """The read's full words split into runs at words that are not all ACGT."""
    runs, current = [], []
    for i in range(len(seq) // word_len):
        word = seq[i * word_len : (i + 1) * word_len]
        if ACGT.issuperset(word):
            current.append(word)
        elif current:
            runs.append(tuple(current))
            current = []
    if current:
        runs.append(tuple(current))
    return runs
