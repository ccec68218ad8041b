"""K-mer spectrum correction, external-tool adapters, and correction gain.

The built-in corrector is substitution-only: scanning each read left to
right, any k-mer whose spectrum count is below the solid threshold triggers a
search over all single-base replacements inside the window; the replacement
with the highest solid count is applied (ties go to the lexicographically
smallest resulting k-mer).  At most ``max_edits`` replacements are applied
per read, after which scanning stops.  Read lengths never change, so
indel-corrupted reads flow through with their lengths intact.

External tools run through a command template with ``{input}``, ``{output}``
and exactly one tunable placeholder (``{k}`` or ``{GL}``).  Exchange happens
via temporary files, never pipes; the environment variable ``ATHENA_TMPDIR``
overrides where those files live.
"""

from __future__ import annotations

import os
import shlex
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from typing import Callable

from .seqio import Read, ReadSet, load_reads, write_fastq

TMPDIR_ENV = "ATHENA_TMPDIR"
_ACGT = frozenset("ACGT")


class GainUndefinedError(ValueError):
    pass


class AlignmentError(ValueError):
    pass


class AdapterError(RuntimeError):
    pass


@dataclass
class SpectrumStats:
    reads: int = 0
    short_reads: int = 0
    kmers: int = 0


def kmer_spectrum(
    readset: ReadSet, k: int, stats: SpectrumStats | None = None
) -> dict[str, int]:
    """Counts of every ACGT-only k-mer over all overlapping windows.

    Reads shorter than k contribute nothing (tallied on ``stats``).
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    spectrum: dict[str, int] = {}
    for read in readset:
        seq = read.sequence
        if len(seq) < k:
            if stats is not None:
                stats.short_reads += 1
            continue
        if stats is not None:
            stats.reads += 1
        clean = _ACGT.issuperset(seq)
        for i in range(len(seq) - k + 1):
            kmer = seq[i : i + k]
            if not clean and not _ACGT.issuperset(kmer):
                continue
            spectrum[kmer] = spectrum.get(kmer, 0) + 1
            if stats is not None:
                stats.kmers += 1
    return spectrum


def solid_threshold_for_coverage(coverage: float) -> int:
    """Heuristic solid-count threshold: one tenth of coverage, at least 2."""
    return max(2, round(coverage / 10))


@dataclass(frozen=True)
class KSpectrumConfig:
    k: int
    solid_min: int = 3
    max_edits: int = 2

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ValueError(f"k must be positive, got {self.k}")
        if self.solid_min < 1:
            raise ValueError(f"solid threshold must be >= 1, got {self.solid_min}")
        if self.max_edits < 0:
            raise ValueError(f"max_edits must be >= 0, got {self.max_edits}")


def _correct_read(
    read: Read, k: int, solid_min: int, max_edits: int, spectrum: dict[str, int]
) -> Read:
    seq = read.sequence
    if len(seq) < k or max_edits == 0:
        return read
    edits = 0
    i = 0
    end = len(seq) - k
    while i <= end:
        kmer = seq[i : i + k]
        if spectrum.get(kmer, 0) >= solid_min:
            i += 1
            continue
        best_count = 0
        best_kmer = None
        best_pos = -1
        best_base = ""
        for p in range(k):
            cur = kmer[p]
            head, tail = kmer[:p], kmer[p + 1 :]
            for b in "ACGT":
                if b == cur:
                    continue
                cand = head + b + tail
                c = spectrum.get(cand, 0)
                if c < solid_min:
                    continue
                if c > best_count or (
                    c == best_count and best_kmer is not None and cand < best_kmer
                ):
                    best_count = c
                    best_kmer = cand
                    best_pos = i + p
                    best_base = b
        if best_kmer is not None:
            seq = seq[:best_pos] + best_base + seq[best_pos + 1 :]
            edits += 1
            if edits >= max_edits:
                break
        i += 1
    if edits == 0:
        return read
    return Read(read.id, seq, read.quality)


def kspectrum_correct(
    readset: ReadSet,
    config: KSpectrumConfig,
    spectrum: dict[str, int] | None = None,
) -> ReadSet:
    """Correct every read against a k-mer spectrum.

    The spectrum defaults to the one counted from ``readset`` itself; pass one
    explicitly to correct a subsample against fuller counts.
    """
    if spectrum is None:
        spectrum = kmer_spectrum(readset, config.k)
    fixed = tuple(
        _correct_read(r, config.k, config.solid_min, config.max_edits, spectrum)
        for r in readset
    )
    return ReadSet(fixed, source=f"{readset.source}|kspec:k={config.k}")


def builtin_corrector(
    solid_min: int = 3, max_edits: int = 2
) -> Callable[[ReadSet, int], ReadSet]:
    """A (readset, k) -> readset function around kspectrum_correct."""

    def correct(readset: ReadSet, k: int) -> ReadSet:
        return kspectrum_correct(readset, KSpectrumConfig(k, solid_min, max_edits))

    return correct


# -- external tools -----------------------------------------------------------


@dataclass(frozen=True)
class ToolAdapter:
    """How to invoke an external corrector.

    ``command_template`` must mention ``{input}``, ``{output}``, and the one
    tunable placeholder named by ``param_name``.
    """

    command_template: str
    param_name: str = "k"
    workdir: str | None = None
    timeout: float | None = None

    def __post_init__(self) -> None:
        if self.param_name not in ("k", "GL"):
            raise ValueError(f"unsupported tunable parameter {self.param_name!r}")
        for ph in ("{input}", "{output}", "{%s}" % self.param_name):
            if ph not in self.command_template:
                raise ValueError(f"command template is missing {ph}")
        other = "{GL}" if self.param_name == "k" else "{k}"
        if other in self.command_template:
            raise ValueError(f"command template mixes {other} with {self.param_name}")


def run_external(adapter: ToolAdapter, value: int, readset: ReadSet) -> ReadSet:
    """Materialize reads, run the tool, parse its output.

    The working files live under ``ATHENA_TMPDIR`` (or the adapter's workdir,
    or the system default).  On success temporaries are removed; on failure
    the directory is kept, with captured stdout/stderr beside the files, and
    its path is included in the raised AdapterError.
    """
    base = adapter.workdir or os.environ.get(TMPDIR_ENV) or None
    tmpdir = tempfile.mkdtemp(prefix="ectuner-", dir=base)
    in_path = os.path.join(tmpdir, "input.fastq")
    out_path = os.path.join(tmpdir, "output.fastq")
    stdout_path = os.path.join(tmpdir, "stdout.txt")
    stderr_path = os.path.join(tmpdir, "stderr.txt")
    write_fastq(readset, in_path)
    subs = {
        "{input}": in_path,
        "{output}": out_path,
        "{%s}" % adapter.param_name: str(value),
    }
    argv = []
    for token in shlex.split(adapter.command_template):
        for ph, repl in subs.items():
            token = token.replace(ph, repl)
        argv.append(token)
    try:
        with open(stdout_path, "wb") as out_fh, open(stderr_path, "wb") as err_fh:
            proc = subprocess.run(
                argv,
                cwd=tmpdir,
                stdout=out_fh,
                stderr=err_fh,
                timeout=adapter.timeout,
            )
    except subprocess.TimeoutExpired:
        raise AdapterError(
            f"external corrector timed out after {adapter.timeout}s "
            f"(files kept in {tmpdir})"
        ) from None
    except OSError as exc:
        raise AdapterError(f"could not launch {argv[0]!r}: {exc}") from exc
    if proc.returncode != 0:
        tail = _tail(stderr_path)
        raise AdapterError(
            f"external corrector exited with {proc.returncode} "
            f"(files kept in {tmpdir}); stderr: {tail}"
        )
    if not os.path.exists(out_path):
        raise AdapterError(
            f"external corrector produced no output file (files kept in {tmpdir})"
        )
    corrected = load_reads(out_path)
    shutil.rmtree(tmpdir, ignore_errors=True)
    return ReadSet(
        corrected.reads, source=f"{readset.source}|tool:{adapter.param_name}={value}"
    )


def adapter_corrector(adapter: ToolAdapter) -> Callable[[ReadSet, int], ReadSet]:
    def correct(readset: ReadSet, value: int) -> ReadSet:
        return run_external(adapter, value, readset)

    return correct


def _tail(path: str, limit: int = 800) -> str:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return "<unavailable>"
    text = data[-limit:].decode("utf-8", "replace").strip()
    return text or "<empty>"


# -- evaluation ---------------------------------------------------------------


def ec_gain(original: ReadSet, corrected: ReadSet, truth: ReadSet) -> float:
    """(true positives - false positives) / errors, per base.

    A true positive is an erroneous base restored to the truth; a false
    positive is a correct base changed away from it.  All three sets must
    align read-for-read with equal lengths (substitution-only regime).
    """
    if not (len(original) == len(corrected) == len(truth)):
        raise AlignmentError(
            f"read counts differ: original {len(original)}, "
            f"corrected {len(corrected)}, truth {len(truth)}"
        )
    tp = 0
    fp = 0
    errors = 0
    for orig, corr, true in zip(original, corrected, truth):
        if orig.id != corr.id or orig.id != true.id:
            raise AlignmentError(
                f"read id mismatch: {orig.id!r} / {corr.id!r} / {true.id!r}"
            )
        if not (len(orig) == len(corr) == len(true)):
            raise AlignmentError(
                f"read {orig.id!r}: lengths differ "
                f"({len(orig)}/{len(corr)}/{len(true)})"
            )
        for o, c, t in zip(orig.sequence, corr.sequence, true.sequence):
            if o != t:
                errors += 1
                if c == t:
                    tp += 1
            elif c != t:
                fp += 1
    if errors == 0:
        raise GainUndefinedError("no erroneous bases; gain is undefined")
    return (tp - fp) / errors
