"""K-mer spectrum correction, external-tool adapters, and correction gain.

The built-in corrector is substitution-only: scanning each read left to
right, any k-mer whose spectrum count is below the solid threshold triggers a
search over all single-base replacements inside the window; the replacement
with the highest solid count is applied (ties go to the lexicographically
smallest resulting k-mer).  At most ``max_edits`` replacements are applied
per read, after which scanning stops.  Read lengths never change, so
indel-corrupted reads flow through with their lengths intact.

The corrector and the spectrum read a ``seqio.ReadSet``'s packed base codes
directly: N is code 4, which no solid k-mer contains, and the code-4
separator after each read keeps windows from spanning two reads.  A k-mer is
the 2k-bit number its codes spell, so k is at most 32.

A spectrum is a ``KmerSpectrum``: the sorted codes of every distinct k-mer
and their counts.  It is built in blocks of windows.  In a block, the codes
of all 2-base windows come from pairs of 1-base codes, those of 4-base
windows from pairs of 2-base codes, and so on up to k, each width in the
narrowest unsigned type that holds it; the power-of-two pieces of k are then
joined, widest first.  A running count of code 4 drops the windows holding
an N or a separator, and the rest go into one buffer, one slot per in-read
window, which is sorted and cut into runs of equal codes.

The corrector advances every read through the same scan position together,
one position per round.  Most weak windows have no solid neighbour at all,
so the search first checks the window's halves: with h = k // 2, its head is
its first h bases and its tail its last k - h.  A replacement at offset h or
later leaves the head as it is, so it can only be solid if some solid k-mer
starts with that head; one before h leaves the tail, which some solid k-mer
must then end with.  The candidates of a half that fails this test could
only count 0, so they are never looked up, and a window whose halves both
fail is not searched.  An unknown base is no exception: only its own offset
can be fixed, and the other half of the window is all ACGT.  Of the
candidates in the halves that pass, only the few found solid, about one per
weak window, are ranked: by count, highest first, then by code.

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

import numpy as np

from .seqio import ParseError, ReadSet, find_sorted, load_reads, write_fastq

TMPDIR_ENV = "ATHENA_TMPDIR"
MAX_K = 32
DEFAULT_SOLID_MIN = 3
DEFAULT_MAX_EDITS = 2
# Windows per block of ``kmer_spectrum``: a block's pieces take a few MB,
# where a whole-set build would hold a set-sized array per piece.
_SPECTRUM_BLOCK = 1 << 16


class GainUndefinedError(ValueError):
    pass


class AlignmentError(ValueError):
    pass


class AdapterError(RuntimeError):
    pass


def check_k(k: int) -> None:
    """Raise ValueError unless the built-in corrector can use k-mers of size k."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if k > MAX_K:
        raise ValueError(f"k={k} exceeds the built-in corrector's limit of {MAX_K}")


@dataclass(frozen=True, eq=False)
class KmerSpectrum:
    """The distinct ACGT k-mers of a read set as sorted ``uint64`` codes
    (``seqio.encode_word``'s), with their ``int64`` counts.

    There is no ``==``: numpy arrays make dataclass equality ambiguous."""

    k: int
    codes: np.ndarray
    counts: np.ndarray

    def __len__(self) -> int:
        return len(self.codes)

    def values(self) -> list[int]:
        """The counts, as Python ints, in code order."""
        return self.counts.tolist()


def kmer_spectrum(readset: ReadSet, k: int) -> KmerSpectrum:
    """Counts of every ACGT-only k-mer over all overlapping windows; reads
    shorter than k contribute nothing."""
    check_k(k)
    bases = readset.codes
    # one slot per in-read window; those free of N fill it from the front
    kmers = np.empty(int(np.maximum(readset.lengths - k + 1, 0).sum()), np.uint64)
    filled = 0
    for first in range(0, len(bases) - k + 1, _SPECTRUM_BLOCK):
        block = bases[first : first + _SPECTRUM_BLOCK + k - 1]
        unknown = np.zeros(len(block) + 1, np.int32)
        np.cumsum(block == 4, dtype=np.int32, out=unknown[1:])
        clean = unknown[k:] == unknown[:-k]
        taken = int(np.count_nonzero(clean))
        np.compress(clean, _window_codes(block, k), out=kmers[filled : filled + taken])
        filled += taken
    kmers = kmers[:filled]
    kmers.sort()
    # where each run of equal k-mers starts, and where the last one ends
    bounds = np.append(np.flatnonzero(_run_firsts(kmers)), filled)
    codes = kmers[bounds[:-1]]
    # the sorted k-mers are spent: free them before the counts are formed
    del kmers
    return KmerSpectrum(k, codes, np.diff(bounds))


# the narrowest unsigned type that holds the code of 2, 4, 8, 16, 32 bases
_PIECE_TYPES = {2: np.uint8, 4: np.uint8, 8: np.uint16, 16: np.uint32, 32: np.uint64}


def _window_codes(bases: np.ndarray, k: int) -> np.ndarray:
    """The ``uint64`` code of every k-base window of ``bases``, N read as A.

    The codes of 2w-base windows are those of w-base windows joined in
    pairs, so the codes of every power-of-two width up to k take one pass
    each; k's binary pieces are then joined, widest first."""
    windows = len(bases) - k + 1
    piece = bases & np.uint8(3)
    pieces = {1: piece} if k & 1 else {}
    width = 1
    while 2 * width <= k:
        wider = piece[:-width].astype(_PIECE_TYPES[2 * width])
        wider <<= 2 * width
        wider |= piece[width:]
        piece, width = wider, 2 * width
        if k & width:
            pieces[width] = piece
    widest, *rest = sorted(pieces, reverse=True)
    codes = pieces[widest][:windows].astype(np.uint64)
    at = widest
    for width in rest:
        codes <<= np.uint64(2 * width)
        codes |= pieces[width][at : at + windows]
        at += width
    return codes


@dataclass(frozen=True)
class KSpectrumConfig:
    k: int
    solid_min: int = DEFAULT_SOLID_MIN
    max_edits: int = DEFAULT_MAX_EDITS

    def __post_init__(self) -> None:
        check_k(self.k)
        if self.solid_min < 1:
            raise ValueError(f"solid threshold must be >= 1, got {self.solid_min}")
        if self.max_edits < 0:
            raise ValueError(f"max_edits must be >= 0, got {self.max_edits}")


class _SolidCounts:
    """The solid k-mers of a spectrum, looked up for many codes at once.

    Most queried codes are absent, so a table of occupied hash slots, at
    most one in 16 set, rules most of them out before the binary search.
    ``heads`` and ``tails`` hold the distinct first ``k // 2`` and last
    ``k - k // 2`` bases of the solid k-mers, as codes."""

    def __init__(
        self, codes: np.ndarray, counts: np.ndarray, solid_min: int, k: int
    ) -> None:
        solid = counts >= solid_min
        self.codes = codes[solid]
        self.counts = counts[solid]
        bits = max(10, (16 * len(self.codes)).bit_length())
        self.shift = np.uint64(64 - bits)
        self.occupied = np.zeros(1 << bits, bool)
        self.occupied[self._slot(self.codes)] = True
        self.head_shift = np.uint64(2 * (k - k // 2))
        self.tail_mask = np.uint64((1 << 2 * (k - k // 2)) - 1)
        self.heads = _sorted_set(self.codes >> self.head_shift)
        self.tails = _sorted_set(self.codes & self.tail_mask)

    def _slot(self, codes: np.ndarray) -> np.ndarray:
        return (codes * np.uint64(0x9E3779B97F4A7C15)) >> self.shift

    def hits(self, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The positions of the solid codes in the flat ``query``, ascending,
        and their counts."""
        maybe = np.flatnonzero(self.occupied[self._slot(query)])
        i = find_sorted(self.codes, query[maybe])
        hit = i >= 0
        return maybe[hit], self.counts[i[hit]]

    def halves(self, kmers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Whether each k-mer's head, and its tail, starts or ends a solid k-mer."""
        return (
            find_sorted(self.heads, kmers >> self.head_shift) >= 0,
            find_sorted(self.tails, kmers & self.tail_mask) >= 0,
        )


def _sorted_set(values: np.ndarray) -> np.ndarray:
    """The distinct ``values``, ascending, as ``np.unique`` gives them; on
    the halves of solid k-mers, sorting and dropping repeats is over ten
    times faster than its hashing."""
    values = np.sort(values)
    return values[_run_firsts(values)]


def _run_firsts(values: np.ndarray) -> np.ndarray:
    """Whether each of the sorted ``values`` is the first of its run of equals."""
    first = np.ones(len(values), bool)
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return first


def _correct_packed(
    bases: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    k: int,
    max_edits: int,
    solid: _SolidCounts,
) -> None:
    """Run the scan over every read at once, round i examining window i of
    each read still scanning.  Edits are written into ``bases``.
    Each half of a window's offsets is searched only if the half that its
    replacements keep passes ``solid.halves`` (see the module docstring)."""
    scanning = (lengths >= k) & (max_edits > 0)
    at = starts[scanning]  # where each scanning read's current window starts
    stop = at + lengths[scanning] - k
    offsets = np.arange(k)
    shifts = 2 * np.arange(k - 1, -1, -1, dtype=np.uint64)  # first base highest
    kmers = np.zeros(len(at), np.uint64)
    broken = np.zeros(len(at), np.int64)  # unknown bases in the window
    for j in range(k):
        column = bases[at + j]
        kmers <<= 2
        kmers |= column & 3
        broken += column == 4
    edits = np.zeros(len(at), np.int64)
    keep = ~(np.uint64(3) << shifts)
    placed = np.arange(4, dtype=np.uint64) << shifts[:, None]  # (k, 4)
    width_mask = np.uint64((1 << 2 * k) - 1)
    # the offsets whose replacement keeps the tail, and those keeping the head
    spans = (offsets[: k // 2], offsets[k // 2 :])
    while len(at):
        insolid = np.ones(len(at), bool)
        insolid[solid.hits(kmers)[0]] = False
        # a window with two unknown bases has no solid single-base neighbour
        weak = np.flatnonzero((insolid | (broken > 0)) & (broken <= 1))
        head_ok, tail_ok = solid.halves(kmers[weak])
        found = []
        for span, units in zip(spans, (weak[tail_ok], weak[head_ok])):
            if not len(span):
                continue
            # units in blocks, so a block's candidates stay small
            step = max(1, 16384 // len(span))
            for s in range(0, len(units), step):
                found.append(_solid_neighbours(
                    solid, bases, at, kmers, broken, units[s : s + step],
                    span, keep, placed,
                ))
        if found:
            w, count, kmer, j = (np.concatenate(parts) for parts in zip(*found))
            # each window's best neighbour: highest count, then smallest
            # code; a window's candidates all differ, so no two tie on both
            order = np.lexsort((kmer, -count, w))
            best = order[_run_firsts(w[order])]
            fix, kmer, j = w[best], kmer[best], j[best]
            pos = at[fix] + j
            broken[fix] -= bases[pos] == 4
            bases[pos] = (kmer >> shifts[j]) & 3
            kmers[fix] = kmer
            edits[fix] += 1
        at += 1
        live = (edits < max_edits) & (at <= stop)
        at, stop, kmers, broken, edits = (
            a[live] for a in (at, stop, kmers, broken, edits)
        )
        incoming = bases[at + k - 1]
        kmers = ((kmers << 2) | (incoming & 3)) & width_mask
        broken += incoming == 4
        broken -= bases[at - 1] == 4


def _solid_neighbours(
    solid: _SolidCounts,
    bases: np.ndarray,
    at: np.ndarray,
    kmers: np.ndarray,
    broken: np.ndarray,
    units: np.ndarray,
    span: np.ndarray,
    keep: np.ndarray,
    placed: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The solid single-base replacements at the offsets ``span`` of the
    windows ``units`` (which start at ``at``, with codes ``kmers`` and
    ``broken`` unknown bases), as four arrays: window, count, code, offset."""
    cand = ((kmers[units, None] & keep[span])[:, :, None] | placed[span]).ravel()
    pos, count = solid.hits(cand)
    w = units[pos // (4 * len(span))]
    j = span[pos // 4 % len(span)]
    # the unchanged base gives the window itself, insolid; with an unknown
    # base, only the offset replacing it can be solid
    ok = (broken[w] == 0) | (bases[at[w] + j] == 4)
    return w[ok], count[ok], cand[pos[ok]], j[ok]


def kspectrum_correct(
    readset: ReadSet,
    config: KSpectrumConfig,
    spectrum: KmerSpectrum | None = None,
) -> ReadSet:
    """Correct every read against a k-mer spectrum.

    The spectrum defaults to the one counted from ``readset`` itself; pass one
    explicitly to correct a subsample against fuller counts.  An explicit
    spectrum must be a ``KmerSpectrum`` of ``config.k``.
    """
    if spectrum is None:
        spectrum = kmer_spectrum(readset, config.k)
    elif not (isinstance(spectrum, KmerSpectrum) and spectrum.k == config.k):
        raise ValueError(f"spectrum must be a KmerSpectrum of k={config.k}")
    solid = _SolidCounts(spectrum.codes, spectrum.counts, config.solid_min, config.k)
    bases = readset.codes.copy()
    _correct_packed(
        bases, readset.starts, readset.lengths, config.k, config.max_edits, solid
    )
    return readset.with_codes(bases)


def builtin_corrector(
    solid_min: int = DEFAULT_SOLID_MIN, max_edits: int = DEFAULT_MAX_EDITS
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
    tunable placeholder named by ``param_name``; a ``timeout``, in seconds,
    must be positive.
    """

    command_template: str
    param_name: str = "k"
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
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")


def run_external(adapter: ToolAdapter, value: int, readset: ReadSet) -> ReadSet:
    """Materialize reads, run the tool, parse its output.

    The working files live under ``ATHENA_TMPDIR`` (or the system default).
    On success temporaries are removed; on failure the directory is kept,
    with captured stdout/stderr beside the files, and its path is included
    in the raised AdapterError.
    """
    base = os.environ.get(TMPDIR_ENV) or None
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
        msg = f"could not launch {argv[0]!r} (files kept in {tmpdir}): {exc}"
        raise AdapterError(msg) from exc
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
    try:
        corrected = load_reads(out_path)
    except (ParseError, UnicodeDecodeError) as exc:
        raise AdapterError(
            f"external corrector output is unreadable (files kept in {tmpdir}): {exc}"
        ) from exc
    shutil.rmtree(tmpdir, ignore_errors=True)
    return corrected


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
    sets = (original, corrected, truth)
    if not (
        original.ids == corrected.ids == truth.ids
        and all(np.array_equal(original.lengths, s.lengths) for s in sets[1:])
    ):
        # walked read by read only to name the first mismatch
        lengths = zip(*(s.lengths.tolist() for s in sets))
        for (a, b, c), (la, lb, lc) in zip(zip(*(s.ids for s in sets)), lengths):
            if not a == b == c:
                raise AlignmentError(f"read id mismatch: {a!r} / {b!r} / {c!r}")
            if not la == lb == lc:
                raise AlignmentError(f"read {a!r}: lengths differ ({la}/{lb}/{lc})")
    o, c, t = (s.codes for s in sets)
    wrong = o != t
    errors = int(np.count_nonzero(wrong))
    if errors == 0:
        raise GainUndefinedError("no erroneous bases; gain is undefined")
    tp = int(np.count_nonzero(wrong & (c == t)))
    fp = int(np.count_nonzero(~wrong & (c != t)))
    return (tp - fp) / errors
