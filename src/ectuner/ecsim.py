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
one position per round, and looks every window up in an exact hash index of
the solid k-mers.  A weak window's solid neighbours come from sorted runs:
with h = k // 2, a replacement at offset h or later keeps the window's first
h bases (its head), so it can only give a solid k-mer of the run that shares
the head; one before h keeps the last k - h (the tail), and the run that
shares the tail.  Of the two runs, the k-mers one base from the window are
its solid neighbours.  A run grows as 4^-h of the solid set, so a half whose
run is longer than a few times its 3 single-base changes per offset probes
the hash index with those changes instead.  Candidates are expanded a block
at a time, and the neighbours ranked: by count, highest first, then by code.
A window with an unknown base, read as A, may change only that base.

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
# Candidates per block of the corrector's neighbour search, for the same
# reason: a round's runs, expanded whole, can take hundreds of MB.
_NEIGHBOUR_BLOCK = 1 << 14
# About how many run candidates one probe of the hash index costs, as timed
# on 200 kb and 1 Mb genomes at k = 11..17
_PROBE_COST = 4


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

    There is no ``==``: numpy arrays make dataclass equality ambiguous.
    ``kmer_spectrum`` builds them well formed; ``check`` refuses a bad one
    passed in from outside, which the corrector would take silently."""

    k: int
    codes: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        check_k(self.k)

    def check(self) -> None:
        """Raise ValueError unless the codes are flat, strictly ascending
        ``uint64`` k-mers and the counts integers of one length, all >= 1."""
        codes, counts = self.codes, self.counts
        if not (codes.dtype == np.uint64 and counts.dtype.kind in "iu"
                and codes.ndim == 1 and codes.shape == counts.shape):
            raise ValueError(
                "spectrum codes must be flat uint64 and counts integers of one "
                f"length, got {codes.dtype} {codes.shape}, {counts.dtype} {counts.shape}"
            )
        if np.any(codes[1:] <= codes[:-1]):
            raise ValueError("spectrum codes must be strictly ascending")
        if len(codes) and int(codes[-1]) >= 4**self.k:
            raise ValueError(f"spectrum code {int(codes[-1])} is not a {self.k}-mer")
        if len(counts) and counts.min() < 1:
            raise ValueError("spectrum counts must be at least 1")

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

    ``table`` is an exact hash index: each slot holds the index in ``codes``
    of one key, or -1.  Keys go in the order of their home slots, each to its
    home or the first free slot after it, so a key sits at most ``reach``
    slots past its home and an empty home means the key is absent.

    ``run_codes`` and ``run_counts`` are the solid k-mers sorted by code,
    then again stable-sorted by tail.  With h = k // 2, the k-mers whose
    first h bases are ``heads[i]`` are ``run_codes[head_runs[i + 1] :
    head_runs[i + 2]]``; those whose last k - h are ``tails[i]``, the same
    slice by ``tail_runs``; i = -1 gives an empty slice.  ``flips`` holds
    the XOR of every single-base change of a half, for probing."""

    def __init__(
        self, codes: np.ndarray, counts: np.ndarray, solid_min: int, k: int
    ) -> None:
        solid = counts >= solid_min
        codes, counts, n, self.k = codes[solid], counts[solid], int(solid.sum()), k
        self.head_shift = np.uint64(2 * (k - k // 2))
        self.tail_mask = np.uint64((1 << 2 * (k - k // 2)) - 1)
        by_tail = np.argsort(codes & self.tail_mask, kind="stable")
        self.run_codes = np.concatenate((codes, codes[by_tail]))
        self.run_counts = np.concatenate((counts, counts[by_tail]))
        self.codes = self.run_codes[:n]
        self.heads, self.head_runs = _runs(self.codes >> self.head_shift)
        self.tails, self.tail_runs = _runs(self.run_codes[n:] & self.tail_mask)
        self.tail_runs += n
        # the XOR of each single-base change at offsets 0..h-1, then 0 (the
        # k-mer itself), then those at offsets h..k-1, then 0
        flips = [b << 2 * (k - 1 - j) for j in range(k) for b in (1, 2, 3)]
        flips.insert(3 * (k // 2), 0)
        self.flips = np.array(flips + [0], np.uint64)
        # at most one slot in four taken, so few keys sit past their homes
        bits = max(10, (4 * n).bit_length())
        self.shift = np.uint64(64 - bits)
        home = self._home(self.codes)
        order = np.argsort(home, kind="stable")
        rank = np.arange(n)
        slot = rank + np.maximum.accumulate(home[order] - rank)
        self.reach = int((slot - home[order]).max(initial=0))
        self.table = np.full((1 << bits) + self.reach, -1, np.int32)
        self.table[slot] = order

    def _home(self, codes: np.ndarray) -> np.ndarray:
        # the top bits of a 64-bit product: below 2**63, so a view as int64
        return ((codes * np.uint64(0x9E3779B97F4A7C15)) >> self.shift).view(np.int64)

    def index(self, query: np.ndarray) -> np.ndarray:
        """The index of each query in ``codes``, or -1 where absent."""
        if not len(self.codes):
            return np.full(len(query), -1, np.int64)
        home = self._home(query)
        at = self.table[home]
        # an empty home (-1) reads the last code, but then the query is absent
        hit = self.codes[at] == query
        found = np.where(hit, at, -1)
        # a query whose home holds another key may sit up to reach slots on
        moved = np.flatnonzero((at >= 0) & ~hit)
        if self.reach and len(moved):
            at = self.table[home[moved, None] + np.arange(1, self.reach + 1)]
            match = (at >= 0) & (self.codes[at] == query[moved, None])
            got = np.flatnonzero(match.any(1))
            found[moved[got]] = at[got, match[got].argmax(1)]
        return found

    def neighbours(
        self, kmers: np.ndarray, unknown: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The solid k-mers one base from each of ``kmers``, as four arrays:
        k-mer, count, code, offset.  ``unknown`` is the offset of each
        k-mer's unknown base, read as A, or -1; a k-mer holding one may
        change only that base, to any of the four."""
        k, h, n = self.k, self.k // 2, len(kmers)
        heads = find_sorted(self.heads, kmers >> self.head_shift) + 1
        tails = find_sorted(self.tails, kmers & self.tail_mask) + 1
        # every k-mer's head half (offsets h..k-1, found in its head run),
        # then every k-mer's tail half (offsets 0..h-1, in its tail run)
        lo = np.concatenate((self.head_runs[heads], self.tail_runs[tails]))
        sizes = np.concatenate((self.head_runs[heads + 1], self.tail_runs[tails + 1])) - lo
        # a half whose run is longer than _PROBE_COST times its list in
        # ``flips`` probes the hash index with the k-mer's flips instead
        flips = np.repeat([3 * (k - h) + 1, 3 * h + 1], n)
        probe = sizes > _PROBE_COST * flips
        sizes[probe] = flips[probe]
        lo[probe] = np.repeat([3 * h + 1, 0], n)[probe]
        ends = np.cumsum(sizes)
        # a candidate's place in the flattened halves, plus this, is its index
        offset = lo + sizes - ends
        found = [tuple(np.empty(0, t) for t in (np.int64, np.int64, np.uint64, np.int64))]
        first = 0
        while first < len(lo):
            # the next halves, up to _NEIGHBOUR_BLOCK candidates, or one half
            spent = ends[first - 1] if first else 0
            last = max(first + 1, int(np.searchsorted(ends, spent + _NEIGHBOUR_BLOCK, "right")))
            r = np.repeat(np.arange(first, last), sizes[first:last])
            # a run candidate's index in run_codes; a probe's in codes, or -1
            i = np.arange(spent, ends[last - 1]) + offset[r]
            w = r % n
            x = kmers[w]
            p = np.flatnonzero(probe[r])
            if len(p):
                i[p] = self.index(x[p] ^ self.flips[i[p]])
            y = self.run_codes[i]
            d = x ^ y
            m = (d | d >> 1) & np.uint64(0x5555555555555555)
            one = np.flatnonzero(((m & (m - 1)) == 0) & (i >= 0))
            r, w, i, y, m = r[one], w[one], i[one], y[one], m[one]
            # the offset of the one base that differs; the k-mer itself
            # replaces its unknown base with A, taken from the half that
            # holds that base
            u = unknown[w]
            j = np.where(m == 0, u, k - 1 - (np.frexp(m.astype(np.float64))[1] - 1) // 2)
            ok = ((u < 0) | (j == u)) & (j >= 0) & ((r < n) == (j >= h))
            found.append((w[ok], self.run_counts[i[ok]], y[ok], j[ok]))
            first = last
        return tuple(np.concatenate(parts) for parts in zip(*found))


def _runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct sorted ``values`` and the bounds of their runs: the
    i-th run is ``bounds[i + 1] : bounds[i + 2]``, after an empty one."""
    first = _run_firsts(values)
    return values[first], np.concatenate(([0], np.flatnonzero(first), [len(values)]))


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
    each read still scanning.  Edits are written into ``bases``."""
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
    width_mask = np.uint64((1 << 2 * k) - 1)
    while len(at):
        # a window with two unknown bases has no solid single-base neighbour
        weak = np.flatnonzero(((solid.index(kmers) < 0) | (broken > 0)) & (broken <= 1))
        unknown = np.full(len(weak), -1)
        one = np.flatnonzero(broken[weak])
        if len(one):
            unknown[one] = np.argmax(bases[at[weak[one], None] + offsets] == 4, axis=1)
        w, count, kmer, j = solid.neighbours(kmers[weak], unknown)
        if len(w):
            # each window's best neighbour: highest count, then smallest
            # code; a window's candidates all differ, so no two tie on both
            order = np.lexsort((kmer, -count, w))
            best = order[_run_firsts(w[order])]
            fix, kmer, j = weak[w[best]], kmer[best], j[best]
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


def kspectrum_correct(
    readset: ReadSet,
    config: KSpectrumConfig,
    spectrum: KmerSpectrum | None = None,
) -> ReadSet:
    """Correct every read against a k-mer spectrum.

    The spectrum defaults to the one counted from ``readset`` itself; pass one
    explicitly to correct a subsample against fuller counts.  An explicit
    spectrum must be a well-formed ``KmerSpectrum`` of ``config.k``.
    """
    if spectrum is None:
        spectrum = kmer_spectrum(readset, config.k)
    elif not (isinstance(spectrum, KmerSpectrum) and spectrum.k == config.k):
        raise ValueError(f"spectrum must be a KmerSpectrum of k={config.k}")
    else:
        spectrum.check()
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

    ``command_template`` must mention ``{input}``, ``{output}`` and exactly
    one tunable placeholder, ``{k}`` or ``{GL}``, which names the tool's
    ``param_name``; a ``timeout``, in seconds, must be positive.
    """

    command_template: str
    timeout: float | None = None

    def __post_init__(self) -> None:
        for ph in ("{input}", "{output}"):
            if ph not in self.command_template:
                raise ValueError(f"command template is missing {ph}")
        if ("{k}" in self.command_template) == ("{GL}" in self.command_template):
            raise ValueError("command template must hold exactly one of {k} and {GL}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")

    @property
    def param_name(self) -> str:
        return "k" if "{k}" in self.command_template else "GL"


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
