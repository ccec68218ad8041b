"""Word-level n-gram language model with interpolated Witten-Bell smoothing.

Reads are segmented into fixed-length words; each read is one sentence.  For
training, every sentence run is padded with ``h`` synthetic start markers (one
sentence per gap-free run), so each word is counted as a prediction target
exactly once at every order 0..h.  Markers are never prediction targets and
there is no end marker.

Probability of a word w after history g (most recent word last) is

    p_o(w | g) = lam(g) * c(g, w) / c(g) + (1 - lam(g)) * p_{o-1}(w | g'),
    lam(g)     = c(g) / (c(g) + distinct(g)),

where g' drops the oldest word of g and an unseen history falls straight
through to the lower order.  The order-0 base case interpolates the unigram
relative frequency with a uniform distribution over the vocabulary plus one
unseen-word symbol, so unseen words receive an even share of the reserved
mass.  All results are floored at ``p_floor``.

Model file format (little-endian), documented so alternate implementations
can interoperate:

    magic     4s   = b"ATHN"
    version   u32  = 1
    word_len  u32
    history   u32
    smoothing u8   = 1 (interpolated Witten-Bell)
    p_floor   f64
    m_train   u64
    then for each order o = 0..history:
        n_histories u64
        per history (sorted by token values):
            tokens  o * u32   (start marker = 0xFFFFFFFF)
            n_words u64
            per continuation (sorted by word value): word u32, count u64
    sha256 digest (32 bytes) of everything before it
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from typing import Iterable

from .segmenter import SegmentStats, WordSequence, segment_corpus
from .seqio import ReadSet

MAGIC = b"ATHN"
VERSION = 1
START = -1
_START_U32 = 0xFFFFFFFF
_BASE_CODE = {"A": 0, "C": 1, "G": 2, "T": 3}
_LN2 = math.log(2.0)

DEFAULT_WORD_LEN = 7
DEFAULT_HISTORY = 3
DEFAULT_P_FLOOR = 1e-7


class TrainingError(ValueError):
    pass


class PerplexityUndefinedError(ValueError):
    pass


class ModelFormatError(ValueError):
    pass


def pack_word(word: str) -> int:
    """Encode an ACGT word as a 2-bit-per-base integer, first base high."""
    code = 0
    try:
        for ch in word:
            code = (code << 2) | _BASE_CODE[ch]
    except KeyError:
        raise ValueError(f"word {word!r} contains characters outside ACGT") from None
    return code


def unpack_word(code: int, word_len: int) -> str:
    bases = "ACGT"
    out = []
    for _ in range(word_len):
        out.append(bases[code & 3])
        code >>= 2
    return "".join(reversed(out))


@dataclass
class PerplexityReport:
    avg_perplexity: float
    scored_words: int
    skipped_words: int
    sum_neg_log_prob: float

    @property
    def sum_neg_log2_prob(self) -> float:
        return self.sum_neg_log_prob / _LN2

    def to_dict(self) -> dict:
        return {
            "avg_perplexity": self.avg_perplexity,
            "scored_words": self.scored_words,
            "skipped_words": self.skipped_words,
            "sum_neg_log_prob": self.sum_neg_log_prob,
            "sum_neg_log2_prob": self.sum_neg_log2_prob,
        }


class NgramModel:
    """Count tables plus the smoothing configuration.

    ``counts[o]`` maps a packed history tuple (length o, oldest first) to a
    dict of packed word -> count; ``totals[o]`` caches the per-history event
    sum used for the Witten-Bell lambda.
    """

    def __init__(
        self,
        word_len: int,
        history: int,
        p_floor: float = DEFAULT_P_FLOOR,
    ) -> None:
        if history < 0:
            raise TrainingError(f"history length must be >= 0, got {history}")
        if word_len <= 0:
            raise TrainingError(f"word length must be positive, got {word_len}")
        self.word_len = word_len
        self.history = history
        self.p_floor = p_floor
        self.m_train = 0
        self.counts: list[dict[tuple[int, ...], dict[int, int]]] = [
            {} for _ in range(history + 1)
        ]
        self.totals: list[dict[tuple[int, ...], int]] = [{} for _ in range(history + 1)]

    # -- training ---------------------------------------------------------

    def _count_sequence(self, ws: WordSequence) -> None:
        h = self.history
        for run in ws.runs:
            packed = []
            for w in run:
                if len(w) != self.word_len:
                    raise TrainingError(
                        f"read {ws.read_id!r}: word {w!r} has length {len(w)}, "
                        f"model expects {self.word_len}"
                    )
                packed.append(pack_word(w))
            tokens = [START] * h + packed
            for i, w in enumerate(packed):
                pos = h + i
                for o in range(h + 1):
                    g = tuple(tokens[pos - o : pos])
                    cont = self.counts[o].get(g)
                    if cont is None:
                        self.counts[o][g] = {w: 1}
                    else:
                        cont[w] = cont.get(w, 0) + 1
                    self.totals[o][g] = self.totals[o].get(g, 0) + 1
            self.m_train += len(packed)

    @property
    def vocab_size(self) -> int:
        root = self.counts[0].get(())
        return 0 if root is None else len(root)

    # -- scoring ----------------------------------------------------------

    def _prob_packed(self, word: int, hist: tuple[int, ...]) -> float:
        root = self.counts[0].get(())
        if root is None:
            raise PerplexityUndefinedError("model has no training counts")
        m = self.totals[0][()]
        v = len(root)
        lam0 = m / (m + v)
        p = lam0 * (root.get(word, 0) / m) + (1.0 - lam0) / (v + 1)
        n = len(hist)
        for o in range(1, n + 1):
            g = hist[n - o :]
            cont = self.counts[o].get(g)
            if cont is None:
                continue
            total = self.totals[o][g]
            lam = total / (total + len(cont))
            p = lam * (cont.get(word, 0) / total) + (1.0 - lam) * p
        if p < self.p_floor:
            return self.p_floor
        return p

    def prob(self, word: str, history: tuple[str, ...] = ()) -> float:
        """Smoothed probability of ``word`` after ``history`` (most recent
        word last).  Total over the training vocabulary plus one unseen word.
        """
        if len(history) > self.history:
            raise ValueError(
                f"history of {len(history)} words exceeds model order {self.history}"
            )
        if len(word) != self.word_len:
            raise ValueError(
                f"word {word!r} has length {len(word)}, model expects {self.word_len}"
            )
        return self._prob_packed(
            pack_word(word), tuple(pack_word(w) for w in history)
        )

    def _score_sequence(self, ws: WordSequence) -> tuple[float, int]:
        h = self.history
        neg_log = 0.0
        n = 0
        for run in ws.runs:
            for w in run:
                if len(w) != self.word_len:
                    raise ValueError(
                        f"read {ws.read_id!r}: word length {len(w)} does not "
                        f"match model word length {self.word_len}"
                    )
            packed = [pack_word(w) for w in run]
            for i, w in enumerate(packed):
                o = min(h, i)
                p = self._prob_packed(w, tuple(packed[i - o : i]))
                neg_log += -math.log(p)
            n += len(packed)
        return neg_log, n

    def perplexity(self, corpus: Iterable[WordSequence]) -> PerplexityReport:
        """Average per-word perplexity exp(mean -ln p) over the corpus.

        Word i of a run is conditioned on its min(h, i-1) predecessors.
        Per-read sums are reduced with exact summation, which fixes the
        digits of the result.
        """
        seqs = list(corpus)
        skipped = sum(ws.skipped for ws in seqs)
        parts = [self._score_sequence(ws) for ws in seqs]
        total = math.fsum(p[0] for p in parts)
        m = sum(p[1] for p in parts)
        if m == 0:
            raise PerplexityUndefinedError("no scoreable words in corpus")
        return PerplexityReport(
            avg_perplexity=math.exp(total / m),
            scored_words=m,
            skipped_words=skipped,
            sum_neg_log_prob=total,
        )

    def score_reads(self, readset: ReadSet) -> PerplexityReport:
        """Segment ``readset`` with the model's own word length and score it."""
        stats = SegmentStats()
        return self.perplexity(segment_corpus(readset, self.word_len, stats))

    # -- persistence ------------------------------------------------------

    def save(self, path: str) -> None:
        buf = bytearray()
        buf += MAGIC
        buf += struct.pack(
            "<III B d Q",
            VERSION,
            self.word_len,
            self.history,
            1,
            self.p_floor,
            self.m_train,
        )
        for o in range(self.history + 1):
            table = self.counts[o]
            buf += struct.pack("<Q", len(table))
            for g in sorted(table, key=_hist_sort_key):
                for tok in g:
                    buf += struct.pack("<I", _START_U32 if tok == START else tok)
                cont = table[g]
                buf += struct.pack("<Q", len(cont))
                for w in sorted(cont):
                    buf += struct.pack("<IQ", w, cont[w])
        digest = hashlib.sha256(bytes(buf)).digest()
        with open(path, "wb") as fh:
            fh.write(bytes(buf))
            fh.write(digest)

    @classmethod
    def load(cls, path: str) -> "NgramModel":
        with open(path, "rb") as fh:
            blob = fh.read()
        if len(blob) < 36 or blob[:4] != MAGIC:
            raise ModelFormatError(f"{path}: not an n-gram model file")
        payload, digest = blob[:-32], blob[-32:]
        if hashlib.sha256(payload).digest() != digest:
            raise ModelFormatError(f"{path}: checksum mismatch (corrupt or truncated)")
        off = 4
        version, word_len, history, smooth_tag, p_floor, m_train = struct.unpack_from(
            "<III B d Q", payload, off
        )
        off += struct.calcsize("<III B d Q")
        if version != VERSION:
            raise ModelFormatError(f"{path}: unsupported version {version}")
        if smooth_tag != 1:
            raise ModelFormatError(f"{path}: unknown smoothing tag {smooth_tag}")
        model = cls(word_len=word_len, history=history, p_floor=p_floor)
        model.m_train = m_train
        try:
            for o in range(history + 1):
                (n_hist,) = struct.unpack_from("<Q", payload, off)
                off += 8
                for _ in range(n_hist):
                    toks = struct.unpack_from(f"<{o}I", payload, off) if o else ()
                    off += 4 * o
                    g = tuple(START if t == _START_U32 else t for t in toks)
                    (n_words,) = struct.unpack_from("<Q", payload, off)
                    off += 8
                    cont: dict[int, int] = {}
                    total = 0
                    for _ in range(n_words):
                        w, c = struct.unpack_from("<IQ", payload, off)
                        off += 12
                        cont[w] = c
                        total += c
                    model.counts[o][g] = cont
                    model.totals[o][g] = total
        except struct.error as exc:
            raise ModelFormatError(f"{path}: truncated model file") from exc
        if off != len(payload):
            raise ModelFormatError(f"{path}: trailing bytes after count tables")
        return model


def _hist_sort_key(g: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(_START_U32 if t == START else t for t in g)


def train(
    corpus: Iterable[WordSequence],
    history: int = DEFAULT_HISTORY,
    p_floor: float = DEFAULT_P_FLOOR,
) -> NgramModel:
    """Count all (history, word) events of the corpus at orders 0..history."""
    seqs = list(corpus)
    first_word = next((run[0] for ws in seqs for run in ws.runs if run), None)
    if first_word is None:
        raise TrainingError("empty corpus: no words to train on")
    model = NgramModel(word_len=len(first_word), history=history, p_floor=p_floor)
    for ws in seqs:
        model._count_sequence(ws)
    return model


def train_reads(
    readset: ReadSet,
    word_len: int = DEFAULT_WORD_LEN,
    history: int = DEFAULT_HISTORY,
    p_floor: float = DEFAULT_P_FLOOR,
    stats: SegmentStats | None = None,
) -> NgramModel:
    """Segment ``readset`` and train; the usual entry point."""
    return train(
        segment_corpus(readset, word_len, stats), history=history, p_floor=p_floor
    )
