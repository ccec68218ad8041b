"""Word-level n-gram language model with interpolated Witten-Bell smoothing.

Reads are segmented into fixed-length words, packed as 2-bit codes (see
``seqio``); each gap-free run of words is one sentence.  Word i of a run is
conditioned on its min(h, i) predecessors in that run, and training counts
exactly the (history, word) events that scoring looks up: each word at orders
0..min(h, i).  There are no start or end markers.

Probability of a word w after history g (most recent word last) is

    p_o(w | g) = lam(g) * c(g, w) / c(g) + (1 - lam(g)) * p_{o-1}(w | g'),
    lam(g)     = c(g) / (c(g) + distinct(g)),

where g' drops the oldest word of g and an unseen history falls straight
through to the lower order.  The order-0 base case interpolates the unigram
relative frequency with a uniform distribution over the vocabulary plus one
unseen-word symbol, so unseen words receive an even share of the reserved
mass.  All results are floored at ``p_floor``.

In memory each order keeps sorted integer arrays (``_Order``), the sorted
tables of KenLM: a history's key is the index of its suffix (the history less
its oldest word) in the order below, times 2**32, plus its oldest word, and an
event's key is its history's index times 2**32 plus the word.  Training counts
each order with one ``np.unique``; scoring finds every word's history at order
o from its history at order o-1, with one ``searchsorted`` per table.  The
probabilities come from the same float64 operations, in the same order, as
evaluating one word at a time.  The logarithm is ``math.log`` per word,
because ``np.log`` can differ in the last bit; each read's sum runs left to
right, and the reads are reduced with ``math.fsum``, so a perplexity is
reproducible to the last digit.  A read's sum depends on its own words alone,
so ``score_reads`` keeps the per-read sums of the last set it scored and, for
a set of the same layout, rescores only the reads whose bases differ: the
report is the one a full scoring gives, to the last bit.

Model file format (little-endian), documented so alternate implementations
can interoperate:

    magic     4s   = b"ATHN"
    version   u32  = 1
    word_len  u32  (at most 16, so a word code fits a u32)
    history   u32
    smoothing u8   = 1 (interpolated Witten-Bell)
    p_floor   f64
    m_train   u64
    then for each order o = 0..history:
        n_histories u64
        per history (sorted by token values):
            tokens  o * u32
            n_words u64
            per continuation (sorted by word value): word u32, count u64
    sha256 digest (32 bytes) of everything before it

``_seal`` and ``_unseal`` write and check the magic, the header's size and
the digest, for the char-RNN's model files too.  A file holds only histories that occur in the training reads.  Files from
older versions also hold start-marker histories (token 0xFFFFFFFF); they load
as plain tokens, so such files score and re-save exactly as they did.  Below
word_len 16 no lookup matches a marker, because word codes stay below
4**word_len; at word_len 16, 0xFFFFFFFF is also the code of the all-T word,
so a marker history is matched wherever the preceding word is 16 T's.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .segmenter import WordSequence, Words, segment_reads
from .seqio import ReadSet, encode_word, find_sorted, spans

MAGIC = b"ATHN"
VERSION = 1
MAX_WORD_LEN = 16
_LN2 = math.log(2.0)
_LOW = 0xFFFFFFFF

DEFAULT_WORD_LEN = 7
DEFAULT_HISTORY = 3
DEFAULT_P_FLOOR = 1e-7


class TrainingError(ValueError):
    pass


class PerplexityUndefinedError(ValueError):
    pass


class ModelFormatError(ValueError):
    pass


def _seal(path: str, payload: bytes) -> None:
    """Write a model file: ``payload``, then its sha256 digest."""
    with open(path, "wb") as fh:
        fh.write(payload)
        fh.write(hashlib.sha256(payload).digest())


def _unseal(
    path: str, magic: bytes, header_fmt: str, what: str
) -> tuple[tuple, memoryview]:
    """The header fields and the rest of the payload of a model file that
    ``_seal`` wrote, whose payload is ``magic``, a header packed as
    ``header_fmt``, then the rest; ``what`` names the model kind in errors."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(magic) + 32 or blob[: len(magic)] != magic:
        raise ModelFormatError(f"{path}: not an {what} model file")
    payload = memoryview(blob)[:-32]
    if hashlib.sha256(payload).digest() != blob[-32:]:
        raise ModelFormatError(f"{path}: checksum mismatch (corrupt or truncated)")
    end = len(magic) + struct.calcsize(header_fmt)
    if len(payload) < end:
        raise ModelFormatError(f"{path}: truncated header")
    return struct.unpack_from(header_fmt, payload, len(magic)), payload[end:]


def _flatten(
    corpus: Iterable[WordSequence], word_len: int, error: type[ValueError]
) -> Words:
    """The words of hand-built sequences as ``segment_reads`` lays them out;
    a word of the wrong length raises ``error``."""
    codes, read, pos = [], [], []
    for r, ws in enumerate(corpus):
        for run in ws.runs:
            for i, w in enumerate(run):
                if len(w) != word_len:
                    raise error(
                        f"read {ws.read_id!r}: word {w!r} has length {len(w)}, "
                        f"model expects {word_len}"
                    )
                codes.append(encode_word(w))
                read.append(r)
                pos.append(i)
    return Words(*(np.array(a, np.int64) for a in (codes, read, pos)))


@dataclass
class _Order:
    """The count tables of one order, indexed by chained keys.

    ``hist`` holds the sorted keys of the order's histories: the index of the
    history's suffix (the history less its oldest word) in the order below,
    times 2**32, plus its oldest word.  Order 0 has the one empty history,
    key 0.  Each history has its event ``total`` and its ``distinct`` words;
    a history with no words holds no counts and is kept only so that longer
    histories can chain through it.  ``events`` holds the sorted keys history
    index * 2**32 + word, with their ``count``.
    """

    hist: np.ndarray
    total: np.ndarray
    distinct: np.ndarray
    events: np.ndarray
    count: np.ndarray


def _index(levels: list[tuple[np.ndarray, ...]]) -> list[_Order]:
    """Chained tables from per-order (token rows, totals, words per row,
    words, counts): rows in any order, each row's words together.  Totals
    of None are the sums of each row's counts."""
    tables: list[_Order] = []
    hists = []
    for o, (rows, total, n_words, words, counts) in enumerate(levels):
        if o == 0:
            hist = np.zeros(1, np.int64)  # the one empty history
            own = np.zeros(len(rows), np.int64)
        else:
            # every history of order >= o chains through its last o words
            # here; each key is built from the most recent word back
            tails = np.vstack([r[:, -o:] for r, *_ in levels[o:]])
            keys = tails[:, -1]
            for q in range(2, o + 1):
                keys = (find_sorted(hists[q - 1], keys) << 32) | tails[:, -q]
            hist, index = np.unique(keys, return_inverse=True)
            own = index[: len(rows)]
        hists.append(hist)
        if np.any(n_words == 0):
            raise ModelFormatError("history without words in count tables")
        distinct = np.zeros(len(hist), np.int64)
        distinct[own] = n_words
        if np.count_nonzero(distinct) != len(own):
            raise ModelFormatError("duplicate history in count tables")
        if total is None:
            total = np.add.reduceat(counts, np.cumsum(n_words) - n_words)
        tally = np.zeros(len(hist), np.int64)
        tally[own] = total
        events = (np.repeat(own, n_words) << 32) | words
        order = np.argsort(events)
        events = events[order]
        if np.any(events[1:] == events[:-1]):
            raise ModelFormatError("duplicate word in count tables")
        tables.append(_Order(hist, tally, distinct, events, counts[order]))
    return tables


def _token_rows(tables: list[_Order]) -> list[np.ndarray]:
    """Every history of each order as a row of word codes, oldest first."""
    rows = [np.zeros((1, 0), np.int64)]
    for t in tables[1:]:
        suffix = rows[-1][t.hist >> 32]
        rows.append(np.column_stack([t.hist & _LOW, suffix]))
    return rows


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


class _Scored(NamedTuple):
    """A read set scored from ``tables`` with the model's word length,
    history and floor (``settings``): each read's sum of -ln p and its
    number of words."""

    tables: list[_Order]
    settings: tuple[int, int, float]
    readset: ReadSet
    sums: np.ndarray
    count: np.ndarray


def _report(sums: np.ndarray, scored: int, skipped: int) -> PerplexityReport:
    """The report of per-read sums, reduced with exact summation, which
    fixes the digits of the result."""
    if scored == 0:
        raise PerplexityUndefinedError("no scoreable words in corpus")
    total = math.fsum(sums.tolist())
    return PerplexityReport(
        avg_perplexity=math.exp(total / scored),
        scored_words=scored,
        skipped_words=skipped,
        sum_neg_log_prob=total,
    )


class NgramModel:
    """Count tables plus the smoothing configuration.

    The tables are one ``_Order`` per order 0..history.  ``counts`` and
    ``totals`` give a dict view for hand-built models: ``counts[o]`` maps a
    history tuple of word codes (length o, oldest first) to a dict of word ->
    count, and ``totals[o]`` maps it to the event sum used for the
    Witten-Bell lambda.  Once the view is read the dicts are the model, and
    every later score or save indexes them afresh.
    """

    def __init__(
        self,
        word_len: int,
        history: int,
        p_floor: float = DEFAULT_P_FLOOR,
    ) -> None:
        if history < 0:
            raise TrainingError(f"history length must be >= 0, got {history}")
        if not 0 < word_len <= MAX_WORD_LEN:
            raise TrainingError(
                f"word length must be in 1..{MAX_WORD_LEN}, got {word_len}"
            )
        if not 0.0 <= p_floor < 1.0:
            raise TrainingError(f"probability floor must be in [0, 1), got {p_floor}")
        self.word_len = word_len
        self.history = history
        self.p_floor = p_floor
        self.m_train = 0
        self._last: _Scored | None = None
        # a new model starts as empty dicts; training or loading sets tables
        self._tables: list[_Order] | None = None
        self._dicts: tuple[list[dict], list[dict]] | None = (
            [{} for _ in range(history + 1)],
            [{} for _ in range(history + 1)],
        )

    # -- count tables -----------------------------------------------------

    def _count(self, words: Words) -> None:
        """Count every word at orders 0..min(h, its position in its run)."""
        codes, pos = words.codes, words.pos
        if len(codes) == 0:
            raise TrainingError("empty corpus: no words to train on")
        hid = np.zeros(len(codes), np.int64)  # each word's history index
        tables = []
        for o in range(self.history + 1):
            at = np.flatnonzero(pos >= o)
            if o == 0:
                hist = np.zeros(1, np.int64)
            else:
                hist, hid[at] = np.unique(
                    (hid[at] << 32) | codes[at - o], return_inverse=True
                )
            # counted through the inverse, as the histories are: every table
            # sorts with the one argsort kernel, since each further numpy sort
            # kernel (np.sort, np.lexsort) adds 128-256 KB of resident code
            events, which = np.unique((hid[at] << 32) | codes[at], return_inverse=True)
            count = np.bincount(which)
            total = np.bincount(hid[at], minlength=len(hist))
            distinct = np.bincount(events >> 32, minlength=len(hist))
            tables.append(_Order(hist, total, distinct, events, count))
        self._tables = tables
        self._dicts = None
        self.m_train = len(codes)

    def _current(self) -> list[_Order]:
        """The tables, indexed afresh from the dict view when it was read."""
        if self._dicts is None:
            return self._tables
        levels = []
        for o, (table, totals) in enumerate(zip(*self._dicts)):
            conts = list(table.values())
            levels.append((
                np.array(list(table), np.int64).reshape(len(table), o),
                np.array([totals[g] for g in table], np.int64),
                np.array([len(c) for c in conts], np.int64),
                np.array([w for c in conts for w in c], np.int64),
                np.array([n for c in conts for n in c.values()], np.int64),
            ))
        return _index(levels)

    def _view(self) -> tuple[list[dict], list[dict]]:
        """The dict view; from here on the dicts are the model."""
        if self._dicts is None:
            counts, totals = [], []
            for t, rows in zip(self._tables, _token_rows(self._tables)):
                ids = np.flatnonzero(t.distinct).tolist()
                keys = [tuple(row) for row in rows[ids].tolist()]
                owner = (t.events >> 32).tolist()
                words = (t.events & _LOW).tolist()
                conts = {i: {} for i in ids}
                for i, w, c in zip(owner, words, t.count.tolist()):
                    conts[i][w] = c
                counts.append({g: conts[i] for g, i in zip(keys, ids)})
                totals.append(dict(zip(keys, t.total[ids].tolist())))
            self._dicts = (counts, totals)
            self._tables = None
        return self._dicts

    @property
    def counts(self) -> list[dict[tuple[int, ...], dict[int, int]]]:
        return self._view()[0]

    @property
    def totals(self) -> list[dict[tuple[int, ...], int]]:
        return self._view()[1]

    @property
    def vocab_size(self) -> int:
        root = self._current()[0]
        return int(root.distinct[0])

    # -- scoring ----------------------------------------------------------

    def _probs(self, tables: list[_Order], codes: np.ndarray, pos: np.ndarray):
        """The probability of each word after its min(h, pos) predecessors,
        with the same float64 operations in the same order as evaluating
        one word at a time: the order-0 estimate, then each order up to the
        history's length whose history holds counts."""
        root = tables[0]
        m, v = int(root.total[0]), int(root.distinct[0])
        if v == 0:
            raise PerplexityUndefinedError("model has no training counts")
        lam0 = m / (m + v)
        j = find_sorted(root.events, codes)
        p = lam0 * (np.where(j >= 0, root.count[j], 0) / m) + (1.0 - lam0) / (v + 1)
        hid = np.zeros(len(codes), np.int64)
        at = np.arange(len(codes))  # words whose history chains this far
        for o in range(1, self.history + 1):
            t = tables[o]
            at = at[pos[at] >= o]
            j = find_sorted(t.hist, (hid[at] << 32) | codes[at - o])
            at, j = at[j >= 0], j[j >= 0]
            hid[at] = j
            at_o = at[t.distinct[hid[at]] > 0]
            g = hid[at_o]
            total = t.total[g]
            lam = total / (total + t.distinct[g])
            j = find_sorted(t.events, (g << 32) | codes[at_o])
            c = np.where(j >= 0, t.count[j], 0)
            p[at_o] = lam * (c / total) + (1.0 - lam) * p[at_o]
        return np.where(p < self.p_floor, self.p_floor, p)

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
        codes = np.array([encode_word(w) for w in (*history, word)], np.int64)
        p = self._probs(self._current(), codes, np.arange(len(codes)))
        return float(p[-1])

    def _read_sums(self, words: Words) -> np.ndarray:
        """Each read's sum of -ln p over its words, for the reads that have
        words.  ``math.log`` is taken per word (``np.log`` may differ in the
        last bit), and each read's sum is accumulated word by word, left to
        right."""
        p = self._probs(self._current(), words.codes, words.pos)
        neg_log = -np.fromiter(map(math.log, p.tolist()), np.float64, len(p))
        read = words.read
        opens = np.r_[True, read[1:] != read[:-1]]
        starts = np.flatnonzero(opens)
        group = np.cumsum(opens) - 1
        rank = np.arange(len(read)) - starts[group]
        order = np.argsort(rank)
        sums = np.zeros(len(starts))
        cuts = np.searchsorted(rank[order], np.arange(1, rank.max() + 1))
        for step in np.split(order, cuts):  # each read's next word
            sums[group[step]] += neg_log[step]
        return sums

    def _sums(self, words: Words, n_reads: int) -> tuple[np.ndarray, np.ndarray]:
        """Each of ``n_reads`` reads' sum of -ln p (0.0 for a read without
        words) and its number of words."""
        count = np.bincount(words.read, minlength=n_reads)
        sums = np.zeros(n_reads)
        if len(words.codes):
            sums[count > 0] = self._read_sums(words)
        return sums, count

    def perplexity(self, corpus: Iterable[WordSequence]) -> PerplexityReport:
        """Average per-word perplexity exp(mean -ln p) over the corpus.

        Word i of a run (from 0) is conditioned on its min(h, i) predecessors.
        """
        seqs = list(corpus)
        words = _flatten(seqs, self.word_len, ValueError)
        sums, count = self._sums(words, len(seqs))
        return _report(sums, int(count.sum()), sum(ws.skipped for ws in seqs))

    def score_reads(self, readset: ReadSet) -> PerplexityReport:
        """Segment ``readset`` with the model's own word length and score it.

        When the last set scored with these tables has the same layout, only
        the reads whose bases differ from it are segmented and scored; the
        other reads keep their sums.  A model read through its dict view
        scores every read."""
        settings = (self.word_len, self.history, self.p_floor)
        last = self._last
        if (
            last is not None
            and last.tables is self._tables
            and last.settings == settings
            and all(
                a is b or np.array_equal(a, b)
                for a, b in ((last.readset.starts, readset.starts),
                             (last.readset.lengths, readset.lengths))
            )
        ):
            rows = np.flatnonzero(readset.differing(last.readset))
            sums, count = last.sums.copy(), last.count.copy()
            if len(rows):
                words = segment_reads(readset.take(rows), self.word_len)
                sums[rows], count[rows] = self._sums(words, len(rows))
        else:
            words = segment_reads(readset, self.word_len)
            sums, count = self._sums(words, len(readset))
        if self._dicts is None:
            self._last = _Scored(self._tables, settings, readset, sums, count)
        scored = int(count.sum())
        total = int((readset.lengths // self.word_len).sum())
        return _report(sums, scored, total - scored)

    # -- persistence ------------------------------------------------------

    def save(self, path: str) -> None:
        """Write the file format above.  Records are laid out in 32-bit
        units: a history is its o tokens and a u64 word count, each of its
        words a u32 word and a u64 count."""
        tables = self._current()
        buf = bytearray(MAGIC + struct.pack(
            "<III B d Q", VERSION, self.word_len, self.history, 1, self.p_floor,
            self.m_train,
        ))
        for o, (t, rows) in enumerate(zip(tables, _token_rows(tables))):
            ids = np.flatnonzero(t.distinct)
            # token order, oldest word first, by ranks (not np.lexsort, see _count)
            rank = np.zeros(len(ids), np.int64)
            for c in range(o):
                rank = np.unique((rank << 32) | rows[ids, c], return_inverse=True)[1]
            ids = ids[np.argsort(rank)]
            n = t.distinct[ids]
            # each history's words lie together in ``events``, in word order
            ev = spans((np.cumsum(t.distinct) - t.distinct)[ids], n)
            size = o + 2 + 3 * n
            starts = np.cumsum(size) - size
            out = np.zeros(int(size.sum()), "<u4")
            out[starts[:, None] + np.arange(o + 2)] = np.column_stack(
                [rows[ids], n & _LOW, n >> 32]
            )
            count = t.count[ev]
            # a record's words follow its o tokens and u64 count, 3 units each
            out[spans(starts + o + 2, n, 3)[:, None] + np.arange(3)] = np.column_stack(
                [t.events[ev] & _LOW, count & _LOW, count >> 32]
            )
            buf += struct.pack("<Q", len(ids))
            buf += out.tobytes()
        _seal(path, buf)

    @classmethod
    def load(cls, path: str) -> "NgramModel":
        (version, word_len, history, smooth_tag, p_floor, m_train), body = _unseal(
            path, MAGIC, "<III B d Q", "n-gram"
        )
        if version != VERSION:
            raise ModelFormatError(f"{path}: unsupported version {version}")
        if smooth_tag != 1:
            raise ModelFormatError(f"{path}: unknown smoothing tag {smooth_tag}")
        # 32-bit units, at least each order's u64 count of histories
        if len(body) % 4 or len(body) < 8 * (history + 1):
            raise ModelFormatError(f"{path}: truncated model file")
        units = np.frombuffer(body, "<u4").astype(np.int64)
        # the one sequential step: each record's length is in its header,
        # read through a native-order view that indexes as Python ints
        head = memoryview(units.astype(np.uint32))
        at = 0
        levels = []
        try:
            for o in range(history + 1):
                n_hist = head[at] | head[at + 1] << 32
                at += 2
                starts = []
                for _ in range(n_hist):
                    starts.append(at)
                    at += o + 2 + 3 * (head[at + o] | head[at + o + 1] << 32)
                if at > len(units):  # a count that runs past the end
                    raise IndexError
                starts = np.array(starts, np.int64)
                rows = units[starts[:, None] + np.arange(o)]
                n = units[starts + o] | units[starts + o + 1] << 32
                ev = spans(starts + o + 2, n, 3)
                counts = units[ev + 1] | units[ev + 2] << 32
                levels.append((rows, None, n, units[ev], counts))
        except IndexError as exc:
            raise ModelFormatError(f"{path}: truncated model file") from exc
        if at != len(units):
            raise ModelFormatError(f"{path}: trailing bytes after count tables")
        try:
            model = cls(word_len=word_len, history=history, p_floor=p_floor)
            model._tables, model._dicts = _index(levels), None
        except (TrainingError, ModelFormatError) as exc:
            raise ModelFormatError(f"{path}: {exc}") from None
        model.m_train = m_train
        return model


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
    model._count(_flatten(seqs, model.word_len, TrainingError))
    return model


def train_reads(
    readset: ReadSet,
    word_len: int = DEFAULT_WORD_LEN,
    history: int = DEFAULT_HISTORY,
    p_floor: float = DEFAULT_P_FLOOR,
) -> NgramModel:
    """Segment ``readset`` and train; the usual entry point."""
    model = NgramModel(word_len=word_len, history=history, p_floor=p_floor)
    model._count(segment_reads(readset, word_len))
    return model
