"""Independent reference implementations used to cross-check the n-gram model.

Everything here is deliberately written from the mathematical definitions,
with plain string words and dict counting, so a bug in the packed production
code cannot hide in a shared helper.  The string segmenter is the reference
for the packed one in ``ectuner.segmenter``, and ``DictNgramModel`` (the
dict-of-dicts model the array tables replaced) is the reference for
``ectuner.ngram.NgramModel``: the same counts, probabilities, per-read sums
and file bytes.
"""

from __future__ import annotations

import hashlib
import math
import struct
from collections import defaultdict

from ectuner.ngram import MAGIC, VERSION, PerplexityReport, PerplexityUndefinedError
from ectuner.segmenter import WordSequence
from ectuner.seqio import encode_word

_ACGT = frozenset("ACGT")


def oracle_segment_read(read, word_len):
    """Cut a read into non-overlapping words from offset 0, dropping a
    trailing partial word; a word with any character but ACGT is skipped and
    breaks the run."""
    seq = read.sequence
    if word_len <= 0:
        raise ValueError(f"word length must be positive, got {word_len}")
    if word_len > len(seq):
        raise ValueError(
            f"word length {word_len} exceeds read {read.id!r} length {len(seq)}"
        )
    runs = []
    current = []
    skipped = 0
    for i in range(len(seq) // word_len):
        word = seq[i * word_len : (i + 1) * word_len]
        if _ACGT.issuperset(word):
            current.append(word)
        else:
            skipped += 1
            if current:
                runs.append(tuple(current))
                current = []
    if current:
        runs.append(tuple(current))
    return WordSequence(read_id=read.id, runs=tuple(runs), skipped=skipped)


def oracle_segment_corpus(readset, word_len, stats=None):
    """A WordSequence per read; reads shorter than ``word_len`` are skipped
    (and tallied on ``stats`` when given)."""
    out = []
    for read in readset:
        if len(read.sequence) < word_len:
            if stats is not None:
                stats.short_reads += 1
            continue
        ws = oracle_segment_read(read, word_len)
        if stats is not None:
            stats.reads += 1
            stats.words += sum(len(run) for run in ws.runs)
            stats.skipped_words += ws.skipped
        out.append(ws)
    return out


def oracle_counts(train_seqs, h):
    """Brute-force (history, word) occurrence counting at orders 0..h.

    Word i of a gap-free run (from 0) is counted once at each order
    0..min(h, i), after the o words before it in the run.
    """
    counts = [defaultdict(dict) for _ in range(h + 1)]
    for ws in train_seqs:
        for run in ws.runs:
            for i, w in enumerate(run):
                for o in range(min(h, i) + 1):
                    g = tuple(run[i - o : i])
                    cont = counts[o][g]
                    cont[w] = cont.get(w, 0) + 1
    return counts


def oracle_prob(counts, word, hist, p_floor):
    """Top-down recursive interpolated Witten-Bell evaluation."""

    def level(o, g):
        if o == 0:
            root = counts[0][()]
            m = sum(root.values())
            v = len(root)
            lam = m / (m + v)
            return lam * (root.get(word, 0) / m) + (1.0 - lam) / (v + 1)
        g_o = g[len(g) - o :]
        if g_o not in counts[o]:
            return level(o - 1, g)
        cont = counts[o][g_o]
        total = sum(cont.values())
        lam = total / (total + len(cont))
        return lam * (cont.get(word, 0) / total) + (1.0 - lam) * level(o - 1, g)

    p = level(len(hist), tuple(hist))
    return p if p >= p_floor else p_floor


def product_form_perplexity(model, score_seqs):
    """Eq-style product evaluation: PP = (prod_i p_i)^(-1/m).

    Probabilities come from the public ``prob`` API with the conditioning
    protocol applied independently: word i of a run sees its min(h, i)
    predecessors, and history never crosses a run gap.
    """
    product = 1.0
    m = 0
    for ws in score_seqs:
        for run in ws.runs:
            for i, w in enumerate(run):
                o = min(model.history, i)
                product *= model.prob(w, tuple(run[i - o : i]))
                m += 1
    if m == 0:
        raise ValueError("no words to score")
    assert product > 1e-300, "corpus too large for direct product evaluation"
    return product ** (-1.0 / m), m


def seq(*words):
    return WordSequence.from_words(words)


# Toy training corpus used for the hand-evaluated smoothing constants:
# three sentences over single-base words, scored with history length 2.
TOY3 = (seq("A", "C", "A"), seq("A", "A", "C"), seq("C", "A", "G"))


def _runs(*runs):
    return WordSequence(read_id="", runs=tuple(tuple(r) for r in runs))


# Registry of small named corpora; every scoring corpus stays at or below
# 50 words so the direct product form cannot underflow.
SMALL_CORPORA = [
    {
        "name": "three-sentence-h2",
        "h": 2,
        "train": TOY3,
        "score": TOY3,
    },
    {
        "name": "unigram-only-h0",
        "h": 0,
        "train": TOY3,
        "score": (seq("A", "C", "G"), seq("C", "C", "A", "A")),
    },
    {
        "name": "bigram-3mers-unseen-words",
        "h": 1,
        "train": (
            seq("ACG", "TTT", "ACG"),
            seq("TTT", "ACG", "GGG"),
            seq("GGG", "GGG", "TTT", "ACG"),
        ),
        "score": (seq("ACG", "CCC", "TTT"), seq("AAA", "GGG")),
    },
    {
        "name": "trigram-7mers-h3",
        "h": 3,
        "train": (
            seq("ACGTACG", "TACGTAC", "GTACGTA", "CGTACGT"),
            seq("TACGTAC", "GTACGTA", "ACGTACG"),
            seq("ACGTACG", "TACGTAC", "GTACGTA", "CGTACGT", "ACGTACG"),
        ),
        "score": (
            seq("ACGTACG", "TACGTAC", "GTACGTA", "CGTACGT", "ACGTACG"),
            seq("GTACGTA", "TACGTAC"),
        ),
    },
    {
        "name": "gap-split-runs-h2",
        "h": 2,
        "train": (
            _runs(("AA", "CC", "GG"), ("TT", "AA")),
            _runs(("CC", "GG"), ("AA",), ("GG", "TT")),
        ),
        "score": (
            _runs(("AA", "CC"), ("GG", "TT", "AA")),
            _runs(("CC", "GG", "AA")),
        ),
    },
    {
        "name": "fifty-word-ceiling-h1",
        "h": 1,
        "train": tuple(seq(*(["AC", "GT"] * 5)) for _ in range(3)),
        "score": tuple(seq(*(["AC", "GT", "CA", "AC", "TG"] * 2)) for _ in range(5)),
    },
]


def assert_product_form_matches(model, score_seqs, rel=1e-9):
    direct, m = product_form_perplexity(model, score_seqs)
    report = model.perplexity(score_seqs)
    assert report.scored_words == m
    err = abs(report.avg_perplexity - direct) / direct
    assert err <= rel, f"product-form mismatch: {report.avg_perplexity} vs {direct}"
    assert math.isclose(
        report.avg_perplexity,
        math.exp(report.sum_neg_log_prob / report.scored_words),
        rel_tol=1e-12,
    )


def oracle_read_runs(seqs):
    """Each WordSequence's runs as lists of word codes."""
    return [[[encode_word(w) for w in run] for run in ws.runs] for ws in seqs]


class DictNgramModel:
    """The n-gram model on dict-of-dicts count tables, walked one event at a
    time.  ``counts[o]`` maps a history tuple of word codes (length o, oldest
    first) to a dict of word -> count; ``totals[o]`` holds each history's
    event sum.  Reads are lists of runs of word codes."""

    def __init__(self, word_len, history, p_floor=1e-7):
        self.word_len = word_len
        self.history = history
        self.p_floor = p_floor
        self.m_train = 0
        self.counts = [{} for _ in range(history + 1)]
        self.totals = [{} for _ in range(history + 1)]

    def _events(self, runs):
        h = self.history
        for run in runs:
            for i, w in enumerate(run):
                yield w, tuple(run[max(0, i - h) : i])

    def count(self, reads):
        for runs in reads:
            for w, hist in self._events(runs):
                n = len(hist)
                for o in range(n + 1):
                    g = hist[n - o :]
                    cont = self.counts[o].setdefault(g, {})
                    cont[w] = cont.get(w, 0) + 1
                    self.totals[o][g] = self.totals[o].get(g, 0) + 1
                self.m_train += 1
        return self

    def prob(self, word, hist):
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
        return self.p_floor if p < self.p_floor else p

    def read_sums(self, reads):
        """Each read's -ln p sum, summed left to right; reads without words
        are left out."""
        sums = []
        for runs in reads:
            neg_log = 0.0
            events = list(self._events(runs))
            for w, hist in events:
                neg_log += -math.log(self.prob(w, hist))
            if events:
                sums.append(neg_log)
        return sums

    def score(self, reads, skipped=0):
        sums = self.read_sums(reads)
        m = sum(len(run) for runs in reads for run in runs)
        if m == 0:
            raise PerplexityUndefinedError("no scoreable words in corpus")
        total = math.fsum(sums)
        return PerplexityReport(math.exp(total / m), m, skipped, total)

    def to_bytes(self):
        buf = bytearray(MAGIC)
        buf += struct.pack(
            "<III B d Q", VERSION, self.word_len, self.history, 1, self.p_floor,
            self.m_train,
        )
        for table in self.counts:
            buf += struct.pack("<Q", len(table))
            for g in sorted(table):
                for tok in g:
                    buf += struct.pack("<I", tok)
                cont = table[g]
                buf += struct.pack("<Q", len(cont))
                for w in sorted(cont):
                    buf += struct.pack("<IQ", w, cont[w])
        return bytes(buf) + hashlib.sha256(bytes(buf)).digest()

    @classmethod
    def from_bytes(cls, blob):
        payload = blob[:-32]
        version, word_len, history, _, p_floor, m_train = struct.unpack_from(
            "<III B d Q", payload, 4
        )
        model = cls(word_len, history, p_floor)
        model.m_train = m_train
        off = 4 + struct.calcsize("<III B d Q")
        for o in range(history + 1):
            (n_hist,) = struct.unpack_from("<Q", payload, off)
            off += 8
            for _ in range(n_hist):
                g = struct.unpack_from(f"<{o}I", payload, off)
                off += 4 * o
                (n_words,) = struct.unpack_from("<Q", payload, off)
                off += 8
                cont = {}
                for _ in range(n_words):
                    w, c = struct.unpack_from("<IQ", payload, off)
                    off += 12
                    cont[w] = c
                model.counts[o][g] = cont
                model.totals[o][g] = sum(cont.values())
        assert off == len(payload)
        return model
