"""``NgramModel.score_reads`` reuses the last scored set's per-read sums for
the reads whose bases did not change.  Every report of a chain of read sets
must equal, field by field, the report of a freshly loaded copy of the model,
which has nothing to reuse."""

from __future__ import annotations

import numpy as np
import pytest

from ectuner import ngram
from ectuner.ngram import NgramModel, PerplexityUndefinedError
from ectuner.segmenter import segment_reads
from ectuner.seqio import Read, ReadSet, sample_reads

WORD_LEN = 4


def _pool(rng: np.random.Generator, n: int) -> ReadSet:
    """Reads of 0 to 30 bases, some shorter than a word, a few with N."""
    reads = []
    for i in range(n):
        length = int(rng.integers(0, 31))
        seq = "".join(rng.choice(list("ACGTACGTACGTACGTN"), length))
        reads.append(Read(f"r{i}", seq))
    return ReadSet(reads)


def _mutate(readset: ReadSet, rows, rng) -> ReadSet:
    """``readset`` with every base of ``rows`` redrawn from ACGTN."""
    codes = readset.codes.copy()
    for r in rows:
        start = readset.starts[r]
        codes[start : start + readset.lengths[r]] = rng.integers(0, 5, readset.lengths[r])
    return readset.with_codes(codes)


def _all_n(readset: ReadSet, rows) -> ReadSet:
    """``readset`` with every base of ``rows`` turned to N."""
    codes = readset.codes.copy()
    for r in rows:
        start = readset.starts[r]
        codes[start : start + readset.lengths[r]] = 4
    return readset.with_codes(codes)


@pytest.fixture
def model_path(tmp_path):
    rng = np.random.default_rng(5)
    model = ngram.train_reads(_pool(rng, 300), word_len=WORD_LEN, history=2)
    path = str(tmp_path / "lm.ngram")
    model.save(path)
    return path


def _report(model: NgramModel, readset: ReadSet):
    """The report's fields, or the message of a perplexity left undefined."""
    try:
        return model.score_reads(readset).to_dict()
    except PerplexityUndefinedError as exc:
        return str(exc)


def test_chain_of_read_sets_scores_as_fresh_models_do(model_path, monkeypatch):
    segmented = []
    segment = ngram.segment_reads

    def counting_segment(readset, word_len):
        segmented.append(len(readset))
        return segment(readset, word_len)

    monkeypatch.setattr(ngram, "segment_reads", counting_segment)
    rng = np.random.default_rng(11)
    pool = _pool(rng, 400)
    base = sample_reads(pool, 200, seed=1)
    n = len(base)
    short = np.flatnonzero(base.lengths < WORD_LEN).tolist()
    assert 0 in base.lengths and len(short) > 1  # zero-length and short reads

    def rows_with_words(readset, count):
        rows = np.flatnonzero(readset.lengths >= WORD_LEN)
        return sorted(rng.choice(rows, count, replace=False).tolist())

    some, lose = rows_with_words(base, 20), rows_with_words(base, 15)

    chain = []  # (read set, reads the model should segment)
    chain.append((base, n))
    chain.append((_mutate(base, some, rng), len(some)))
    turned_n = sorted(rng.choice(n, 10, replace=False).tolist())
    chain.append((_all_n(chain[-1][0], turned_n), None))
    chain.append((chain[-1][0].with_codes(chain[-1][0].codes.copy()), 0))
    chain.append((_mutate(chain[-1][0], short, rng), None))
    chain.append((_mutate(chain[-1][0], range(n), rng), None))
    # every changed row loses its words; the rows left alone keep theirs
    restored = base.with_codes(base.codes.copy())
    chain.append((restored, None))
    chain.append((_all_n(restored, lose), len(lose)))
    # the same size in another layout is scored whole
    other = sample_reads(pool, 200, seed=2)
    assert not np.array_equal(other.lengths, base.lengths)
    chain.append((other, n))
    chain.append((_mutate(other, rows_with_words(other, 20), rng), 20))
    # no word at all, then words again
    chain.append((_all_n(other, range(n)), None))
    chain.append((other, None))

    model = NgramModel.load(model_path)
    for step, (readset, want_segmented) in enumerate(chain):
        want = _report(NgramModel.load(model_path), readset)
        segmented.clear()
        assert _report(model, readset) == want, f"step {step}"
        if want_segmented is not None:
            assert sum(segmented) == want_segmented, f"step {step}"
    assert isinstance(_report(model, chain[-2][0]), str)


def _tweak_view(model: NgramModel, round_: int) -> None:
    """Read the dict view and change one count through it."""
    word = next(iter(model.counts[0][()]))
    model.counts[0][()][word] += 7
    model.totals[0][()] += 7


def _retrain(model: NgramModel, round_: int) -> None:
    rng = np.random.default_rng(round_)
    model._count(segment_reads(_pool(rng, 200), model.word_len))


def _set_p_floor(model: NgramModel, round_: int) -> None:
    model.p_floor = 0.01 * round_


@pytest.mark.parametrize("change", [_tweak_view, _retrain, _set_p_floor])
def test_a_changed_model_does_not_reuse_its_last_sums(change, model_path, tmp_path):
    rng = np.random.default_rng(3)
    first = _pool(rng, 150)
    second = _mutate(first, [4, 9], rng)
    model = NgramModel.load(model_path)
    model.score_reads(first)
    before = model_path
    for round_, readset in enumerate((second, first, second), 1):
        change(model, round_)
        path = str(tmp_path / f"changed{round_}.ngram")
        model.save(path)
        want = _report(NgramModel.load(path), readset)
        assert want != _report(NgramModel.load(before), readset)
        assert _report(model, readset) == want
        before = path


@pytest.mark.parametrize("block", [1, 7, 64])
def test_score_blocks_leave_sums_counts_and_reports_unchanged(model_path, monkeypatch, block):
    # reads of up to 7 words straddle blocks of 7 and 64 words; the second
    # set differs in a few rows, so it takes the changed-rows path
    rng = np.random.default_rng(17)
    first = _pool(rng, 300)
    second = _mutate(first, [2, 40, 41, 299], rng)
    words = segment_reads(first, WORD_LEN)
    assert len(words.codes) > 10 * 64

    def scores():
        model = NgramModel.load(model_path)
        sums, count = model._sums(words, len(first))
        rescored = []
        score = model._sums
        model._sums = lambda w, n: rescored.append(n) or score(w, n)
        reports = [model.score_reads(s).to_dict() for s in (first, second)]
        assert rescored == [len(first), int(second.differing(first).sum())]
        return sums.tolist(), count.tolist(), reports, model._last.sums.tolist()

    want = scores()
    monkeypatch.setattr(ngram, "_SCORE_BLOCK", block)
    assert scores() == want
