"""Correlation and sweep-report checks."""

from __future__ import annotations

import json
import math

import pytest

from ectuner.metrics import CorrelationError, SweepReport, SweepRow, pearson, sweep
from ectuner.ngram import PerplexityReport
from ectuner.seqio import Read, ReadSet


class _Corrected(ReadSet):
    """A read set tagged with the value it was corrected at."""

    def __init__(self, reads, value):
        super().__init__(reads)
        self.value = value


class _FixedLm:
    """Maps the value a ``_Corrected`` set is tagged with to a score."""

    def __init__(self, table):
        self.table = table

    def score_reads(self, readset):
        v = readset.value
        return PerplexityReport(
            avg_perplexity=self.table[v],
            scored_words=1,
            skipped_words=0,
            sum_neg_log_prob=0.0,
        )


def _tag_corrector(readset, value):
    return _Corrected(readset, value)


def test_pearson_perfect_anticorrelation():
    xs = [1.0, 2.0, 3.0, 4.0, 5.0]
    ys = [-x for x in xs]
    assert pearson(xs, ys) == pytest.approx(-1.0, abs=1e-12)
    assert pearson(xs, xs) == pytest.approx(1.0, abs=1e-12)


def test_pearson_hand_computed_value():
    xs = [1.0, 2.0, 3.0]
    ys = [1.0, 3.0, 2.0]
    # cov = (-1)(-1) + 0 + (1)(0) ... explicit: means are 2 and 2
    cov = (1 - 2) * (1 - 2) + (2 - 2) * (3 - 2) + (3 - 2) * (2 - 2)
    r = cov / math.sqrt(2.0 * 2.0)
    assert pearson(xs, ys) == pytest.approx(r, rel=1e-15)


def test_pearson_is_shift_and_scale_invariant():
    xs = [3.0, 1.0, 4.0, 1.0, 5.0]
    ys = [2.0, 7.0, 1.0, 8.0, 2.0]
    base = pearson(xs, ys)
    assert pearson([10 * x + 3 for x in xs], ys) == pytest.approx(base, rel=1e-12)
    assert pearson(xs, [0.5 * y - 9 for y in ys]) == pytest.approx(base, rel=1e-12)


def test_pearson_errors():
    with pytest.raises(CorrelationError):
        pearson([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(CorrelationError):
        pearson([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(CorrelationError):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(CorrelationError):
        pearson([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])


def test_sweep_rows_sorted_and_deduplicated():
    dataset = ReadSet((Read("r", "ACGT"),))
    lm = _FixedLm({9: 30.0, 13: 10.0, 17: 20.0})
    report = sweep(dataset, _tag_corrector, [17, 9, 13, 9], {"ngram": lm})
    assert [r.value for r in report.rows] == [9, 13, 17]
    assert [r.perplexity_ngram for r in report.rows] == [30.0, 10.0, 20.0]
    assert report.correlations == {}


def test_sweep_computes_gain_and_correlation():
    truth = ReadSet((Read("r", "AAAA"),))
    dataset = ReadSet((Read("r", "AATA"),))  # one error at pos 2

    def corrector(readset, value):
        # higher value fixes the read; lower one breaks another base
        fixed = "AAAA" if value >= 12 else "CATA"
        return _Corrected((Read("r", fixed),), value)

    lm = _FixedLm({9: 50.0, 12: 8.0, 15: 7.0})
    report = sweep(dataset, corrector, [9, 12, 15], {"ngram": lm}, truth=truth)
    gains = [r.gain for r in report.rows]
    assert gains == [-1.0, 1.0, 1.0]
    assert report.correlations["ngram_vs_gain"] == pytest.approx(
        pearson([50.0, 8.0, 7.0], gains), rel=1e-12
    )
    assert report.correlations["ngram_vs_gain"] < -0.9


def test_sweep_external_quality_column():
    dataset = ReadSet((Read("r", "ACGT"),))
    lm = _FixedLm({1: 3.0, 2: 2.0, 3: 1.0})
    report = sweep(
        dataset,
        _tag_corrector,
        [1, 2, 3],
        {"ngram": lm},
        external_quality={1: 0.1, 2: 0.5, 3: 0.9},
    )
    assert report.correlations["ngram_vs_external_quality"] == pytest.approx(
        -1.0, abs=1e-12
    )


def test_sweep_identity_corrector_zero_variance_is_the_reports_failure():
    dataset = ReadSet((Read("r", "ACGT"),))
    # each column comes from its own model; only the RNN's varies
    models = {"rnn": _FixedLm({1: 3.0, 2: 2.0, 3: 1.0}),
              "ngram": _FixedLm({1: 5.0, 2: 5.0, 3: 5.0})}
    report = sweep(
        dataset,
        _tag_corrector,
        [1, 2, 3],
        models,
        external_quality={1: 0.1, 2: 0.5, 3: 0.9},
    )
    assert [r.perplexity_ngram for r in report.rows] == [5.0, 5.0, 5.0]
    assert [r.perplexity_rnn for r in report.rows] == [3.0, 2.0, 1.0]
    assert report.correlations == {"rnn_vs_external_quality": pytest.approx(-1.0)}
    assert isinstance(report.failure, CorrelationError)
    assert "zero variance" in str(report.failure)


def test_sweep_requires_model_and_values():
    dataset = ReadSet((Read("r", "ACGT"),))
    with pytest.raises(ValueError):
        sweep(dataset, _tag_corrector, [1, 2, 3], {})
    with pytest.raises(ValueError):
        sweep(dataset, _tag_corrector, [], {"ngram": _FixedLm({})})


def test_tsv_round_trip_preserves_float_precision():
    rows = (
        SweepRow(value=9, perplexity_ngram=63.98521734210101, gain=-0.23713),
        SweepRow(value=11, perplexity_ngram=31.8551, gain=0.34434),
    )
    report = SweepReport(rows=rows, correlations={"ngram_vs_gain": -0.99})
    text = report.to_tsv()
    lines = text.strip().split("\n")
    assert lines[0] == "value\tperplexity_ngram\tperplexity_rnn\tgain\texternal_quality"
    cells = lines[1].split("\t")
    assert cells[0] == "9"
    assert float(cells[1]) == rows[0].perplexity_ngram  # repr() is lossless
    assert cells[2] == ""  # absent column stays blank
    assert float(cells[3]) == rows[0].gain


def test_json_report_omits_absent_columns():
    rows = (SweepRow(value=9, perplexity_ngram=2.0),)
    report = SweepReport(rows=rows, correlations={})
    payload = json.loads(report.to_json())
    assert payload["rows"] == [{"value": 9, "perplexity_ngram": 2.0}]
    assert payload["correlations"] == {}
