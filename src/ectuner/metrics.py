"""Parameter sweeps and the perplexity/quality correlation.

A sweep corrects the dataset at every requested parameter value, scores each
result with the given language model(s), and, when ground truth is supplied,
computes the per-base correction gain alongside.  Pearson correlations
between each perplexity column and each quality column summarize how well
perplexity tracks quality (strongly negative is the useful regime).
Consecutive values score the dataset with one model, so an n-gram model
rescores only the reads whose bases changed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .ecsim import ec_gain
from .seqio import ReadSet


class CorrelationError(ValueError):
    """A correlation is undefined.  Raised from ``sweep``, it carries the
    finished ``report``: every row plus the correlations that are defined."""

    report: "SweepReport | None" = None


def pearson(xs: Iterable[float], ys: Iterable[float]) -> float:
    """Sample Pearson correlation; defined for n >= 3 with nonzero variance."""
    x = [float(v) for v in xs]
    y = [float(v) for v in ys]
    if len(x) != len(y):
        raise CorrelationError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 3:
        raise CorrelationError(f"need at least 3 points, got {len(x)}")
    n = len(x)
    mx = math.fsum(x) / n
    my = math.fsum(y) / n
    cov = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = math.fsum((a - mx) ** 2 for a in x)
    vy = math.fsum((b - my) ** 2 for b in y)
    if vx == 0.0 or vy == 0.0:
        raise CorrelationError("zero variance; correlation undefined")
    return cov / math.sqrt(vx * vy)


@dataclass(frozen=True)
class SweepRow:
    value: int
    perplexity_ngram: float | None = None
    perplexity_rnn: float | None = None
    gain: float | None = None
    external_quality: float | None = None


COLUMNS = ("value", "perplexity_ngram", "perplexity_rnn", "gain", "external_quality")


@dataclass(frozen=True)
class SweepReport:
    rows: tuple[SweepRow, ...]
    correlations: dict[str, float]

    def to_tsv(self) -> str:
        lines = ["\t".join(COLUMNS)]
        for r in self.rows:
            cells = []
            for col in COLUMNS:
                v = getattr(r, col)
                cells.append("" if v is None else repr(v) if isinstance(v, float) else str(v))
            lines.append("\t".join(cells))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "rows": [
                {col: getattr(r, col) for col in COLUMNS if getattr(r, col) is not None}
                for r in self.rows
            ],
            "correlations": self.correlations,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def sweep(
    dataset: ReadSet,
    corrector: Callable[[ReadSet, int], ReadSet],
    values: Iterable[int],
    ngram_lm=None,
    rnn_lm=None,
    truth: ReadSet | None = None,
    external_quality: Mapping[int, float] | None = None,
) -> SweepReport:
    """Evaluate every value; one row per distinct value, sorted ascending.

    When a correlation is undefined, raises the first CorrelationError met,
    with the report of all rows and the defined correlations attached.
    """
    if ngram_lm is None and rnn_lm is None:
        raise ValueError("sweep needs at least one language model")
    vals = sorted(set(int(v) for v in values))
    if not vals:
        raise ValueError("no parameter values to sweep")
    rows = []
    for v in vals:
        corrected = corrector(dataset, v)
        row = SweepRow(
            value=v,
            perplexity_ngram=(
                ngram_lm.score_reads(corrected).avg_perplexity
                if ngram_lm is not None
                else None
            ),
            perplexity_rnn=(
                rnn_lm.score_reads(corrected).avg_perplexity
                if rnn_lm is not None
                else None
            ),
            gain=(ec_gain(dataset, corrected, truth) if truth is not None else None),
            external_quality=(
                float(external_quality[v]) if external_quality is not None else None
            ),
        )
        rows.append(row)
    correlations: dict[str, float] = {}
    failure: CorrelationError | None = None
    for pp_col in ("perplexity_ngram", "perplexity_rnn"):
        pps = [getattr(r, pp_col) for r in rows]
        if pps[0] is None:
            continue
        for qual_col in ("gain", "external_quality"):
            quals = [getattr(r, qual_col) for r in rows]
            if quals[0] is None:
                continue
            key = f"{pp_col.removeprefix('perplexity_')}_vs_{qual_col}"
            try:
                correlations[key] = pearson(pps, quals)
            except CorrelationError as exc:
                failure = failure or exc
    report = SweepReport(rows=tuple(rows), correlations=correlations)
    if failure is not None:
        failure.report = report
        raise failure
    return report
