"""Parameter sweeps and the perplexity/gain correlation.

A sweep runs ``tuner.evaluate_point`` on the dataset at every requested
parameter value, with one language model that fills the perplexity column of
its kind (``perplexity_ngram`` or ``perplexity_rnn``), and, when ground truth
is supplied, computes the per-base correction gain alongside.  A row is a
dict of only the columns it has: JSON writes it as it is, TSV under
``COLUMNS`` with a blank cell for each column it lacks.  The Pearson
correlation of perplexity with gain summarizes how well perplexity tracks
quality (strongly negative is the useful regime); when it is undefined, the
report keeps its error as its ``failure``, so a caller can write every row
before it fails.  Consecutive values score the dataset with one model, so an
n-gram model rescores only the reads whose bases changed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable

from .ecsim import ec_gain
from .seqio import ReadSet
from .tuner import evaluate_point


class CorrelationError(ValueError):
    """A correlation is undefined."""


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


COLUMNS = ("value", "perplexity_ngram", "perplexity_rnn", "gain")


@dataclass(frozen=True)
class SweepReport:
    """Every row, the correlations that are defined, and the error of one
    that is not (None when all are)."""

    rows: list[dict]
    correlations: dict[str, float]
    failure: CorrelationError | None = None

    def to_tsv(self) -> str:
        lines = ["\t".join(COLUMNS)]
        for row in self.rows:
            lines.append("\t".join(str(row.get(col, "")) for col in COLUMNS))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {"rows": self.rows, "correlations": self.correlations}
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def sweep(
    dataset: ReadSet,
    corrector: Callable[[ReadSet, int], ReadSet],
    values: Iterable[int],
    lm,
    kind: str = "ngram",
    truth: ReadSet | None = None,
) -> SweepReport:
    """Evaluate every value; one row per distinct value, sorted ascending.

    ``lm`` fills the perplexity column of its ``kind``, "ngram" or "rnn".
    """
    vals = sorted(set(int(v) for v in values))
    if not vals:
        raise ValueError("no parameter values to sweep")
    column = f"perplexity_{kind}"
    rows = []
    for v in vals:
        perplexity, corrected = evaluate_point(lm, corrector, dataset, v)
        row = {"value": v, column: perplexity}
        if truth is not None:
            row["gain"] = ec_gain(dataset, corrected, truth)
        rows.append(row)
    correlations: dict[str, float] = {}
    failure: CorrelationError | None = None
    if truth is not None:
        try:
            correlations[f"{kind}_vs_gain"] = pearson(
                [row[column] for row in rows], [row["gain"] for row in rows]
            )
        except CorrelationError as exc:
            failure = exc
    return SweepReport(rows, correlations, failure)
