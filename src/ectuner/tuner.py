"""Hill-climbing search for the error-correction parameter.

The objective for a candidate value k is the language-model perplexity of the
corrected sample: correct the fixed sample at k, score it, memoize.  From a
starting point (each of ``initials``, else the middle value of the lattice
lower, lower + step, ... up to upper) the climber evaluates k and its two
step-neighbors, stops if k beats both (a strict local minimum; reported as
``boundary`` when one neighbor lies outside the range), and otherwise moves
to the lower neighbor,
spending one unit of iteration budget per move.  Neighbors outside
[lower, upper] are treated as infinitely bad and are never evaluated.  With
memoization a full run costs at most floor((upper - lower) / step) + 1
distinct evaluations.  Consecutive evaluations score one sample with one
model, so an n-gram model rescores only the reads whose bases changed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .seqio import ReadSet, sample_reads

TERM_LOCAL_MINIMUM = "local_minimum"
TERM_BOUNDARY = "boundary"
TERM_ITERATION_BUDGET = "iteration_budget"


@dataclass(frozen=True)
class SearchSpace:
    lower: int
    upper: int
    step: int = 2
    iter_max: int = 30
    initials: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ValueError(f"empty range [{self.lower}, {self.upper}]")
        if self.step < 1:
            raise ValueError(f"step must be >= 1, got {self.step}")
        if self.iter_max < 0:
            raise ValueError(f"iteration budget must be >= 0, got {self.iter_max}")
        for k in self.initials or ():
            if not self.lower <= k <= self.upper:
                raise ValueError(
                    f"initial {k} outside range [{self.lower}, {self.upper}]"
                )

    @property
    def midpoint(self) -> int:
        """The middle of the lattice lower, lower + step, ... up to upper,
        rounded down, so the climb meets only values a sweep would try."""
        return self.lower + self.step * ((self.upper - self.lower) // self.step // 2)

    def start_points(self) -> tuple[int, ...]:
        return self.initials if self.initials else (self.midpoint,)


@dataclass(frozen=True)
class SearchResult:
    best_value: int
    best_perplexity: float
    trace: tuple[tuple[int, float], ...]
    termination: str

    @property
    def evaluations(self) -> int:
        return len(self.trace)

    def to_dict(self) -> dict:
        return {
            "best_value": self.best_value,
            "best_perplexity": self.best_perplexity,
            "trace": [[v, p] for v, p in self.trace],
            "evaluations": self.evaluations,
            "termination": self.termination,
        }


def climb(
    objective: Callable[[int], float],
    start: int,
    space: SearchSpace,
    memo: dict[int, float] | None = None,
) -> SearchResult:
    """Descend from ``start`` on the memoized integer landscape."""
    if not space.lower <= start <= space.upper:
        raise ValueError(
            f"start {start} outside range [{space.lower}, {space.upper}]"
        )
    if memo is None:
        memo = {}
    trace: dict[int, float] = {}  # in the order this climb first meets them

    def f(v: int) -> float:
        if v not in memo:
            memo[v] = objective(v)
        return trace.setdefault(v, memo[v])

    k = start
    budget = space.iter_max
    while True:
        fk = f(k)
        left, right = k - space.step, k + space.step
        f_left = f(left) if left >= space.lower else math.inf
        f_right = f(right) if right <= space.upper else math.inf
        if fk < f_left and fk < f_right:
            at_edge = left < space.lower or right > space.upper
            return SearchResult(
                best_value=k,
                best_perplexity=fk,
                trace=tuple(trace.items()),
                termination=TERM_BOUNDARY if at_edge else TERM_LOCAL_MINIMUM,
            )
        if budget <= 0:
            best_v, best_f = min(trace.items(), key=lambda e: (e[1], e[0]))
            return SearchResult(
                best_value=best_v,
                best_perplexity=best_f,
                trace=tuple(trace.items()),
                termination=TERM_ITERATION_BUDGET,
            )
        budget -= 1
        k = left if f_left <= f_right else right


def evaluate_point(
    lm,
    corrector: Callable[[ReadSet, int], ReadSet],
    reads: ReadSet,
    value: int,
) -> tuple[float, ReadSet]:
    """One tuner evaluation, for ``tune`` and ``sweep`` alike: (perplexity
    under ``lm``, reads) of ``reads`` corrected at ``value``."""
    corrected = corrector(reads, value)
    return lm.score_reads(corrected).avg_perplexity, corrected


@dataclass(frozen=True)
class TuneResult:
    best_value: int
    corrected: ReadSet
    searches: tuple[SearchResult, ...]
    evaluations: int

    def to_dict(self) -> dict:
        return {"best_value": self.best_value, "evaluations": self.evaluations,
                "searches": [s.to_dict() for s in self.searches]}


def tune(
    dataset: ReadSet,
    train: Callable[[ReadSet], object],
    corrector: Callable[[ReadSet, int], ReadSet],
    space: SearchSpace,
    sample_n: int,
    seed: int = 0,
) -> TuneResult:
    """Find the parameter minimizing sample perplexity, then correct fully.

    One sample is drawn up front and reused for every evaluated value; then
    ``train(dataset)`` returns the model that scores it, any object exposing
    ``score_reads``.  Restarts share one memo table.  The overall winner
    (ties to the smaller value) is applied to the whole dataset after the
    model and the sample, whose only references ``tune`` holds, are dropped.
    """
    sample = sample_reads(dataset, sample_n, seed)
    lm = train(dataset)
    memo: dict[int, float] = {}

    def objective(value: int) -> float:
        return evaluate_point(lm, corrector, sample, value)[0]

    searches = tuple(
        climb(objective, start, space, memo) for start in space.start_points()
    )
    # the full correction needs neither the model (nor the sums it keeps of
    # the scored sample) nor the sample
    del lm, objective, sample
    best = min(searches, key=lambda s: (s.best_perplexity, s.best_value))
    corrected = corrector(dataset, best.best_value)
    return TuneResult(best_value=best.best_value, corrected=corrected,
                      searches=searches, evaluations=len(memo))
