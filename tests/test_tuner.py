"""Hill-climb behavior on synthetic landscapes plus the tune() composition."""

from __future__ import annotations

import gc
import random
import weakref

import pytest

from ectuner import ngram, tuner
from ectuner.ecsim import builtin_corrector
from ectuner.injector import InjectionSpec, generate_genome, inject_readset, sample_clean_reads
from ectuner.ngram import PerplexityReport
from ectuner.seqio import Read, ReadSet
from ectuner.tuner import (
    TERM_BOUNDARY,
    TERM_ITERATION_BUDGET,
    TERM_LOCAL_MINIMUM,
    SearchResult,
    SearchSpace,
    climb,
    tune,
)


def _spy(fn, space=None):
    calls = []

    def wrapped(v):
        if space is not None:
            assert space.lower <= v <= space.upper, f"evaluated out-of-range {v}"
        calls.append(v)
        return fn(v)

    return wrapped, calls


def test_search_space_validation():
    with pytest.raises(ValueError):
        SearchSpace(lower=10, upper=5)
    with pytest.raises(ValueError):
        SearchSpace(lower=1, upper=9, step=0)
    with pytest.raises(ValueError):
        SearchSpace(lower=1, upper=9, iter_max=-1)
    with pytest.raises(ValueError):
        SearchSpace(lower=1, upper=9, initials=(11,))
    space = SearchSpace(lower=9, upper=25)
    assert space.midpoint == 17
    assert space.start_points() == (17,)
    assert SearchSpace(lower=9, upper=25, initials=(9, 25)).start_points() == (9, 25)


@pytest.mark.parametrize(
    "lower, upper, step, midpoint",
    [(9, 25, 2, 17), (9, 13, 2, 11), (3, 5, 2, 3), (9, 23, 2, 15), (9, 24, 2, 15),
     (9, 25, 4, 17), (9, 20, 3, 12), (5, 5, 2, 5), (4, 9, 1, 6)],
)
def test_midpoint_lies_on_the_step_lattice(lower, upper, step, midpoint):
    space = SearchSpace(lower=lower, upper=upper, step=step)
    assert space.midpoint == midpoint
    assert (space.midpoint - lower) % step == 0 and lower <= space.midpoint <= upper


def test_a_two_value_range_evaluates_both_values():
    # the old midpoint of 3..5 was 4: it evaluated k=4 alone, its neighbours
    # 2 and 6 being out of range, and reported a boundary
    space = SearchSpace(lower=3, upper=5, step=2)
    f, calls = _spy(lambda k: float(k), space)
    res = climb(f, space.midpoint, space)
    assert sorted(calls) == [3, 5]
    assert res.best_value == 3


def test_an_even_width_range_climbs_through_its_own_values():
    # 9..23 used to start at 16 and climb the even k only
    space = SearchSpace(lower=9, upper=23, step=2)
    f, calls = _spy(lambda k: (k - 11) ** 2 + 1.0, space)
    res = climb(f, space.midpoint, space)
    assert calls[0] == 15 and all(k % 2 for k in calls)
    assert res.best_value == 11 and res.termination == TERM_LOCAL_MINIMUM


def test_climb_stops_at_immediate_local_minimum():
    space = SearchSpace(lower=9, upper=25, step=2, iter_max=30)
    f, calls = _spy(lambda k: (k - 17) ** 2 + 10.0, space)
    res = climb(f, 17, space)
    assert res.best_value == 17
    assert res.best_perplexity == 10.0
    assert res.termination == TERM_LOCAL_MINIMUM
    assert sorted(calls) == [15, 17, 19]
    assert res.evaluations == 3
    assert res.trace[0] == (17, 10.0)


def test_climb_descends_to_the_minimum_from_an_edge():
    space = SearchSpace(lower=9, upper=25, step=2, iter_max=30)
    f, calls = _spy(lambda k: (k - 17) ** 2 + 10.0, space)
    res = climb(f, 9, space)
    assert res.best_value == 17
    assert res.termination == TERM_LOCAL_MINIMUM
    assert len(calls) == len(set(calls))  # memo prevents repeat evaluations
    assert res.evaluations <= (25 - 9) // 2 + 1


def test_climb_reports_boundary_termination():
    space = SearchSpace(lower=9, upper=25, step=2, iter_max=30)
    f, calls = _spy(lambda k: float(-k), space)  # keeps improving to the right
    res = climb(f, 17, space)
    assert res.best_value == 25
    assert res.termination == TERM_BOUNDARY
    assert max(calls) == 25


def test_climb_budget_zero_returns_best_of_first_triple():
    space = SearchSpace(lower=9, upper=25, step=2, iter_max=0)
    f, calls = _spy(lambda k: float(k), space)
    res = climb(f, 17, space)
    assert sorted(calls) == [15, 17, 19]
    assert res.best_value == 15
    assert res.termination == TERM_ITERATION_BUDGET


def test_climb_budget_exhaustion_returns_best_seen():
    space = SearchSpace(lower=1, upper=101, step=1, iter_max=3)
    f, calls = _spy(lambda k: float(100 - k), space)
    res = climb(f, 50, space)
    # three moves from 50 explore up to 54; best seen is the largest k
    assert res.best_value == 54
    assert res.best_perplexity == 46.0
    assert res.termination == TERM_ITERATION_BUDGET
    assert res.evaluations == len(set(calls))


def test_climb_plateau_tie_prefers_smaller_value():
    space = SearchSpace(lower=9, upper=17, step=2, iter_max=10)
    f, calls = _spy(lambda k: 5.0, space)
    res = climb(f, 13, space)
    assert res.termination == TERM_ITERATION_BUDGET
    assert res.best_value == 9
    assert res.best_perplexity == 5.0


def test_climb_rejects_start_outside_range():
    space = SearchSpace(lower=9, upper=25)
    with pytest.raises(ValueError):
        climb(lambda k: 0.0, 7, space)


def test_climb_finds_global_argmin_on_random_unimodal_landscapes():
    rng = random.Random(99)
    for trial in range(30):
        lower = rng.randint(-20, 20)
        upper = lower + rng.randint(4, 40)
        m = rng.randint(lower, upper)
        scale = rng.uniform(0.5, 5.0)
        space = SearchSpace(lower=lower, upper=upper, step=1, iter_max=upper - lower)
        f, calls = _spy(lambda k, m=m, s=scale: s * (k - m) ** 2, space)
        start = rng.randint(lower, upper)
        res = climb(f, start, space)
        assert res.best_value == m, (trial, lower, upper, m, start)
        assert res.best_perplexity == 0.0
        assert len(calls) == len(set(calls))
        assert res.evaluations <= (upper - lower) + 1


def test_climb_shares_memo_across_restarts():
    space = SearchSpace(lower=9, upper=25, step=2, iter_max=30)
    f, calls = _spy(lambda k: (k - 17) ** 2 + 1.0, space)
    memo = {}
    first = climb(f, 13, space, memo)
    n_after_first = len(calls)
    second = climb(f, 21, space, memo)
    assert first.best_value == second.best_value == 17
    # the second climb only paid for values the first never visited
    assert len(calls) == len(set(calls))
    assert len(calls) > n_after_first  # 21's right neighbor was new
    assert set(calls) == {11, 13, 15, 17, 19, 21, 23}


class _Corrected(ReadSet):
    """A read set tagged with the value it was corrected at."""

    def __init__(self, reads, value):
        super().__init__(reads)
        self.value = value


class _LandscapeLm:
    """Scores a ``_Corrected`` set by the value it is tagged with."""

    def __init__(self, f):
        self.f = f

    def score_reads(self, readset):
        value = readset.value
        pp = self.f(value)
        return PerplexityReport(
            avg_perplexity=pp, scored_words=1, skipped_words=0, sum_neg_log_prob=0.0
        )


def _tagging_corrector(log):
    def correct(readset, value):
        log.append((len(readset), value))
        return _Corrected(readset, value)

    return correct


def test_tune_runs_restarts_with_shared_memo_and_corrects_fully():
    dataset = ReadSet(tuple(Read(f"r{i}", "ACGT") for i in range(100)))
    log = []
    corrector = _tagging_corrector(log)
    lm = _LandscapeLm(lambda k: abs(k - 15) + 2.0)
    space = SearchSpace(lower=9, upper=25, step=2, iter_max=30, initials=(9, 25))
    result = tune(dataset, lambda reads: lm, corrector, space, sample_n=10, seed=1)
    assert result.best_value == 15
    assert len(result.searches) == 2
    assert {s.termination for s in result.searches} == {TERM_LOCAL_MINIMUM}
    sample_calls = [(n, v) for n, v in log if n == 10]
    full_calls = [(n, v) for n, v in log if n == 100]
    # memo shared across restarts: one sample correction per distinct value
    assert len(sample_calls) == len({v for _, v in sample_calls})
    assert full_calls == [(100, 15)]
    assert result.evaluations == len(sample_calls)
    assert result.evaluations <= (25 - 9) // 2 + 1
    assert len(result.corrected) == 100


def test_tune_tie_between_restart_winners_prefers_smaller_value():
    dataset = ReadSet(tuple(Read(f"r{i}", "ACGT") for i in range(20)))
    corrector = _tagging_corrector([])
    # two symmetric basins with equal minima at 11 and 23
    lm = _LandscapeLm(lambda k: min(abs(k - 11), abs(k - 23)) + 1.0)
    space = SearchSpace(lower=9, upper=25, step=2, iter_max=30, initials=(9, 25))
    result = tune(dataset, lambda reads: lm, corrector, space, sample_n=20, seed=1)
    assert result.best_value == 11


def test_tune_draws_its_sample_then_trains_on_the_whole_set(monkeypatch):
    dataset = ReadSet(tuple(Read(f"r{i}", "ACGT") for i in range(30)))
    events = []
    draw = tuner.sample_reads

    def sample_reads(readset, n, seed):
        events.append(("sample", len(readset), n, seed))
        return draw(readset, n, seed)

    def train(reads):
        events.append(("train", len(reads)))
        return _LandscapeLm(lambda k: abs(k - 13) + 1.0)

    monkeypatch.setattr(tuner, "sample_reads", sample_reads)
    result = tune(dataset, train, _tagging_corrector([]), SearchSpace(9, 17),
                  sample_n=10, seed=4)
    assert events == [("sample", 30, 10, 4), ("train", 30)]
    assert result.best_value == 13


def test_tune_frees_the_model_and_sample_before_the_full_correction():
    genome = generate_genome(3_000, seed=80)
    reads = sample_clean_reads(genome, 600, 50, seed=81)
    models, samples, alive = [], [], []

    def train(readset):
        model = ngram.train_reads(readset)
        models.append(weakref.ref(model))
        return model

    def corrector(readset, value):
        if len(readset) < len(reads):
            samples.append(weakref.ref(readset))
        else:
            # the model's last scored sums hold a corrected sample
            gc.collect()
            alive.append((models[0](), [s() for s in samples]))
        return builtin_corrector()(readset, value)

    result = tune(reads, train, corrector, SearchSpace(9, 13), sample_n=200)
    assert len(samples) == result.evaluations
    assert alive == [(None, [None] * len(samples))]


def test_tune_on_real_components_small_scale():
    genome = generate_genome(20_000, seed=70)
    clean = sample_clean_reads(genome, 8000, 50, seed=71)
    corrupted, _ = inject_readset(clean, InjectionSpec("substitution", "low", seed=72))
    space = SearchSpace(lower=9, upper=21, step=2, iter_max=10)
    result = tune(
        dataset=corrupted,
        train=lambda reads: ngram.train_reads(reads, word_len=7, history=3),
        corrector=builtin_corrector(solid_min=3, max_edits=2),
        space=space,
        sample_n=len(corrupted),
        seed=73,
    )
    assert 9 <= result.best_value <= 21
    assert len(result.corrected) == len(corrupted)
    assert result.evaluations <= (21 - 9) // 2 + 1
    for search in result.searches:
        for v, pp in search.trace:
            assert 9 <= v <= 21
            assert pp > 0


def test_search_result_serialization():
    res = SearchResult(
        best_value=15,
        best_perplexity=2.5,
        trace=((17, 3.0), (15, 2.5), (19, 4.0)),
        termination=TERM_LOCAL_MINIMUM,
    )
    d = res.to_dict()
    assert d["best_value"] == 15
    assert d["trace"] == [[17, 3.0], [15, 2.5], [19, 4.0]]
    assert d["evaluations"] == 3  # the trace's length
    assert d["termination"] == "local_minimum"
