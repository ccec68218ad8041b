"""Whole-pipeline acceptance gates.

Each test is one numbered gate the finished package must clear.  Unlike the
per-module suites these run the components together at synthetic-genome
scale: a 50 kb genome, tens of thousands of reads, full sweep/tune cycles.
Heavy intermediate results are module-scoped fixtures so the file stays
within a few minutes of wall time on a single desktop machine.

Gate list:
  1. perplexity rises with injected error rate, kind by kind
  2. perplexity anti-correlates with correction gain across a k sweep
  3. the tuner returns a k whose gain is near the exhaustive-sweep optimum
  4. n-gram perplexity equals the direct product form on small corpora
  5. RNN gradients, uniform calibration, and learnability
  6. injection length accounting, changed-fraction, and ledger replay
  7. thread count never changes output bytes
  8. hill-climb search properties on random unimodal landscapes
"""

from __future__ import annotations

import glob
import json
import math
import os
import random
import time

import numpy as np
import pytest

from ectuner import ecsim, ngram
from ectuner._rng import make_rng
from ectuner.charrnn import RnnLm, TrainConfig, gradient_check, perplexity, train
from ectuner.cli import main
from ectuner.injector import (
    InjectionSpec,
    _substitute,
    generate_genome,
    inject_readset,
    revert,
    sample_clean_reads,
)
from ectuner.metrics import pearson
from ectuner.ngram import NgramModel
from ectuner.seqio import Read, ReadSet, encode_word, write_fastq
from ectuner.tuner import (
    TERM_BOUNDARY,
    TERM_ITERATION_BUDGET,
    TERM_LOCAL_MINIMUM,
    SearchSpace,
    climb,
)

from ngram_oracles import SMALL_CORPORA, assert_product_form_matches, seq

KINDS = ("deletion", "insertion", "substitution", "mixture")
GRID = tuple(range(9, 26, 2))


@pytest.fixture(scope="module")
def genome():
    return generate_genome(50_000, seed=101)


@pytest.fixture(scope="module")
def corruption_scenario(genome, tmp_path_factory):
    """Substitution/low corruption at 60x coverage, shared by gates 2 and 3."""
    clean = sample_clean_reads(genome, 60_000, 50, seed=102)
    spec = InjectionSpec("substitution", "low", seed=103)
    corrupted, _ = inject_readset(clean, spec)
    base = tmp_path_factory.mktemp("scenario")
    reads_path = str(base / "corrupted.fastq")
    write_fastq(corrupted, reads_path)
    return {"clean": clean, "corrupted": corrupted, "reads_path": reads_path}


@pytest.fixture(scope="module")
def sweep_results(corruption_scenario):
    """Exhaustive (perplexity, gain) grid over GRID with the shared corrector."""
    t0 = time.monotonic()
    corrupted = corruption_scenario["corrupted"]
    clean = corruption_scenario["clean"]
    lm = ngram.train_reads(corrupted, word_len=7, history=3)
    rows = {}
    for k in GRID:
        config = ecsim.KSpectrumConfig(k, solid_min=3, max_edits=2)
        corrected = ecsim.kspectrum_correct(corrupted, config)
        pp = lm.score_reads(corrected).avg_perplexity
        gain = ecsim.ec_gain(corrupted, corrected, clean)
        rows[k] = (pp, gain)
    return {"rows": rows, "elapsed": time.monotonic() - t0}


def test_gate_1_perplexity_rises_with_error_rate(genome):
    t0 = time.monotonic()
    clean = sample_clean_reads(genome, 20_000, 50, seed=102)
    lm = ngram.train_reads(clean, word_len=7, history=3)
    pp_clean = lm.score_reads(clean).avg_perplexity
    pp = {}
    for kind in KINDS:
        for regime in ("low", "high"):
            spec = InjectionSpec(kind, regime, seed=103)
            corrupted, _ = inject_readset(clean, spec)
            pp[kind, regime] = lm.score_reads(corrupted).avg_perplexity
    for kind in KINDS:
        assert pp_clean < pp[kind, "low"] < pp[kind, "high"], (kind, pp_clean, pp)
    assert pp["insertion", "high"] > pp["deletion", "high"]
    assert pp["substitution", "high"] > pp["deletion", "high"]
    assert time.monotonic() - t0 < 120


def test_gate_2_perplexity_anticorrelates_with_gain(sweep_results):
    rows = sweep_results["rows"]
    pps = [rows[k][0] for k in GRID]
    gains = [rows[k][1] for k in GRID]
    r = pearson(pps, gains)
    assert r <= -0.8, (r, rows)
    assert sweep_results["elapsed"] < 300


def test_gate_3_tuner_finds_near_optimal_k(
    corruption_scenario, sweep_results, tmp_path
):
    out_dir = str(tmp_path / "tuned")
    rc = main(
        ["tune", "--reads", corruption_scenario["reads_path"],
         "--out-dir", out_dir, "--k-min", "9", "--k-max", "25",
         "--delta", "2", "--sample-n", "60000", "--threads", "8"]
    )
    assert rc == 0
    with open(os.path.join(out_dir, "search.json")) as fh:
        search = json.load(fh)
    k_star = search["best_value"]
    gains = {k: g for k, (_, g) in sweep_results["rows"].items()}
    best_k = max(gains, key=lambda k: gains[k])
    assert gains[k_star] >= gains[best_k] - 0.02, (k_star, best_k, gains)
    assert abs(k_star - best_k) <= 2
    assert search["evaluations"] <= (25 - 9) // 2 + 1


def test_gate_4_perplexity_matches_product_form():
    for case in SMALL_CORPORA:
        model = ngram.train(case["train"], history=case["h"])
        assert_product_form_matches(model, case["score"], rel=1e-9)
    # a hand-built uniform model over the four single-base words scores 4
    model = NgramModel(word_len=1, history=0)
    big = 10**12
    words = [encode_word(b) for b in "ACGT"]
    model.counts[0][()] = {w: big for w in words}
    model.totals[0][()] = 4 * big
    model.m_train = 4 * big
    report = model.perplexity([seq("A", "C", "G", "T"), seq("T", "G", "C", "A")])
    assert abs(report.avg_perplexity - 4.0) <= 1e-6
    # a one-word language is perfectly predictable up to the probability floor
    corpus = [seq(*["ACGTACG"] * 50_000)]
    model = ngram.train(corpus, history=3)
    assert abs(model.perplexity(corpus).avg_perplexity - 1.0) <= 1e-9


def test_gate_5_rnn_gradients_and_calibration():
    t0 = time.monotonic()
    rng = random.Random(3)
    for _ in range(20):
        layers = rng.choice((1, 2))
        hidden = rng.randint(2, 6)
        model = RnnLm.init(layers, hidden, seed=rng.randint(0, 10**6))
        s = "".join(rng.choices("ACGT", k=rng.randint(4, 9)))
        assert gradient_check(model, s) <= 1e-4
    # all-zero weights make every step uniform over four bases
    zero = RnnLm.init(1, 32, seed=0)
    zero.set_params([np.zeros_like(p) for p in zero.params()])
    reads = ReadSet(
        tuple(Read(f"z{i}", ("ACGT" * 9)[:33]) for i in range(16))
    )
    assert perplexity(zero, reads).avg_perplexity == 4.0
    # a periodic language is learnable to near-certainty
    prng = random.Random(21)
    periodic = ReadSet(tuple(
        Read(f"p{i}", ("ACGT" * 13)[prng.randrange(4):][:48]) for i in range(400)
    ))
    config = TrainConfig(
        layers=1, hidden=32, epochs=20, minibatch=32,
        learning_rate=0.5, unroll=24,
    )
    model, _ = train(periodic, config, seed=7)
    held = ReadSet(tuple(
        Read(f"h{i}", ("ACGT" * 13)[i % 4:][:48]) for i in range(50)
    ))
    assert perplexity(model, held).avg_perplexity <= 1.05
    # an i.i.d. uniform language stays incompressible
    g = make_rng(31)
    bases = "ACGT"
    uniform = ReadSet(tuple(
        Read(f"u{i}", "".join(bases[g.integers(4)] for _ in range(50)))
        for i in range(400)
    ))
    model, _ = train(uniform, TrainConfig(layers=1, hidden=32, epochs=3,
                                          minibatch=50), seed=8)
    g = make_rng(32)
    held = ReadSet(tuple(
        Read(f"v{i}", "".join(bases[g.integers(4)] for _ in range(50)))
        for i in range(200)
    ))
    assert 3.8 <= perplexity(model, held).avg_perplexity <= 4.2
    assert time.monotonic() - t0 < 300


def test_gate_6_injection_accounting_and_replay():
    genome = generate_genome(20_000, seed=61)
    clean = sample_clean_reads(genome, 10_000, 50, seed=62)
    for regime in ("low", "high"):
        spec = InjectionSpec("mixture", regime, seed=63)
        corrupted, ledger = inject_readset(clean, spec)
        delta = {}
        for e in ledger.entries:
            delta[e.read_id] = (
                delta.get(e.read_id, 0) + len(e.observed) - len(e.original)
            )
        for orig, got in zip(clean, corrupted):
            assert len(got.sequence) == len(orig.sequence) + delta.get(orig.id, 0)
            if got.quality is not None:
                assert len(got.quality) == len(got.sequence)
        restored = revert(corrupted, ledger)
        assert [r.sequence for r in restored] == [r.sequence for r in clean]
        assert [r.id for r in restored] == [r.id for r in clean]
    # a uniformly drawn replacement base differs from the original 3/4 of
    # the time, so real changes track draws at that rate
    rng = make_rng(18)
    big = generate_genome(1_000_000, seed=19)
    draws = 100_000
    _, edits = _substitute(big, draws, rng)
    assert 0.74 <= len(edits) / draws <= 0.76


def test_gate_7_thread_count_never_changes_output_bytes(tmp_path, capsys):
    genome = generate_genome(3_000, seed=71)
    clean = sample_clean_reads(genome, 500, 40, seed=72)
    clean_path = str(tmp_path / "clean.fastq")
    write_fastq(clean, clean_path)

    outputs = {}
    stdouts = {}
    for threads in ("1", "8"):
        d = tmp_path / f"t{threads}"
        d.mkdir()
        model = str(d / "lm.model")
        bad = str(d / "bad.fastq")
        ledger = str(d / "ledger.tsv")
        fixed = str(d / "fixed.fastq")
        tuned = str(d / "tuned")
        sweep_tsv = str(d / "sweep.tsv")
        sweep_json = str(d / "sweep.json")
        common = ["--seed", "5", "--threads", threads]
        assert main(["train", "--reads", clean_path, "--out", model,
                     *common]) == 0
        assert main(["inject", "--reads", clean_path, "--out", bad,
                     "--ledger", ledger, "--kind", "substitution",
                     "--regime", "low", *common]) == 0
        assert main(["correct", "--reads", bad, "--out", fixed,
                     "--k", "13", *common]) == 0
        assert main(["tune", "--reads", bad, "--out-dir", tuned,
                     "--k-min", "9", "--k-max", "13", "--delta", "2",
                     "--sample-n", "200", *common]) == 0
        assert main(["sweep", "--reads", bad, "--values", "9,11,13",
                     "--tsv-out", sweep_tsv, "--json-out", sweep_json,
                     *common]) == 0
        capsys.readouterr()
        assert main(["perplexity", "--model", model, "--reads", bad,
                     *common]) == 0
        stdouts[threads] = capsys.readouterr().out
        # resolved configs do not record --threads, so they are compared too
        configs = {
            os.path.relpath(path, d): path
            for path in glob.glob(str(d / "**" / "*config.json"), recursive=True)
        }
        # train, inject, correct, tune and sweep each write one
        assert len(configs) == 5, sorted(configs)
        outputs[threads] = {
            name: open(path, "rb").read()
            for name, path in [
                ("model", model),
                ("bad", bad),
                ("ledger", ledger),
                ("fixed", fixed),
                ("tuned_reads", os.path.join(tuned, "corrected.fastq")),
                ("trace", os.path.join(tuned, "search.json")),
                ("sweep_tsv", sweep_tsv),
                ("sweep_json", sweep_json),
                *sorted(configs.items()),
            ]
        }
    assert stdouts["1"] == stdouts["8"]
    assert outputs["1"].keys() == outputs["8"].keys()
    for name in outputs["1"]:
        assert outputs["1"][name] == outputs["8"][name], name


def test_gate_8_hill_climb_on_random_unimodal_landscapes():
    rng = random.Random(88)
    for trial in range(100):
        lower = rng.randint(-20, 50)
        upper = lower + rng.randint(2, 60)
        if trial == 0:
            m = lower
        elif trial == 1:
            m = upper
        else:
            m = rng.randint(lower, upper)
        values = {m: rng.uniform(0.0, 10.0)}
        for k in range(m - 1, lower - 1, -1):
            values[k] = values[k + 1] + rng.uniform(0.1, 5.0)
        for k in range(m + 1, upper + 1):
            values[k] = values[k - 1] + rng.uniform(0.1, 5.0)

        calls = []

        def f(k):
            assert lower <= k <= upper, "evaluated out of range"
            calls.append(k)
            return values[k]

        space = SearchSpace(lower=lower, upper=upper, step=1, iter_max=10_000)
        start = rng.randint(lower, upper)
        result = climb(f, start, space)

        assert result.best_value == m
        assert result.best_perplexity == values[m]
        assert len(calls) == len(set(calls))
        assert result.evaluations <= (upper - lower) + 1
        expected = TERM_BOUNDARY if m in (lower, upper) else TERM_LOCAL_MINIMUM
        assert result.termination == expected
        # monotone descent: after the opening probes every new evaluation
        # extends the walk one step further toward the minimum
        opening = [start]
        if start - 1 >= lower:
            opening.append(start - 1)
        if start + 1 <= upper:
            opening.append(start + 1)
        assert calls[: len(opening)] == opening
        tail = calls[len(opening):]
        if m < start:
            assert tail == sorted(tail, reverse=True)
        else:
            assert tail == sorted(tail)

        # a hard iteration cap still returns the best value seen so far
        capped = SearchSpace(
            lower=lower, upper=upper, step=1, iter_max=rng.randint(0, 2)
        )
        result2 = climb(f, rng.randint(lower, upper), capped, memo={})
        best_pair = min(result2.trace, key=lambda e: (e[1], e[0]))
        assert (result2.best_value, result2.best_perplexity) == best_pair
        assert result2.termination in (
            TERM_LOCAL_MINIMUM, TERM_BOUNDARY, TERM_ITERATION_BUDGET,
        )
