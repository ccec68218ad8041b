"""n-gram model checks against independently written counting and smoothing
oracles, plus persistence and invariant tests."""

from __future__ import annotations

import math
import random

import pytest

from ectuner import injector, ngram
from ectuner.ngram import (
    ModelFormatError,
    NgramModel,
    PerplexityUndefinedError,
    TrainingError,
    pack_word,
    unpack_word,
)
from ectuner.segmenter import WordSequence
from ectuner.seqio import Read, ReadSet

from ngram_oracles import (
    SMALL_CORPORA,
    TOY3,
    assert_product_form_matches,
    oracle_counts,
    oracle_prob,
    seq,
)


def _model_counts_as_strings(model):
    """View the packed count tables with plain string keys for comparison."""
    out = []
    for o in range(model.history + 1):
        table = {}
        for g, cont in model.counts[o].items():
            key = tuple(
                "<s>" if t == ngram.START else unpack_word(t, model.word_len)
                for t in g
            )
            table[key] = {
                unpack_word(w, model.word_len): c for w, c in cont.items()
            }
        out.append(table)
    return out


def test_pack_unpack_round_trip():
    for word in ("A", "ACGT", "TTTTTTT", "GCGCGCA"):
        assert unpack_word(pack_word(word), len(word)) == word
    with pytest.raises(ValueError):
        pack_word("ACN")


def test_direct_counting_single_repeated_word():
    model = ngram.train([seq("AAAAAAA", "AAAAAAA")], history=1)
    tables = _model_counts_as_strings(model)
    assert tables[0] == {(): {"AAAAAAA": 2}}
    assert tables[1] == {
        ("<s>",): {"AAAAAAA": 1},
        ("AAAAAAA",): {"AAAAAAA": 1},
    }
    assert model.vocab_size == 1
    assert model.m_train == 2


def test_counts_match_brute_force_oracle():
    model = ngram.train(TOY3, history=2)
    expected = oracle_counts(TOY3, 2)
    got = _model_counts_as_strings(model)
    for o in range(3):
        assert got[o] == {g: dict(c) for g, c in expected[o].items()}


def test_counts_match_oracle_on_gapped_runs():
    corpus = [
        WordSequence(read_id="a", runs=(("AC", "GT", "AC"), ("GT",))),
        WordSequence(read_id="b", runs=(("AC",), ("AC", "GT"))),
    ]
    model = ngram.train(corpus, history=2)
    expected = oracle_counts(corpus, 2)
    got = _model_counts_as_strings(model)
    for o in range(3):
        assert got[o] == {g: dict(c) for g, c in expected[o].items()}


def test_threaded_training_merges_to_identical_counts(tmp_path):
    reads = ReadSet(
        tuple(
            Read(f"r{i}", "".join(random.Random(i).choices("ACGT", k=40)))
            for i in range(60)
        )
    )
    m1 = ngram.train_reads(reads, word_len=5, history=2)
    m4 = ngram.train_reads(reads, word_len=5, history=2)
    p1 = tmp_path / "m1.athn"
    p4 = tmp_path / "m4.athn"
    m1.save(str(p1))
    m4.save(str(p4))
    assert p1.read_bytes() == p4.read_bytes()


def test_frozen_witten_bell_constants():
    # Hand-evaluated smoothing values for the three-sentence toy corpus.
    model = ngram.train(TOY3, history=2)
    assert model.prob("A", ("C",)) == pytest.approx(0.8263888888888888, rel=1e-15)
    assert model.prob("G", ("C", "A")) == pytest.approx(0.6026785714285714, rel=1e-15)
    assert model.prob("T", ("A",)) == pytest.approx(0.026785714285714288, rel=1e-15)


def test_prob_matches_recursive_oracle_exhaustively():
    model = ngram.train(TOY3, history=2)
    counts = oracle_counts(TOY3, 2)
    vocab = ["A", "C", "G", "T"]
    hists = [()]
    hists += [(a,) for a in vocab]
    hists += [(a, b) for a in vocab for b in vocab]
    for hist in hists:
        for word in vocab:
            want = oracle_prob(counts, word, hist, model.p_floor)
            got = model.prob(word, hist)
            assert got == pytest.approx(want, rel=1e-12), (word, hist)


def test_prob_rejects_over_long_history_and_bad_word():
    model = ngram.train(TOY3, history=2)
    with pytest.raises(ValueError):
        model.prob("A", ("A", "C", "G"))
    with pytest.raises(ValueError):
        model.prob("AA", ("A",))


def test_single_word_model_is_near_certain():
    model = ngram.train([seq(*["AAAAAAA"] * 100)], history=1)
    assert model.prob("AAAAAAA", ()) > 0.99
    assert model.prob("AAAAAAA", ("AAAAAAA",)) > 0.99


def test_unseen_word_probability_bounds():
    model = ngram.train(TOY3, history=2)
    root_m = model.totals[0][()]
    v = model.vocab_size
    lam0 = root_m / (root_m + v)
    unk_mass = (1.0 - lam0) / (v + 1)
    p = model.prob("T", ())  # T never occurs in the toy corpus
    assert model.p_floor <= p <= unk_mass + 1e-15


def test_normalization_over_vocab_plus_one_unseen():
    rng = random.Random(20)
    for trial in range(12):
        word_len = rng.choice([2, 3])
        h = rng.choice([0, 1, 2, 3])
        n_sent = rng.randint(2, 6)
        sentences = []
        for _ in range(n_sent):
            words = [
                "".join(rng.choices("ACGT", k=word_len))
                for _ in range(rng.randint(1, 8))
            ]
            sentences.append(seq(*words))
        model = ngram.train(sentences, history=h)
        vocab = {
            unpack_word(w, word_len) for w in model.counts[0][()]
        }
        unseen = next(
            (
                c
                for c in (
                    "".join(p)
                    for p in __import__("itertools").product("ACGT", repeat=word_len)
                )
                if c not in vocab
            ),
            None,
        )
        assert unseen is not None
        seen_hists = [()]
        seen_hists += [
            tuple(unpack_word(t, word_len) for t in g)
            for o in range(1, h + 1)
            for g in model.counts[o]
            if ngram.START not in g
        ]
        novel = tuple([unseen] * h)[: h or 0]
        hists = seen_hists + ([novel] if h else [])
        for g in hists:
            total = math.fsum(model.prob(w, g) for w in vocab)
            total += model.prob(unseen, g)
            assert abs(total - 1.0) <= 1e-9, (trial, g)
            for w in list(vocab)[:4]:
                p = model.prob(w, g)
                assert 0.0 < p <= 1.0


def test_count_table_internal_consistency():
    model = ngram.train(TOY3, history=2)
    for o in range(model.history + 1):
        mass = 0
        for g, cont in model.counts[o].items():
            assert sum(cont.values()) == model.totals[o][g]
            mass += model.totals[o][g]
        # start padding makes every word a target exactly once per order
        assert mass == model.m_train
    # a history's event total never exceeds the lower-order event that formed it
    for o in range(1, model.history + 1):
        for g, cont in model.counts[o].items():
            if ngram.START in g:
                continue
            lower = model.counts[o - 1].get(g[:-1], {})
            assert sum(cont.values()) <= lower.get(g[-1], 0)


@pytest.mark.parametrize("case", SMALL_CORPORA, ids=lambda c: c["name"])
def test_perplexity_matches_product_form(case):
    model = ngram.train(case["train"], history=case["h"])
    assert_product_form_matches(model, case["score"], rel=1e-9)


def test_perplexity_of_single_word_corpus_is_one():
    corpus = [seq(*["ACGTACG"] * 50_000)]
    model = ngram.train(corpus, history=3)
    report = model.perplexity(corpus)
    assert abs(report.avg_perplexity - 1.0) <= 1e-9


def test_uniform_vocab_of_four_scores_four():
    model = NgramModel(word_len=1, history=0)
    big = 10**12
    words = [pack_word(b) for b in "ACGT"]
    model.counts[0][()] = {w: big for w in words}
    model.totals[0][()] = 4 * big
    model.m_train = 4 * big
    corpus = [seq("A", "C", "G", "T"), seq("T", "G", "C", "A")]
    report = model.perplexity(corpus)
    assert abs(report.avg_perplexity - 4.0) <= 1e-6


def test_history_zero_is_permutation_invariant():
    model = ngram.train(TOY3, history=0)
    a = model.perplexity([seq("A", "C", "A", "G", "C")]).avg_perplexity
    b = model.perplexity([seq("G", "A", "C", "C", "A")]).avg_perplexity
    assert a == pytest.approx(b, rel=1e-12)


def test_perplexity_counts_skipped_words():
    model = ngram.train(TOY3, history=2)
    ws = WordSequence(read_id="g", runs=(("A", "C"), ("A",)), skipped=2)
    report = model.perplexity([ws])
    assert report.scored_words == 3
    assert report.skipped_words == 2


def test_perplexity_undefined_on_empty_corpus():
    model = ngram.train(TOY3, history=2)
    with pytest.raises(PerplexityUndefinedError):
        model.perplexity([])
    with pytest.raises(PerplexityUndefinedError):
        model.perplexity([WordSequence(read_id="x", runs=(), skipped=3)])


def test_score_rejects_word_length_mismatch():
    model = ngram.train(TOY3, history=2)
    with pytest.raises(ValueError):
        model.perplexity([seq("AA", "CC")])


def test_train_rejects_empty_corpus():
    with pytest.raises(TrainingError):
        ngram.train([])
    with pytest.raises(TrainingError):
        NgramModel(word_len=3, history=-1)
    with pytest.raises(TrainingError):
        NgramModel(word_len=0, history=2)


def test_monotone_response_to_substitution_rate():
    genome = injector.generate_genome(20_000, seed=11)
    clean = injector.sample_clean_reads(genome, 4000, 50, seed=12)
    model = ngram.train_reads(clean, word_len=7, history=3)
    held = injector.sample_clean_reads(genome, 1000, 50, seed=13)
    rng = random.Random(14)
    pps = []
    for rate in range(6):
        mutated = []
        for r in held:
            s = list(r.sequence)
            for pos in rng.sample(range(len(s)), rate):
                s[pos] = rng.choice([b for b in "ACGT" if b != s[pos]])
            mutated.append(Read(r.id, "".join(s)))
        report = model.score_reads(ReadSet(tuple(mutated)))
        pps.append(report.avg_perplexity)
    for lo, hi in zip(pps, pps[1:]):
        assert hi >= lo
    assert pps[5] > pps[0]


def test_save_load_round_trip_preserves_probabilities(tmp_path):
    model = ngram.train(TOY3, history=2)
    path = str(tmp_path / "toy.athn")
    model.save(path)
    back = NgramModel.load(path)
    assert back.word_len == model.word_len
    assert back.history == model.history
    assert back.p_floor == model.p_floor
    assert back.m_train == model.m_train
    vocab = ["A", "C", "G", "T"]
    for hist in [(), ("A",), ("C", "A"), ("T", "T")]:
        for w in vocab:
            assert back.prob(w, hist) == pytest.approx(
                model.prob(w, hist), rel=1e-12
            )


def test_save_is_byte_deterministic(tmp_path):
    model = ngram.train(TOY3, history=2)
    p1 = tmp_path / "a.athn"
    p2 = tmp_path / "b.athn"
    model.save(str(p1))
    model.save(str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_corruption(tmp_path):
    model = ngram.train(TOY3, history=2)
    path = tmp_path / "toy.athn"
    model.save(str(path))
    blob = path.read_bytes()

    bad_magic = tmp_path / "magic.athn"
    bad_magic.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(ModelFormatError):
        NgramModel.load(str(bad_magic))

    truncated = tmp_path / "trunc.athn"
    truncated.write_bytes(blob[:-10])
    with pytest.raises(ModelFormatError):
        NgramModel.load(str(truncated))

    flipped = tmp_path / "flip.athn"
    body = bytearray(blob)
    body[20] ^= 0xFF
    flipped.write_bytes(bytes(body))
    with pytest.raises(ModelFormatError):
        NgramModel.load(str(flipped))

    short = tmp_path / "short.athn"
    short.write_bytes(b"ATHN")
    with pytest.raises(ModelFormatError):
        NgramModel.load(str(short))


def test_load_rejects_unknown_version(tmp_path):
    model = ngram.train(TOY3, history=2)
    path = tmp_path / "toy.athn"
    model.save(str(path))
    blob = bytearray(path.read_bytes())
    import hashlib
    import struct

    struct.pack_into("<I", blob, 4, 99)
    payload = bytes(blob[:-32])
    rewritten = payload + hashlib.sha256(payload).digest()
    bad = tmp_path / "v99.athn"
    bad.write_bytes(rewritten)
    with pytest.raises(ModelFormatError):
        NgramModel.load(str(bad))


def test_report_log2_field():
    model = ngram.train(TOY3, history=2)
    report = model.perplexity(TOY3)
    assert report.sum_neg_log2_prob == pytest.approx(
        report.sum_neg_log_prob / math.log(2.0), rel=1e-15
    )
    d = report.to_dict()
    assert set(d) == {
        "avg_perplexity",
        "scored_words",
        "skipped_words",
        "sum_neg_log_prob",
        "sum_neg_log2_prob",
    }
