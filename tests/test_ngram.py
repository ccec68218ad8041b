"""n-gram model checks against independently written counting and smoothing
oracles, plus persistence and invariant tests."""

from __future__ import annotations

import dataclasses
import hashlib
import math
import random
import struct

import numpy as np
import pytest

from ectuner import injector, ngram
from ectuner.ngram import (
    ModelFormatError,
    NgramModel,
    PerplexityUndefinedError,
    TrainingError,
)
from ectuner.segmenter import WordSequence, segment_reads
from ectuner.seqio import Read, ReadSet, encode_word

from ngram_oracles import (
    SMALL_CORPORA,
    TOY3,
    DictNgramModel,
    SegmentTally,
    assert_product_form_matches,
    oracle_counts,
    oracle_prob,
    oracle_read_runs,
    oracle_segment_corpus,
    seq,
    unique_count_tables,
)
from seqio_oracles import decode_words


def unencode_word(code, word_len):
    (word,) = decode_words([code], word_len)
    return word


def _model_counts_as_strings(model):
    """View the packed count tables with plain string keys for comparison."""
    out = []
    for o in range(model.history + 1):
        table = {}
        for g, cont in model.counts[o].items():
            key = tuple(unencode_word(t, model.word_len) for t in g)
            table[key] = {
                unencode_word(w, model.word_len): c for w, c in cont.items()
            }
        out.append(table)
    return out


def test_direct_counting_single_repeated_word():
    model = ngram.train([seq("AAAAAAA", "AAAAAAA")], history=1)
    tables = _model_counts_as_strings(model)
    assert tables[0] == {(): {"AAAAAAA": 2}}
    assert tables[1] == {("AAAAAAA",): {"AAAAAAA": 1}}
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
            unencode_word(w, word_len) for w in model.counts[0][()]
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
            tuple(unencode_word(t, word_len) for t in g)
            for o in range(1, h + 1)
            for g in model.counts[o]
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
        # every word with at least o predecessors in its run is a target once
        assert mass == sum(max(0, len(run) - o) for ws in TOY3 for run in ws.runs)
    # a history's event total never exceeds the lower-order event that formed it
    for o in range(1, model.history + 1):
        for g, cont in model.counts[o].items():
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
    words = [encode_word(b) for b in "ACGT"]
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


def test_word_len_above_file_limit_is_rejected(tmp_path):
    reads = ReadSet((Read("r", "ACGT" * 10),))
    with pytest.raises(TrainingError, match="word length must be in 1..16, got 17"):
        ngram.train_reads(reads, word_len=17, history=1)
    with pytest.raises(TrainingError):
        NgramModel(word_len=17, history=0)
    with pytest.raises(TrainingError):
        ngram.train([seq("A" * 17)])
    # the largest word code at the limit still fits the file's u32
    model = ngram.train_reads(ReadSet((Read("t", "T" * 32),)), word_len=16, history=1)
    path = str(tmp_path / "w16.athn")
    model.save(path)
    assert NgramModel.load(path).counts == model.counts


@pytest.mark.parametrize(
    "word_len, history", [(1, 0), (3, 2), (4, 5), (7, 3), (12, 1), (16, 2)]
)
def test_read_training_and_scoring_match_string_segmentation(
    word_len, history, tmp_path
):
    rng = random.Random(word_len * 10 + history)
    alphabet = "ACGT" * 10 + "NNN"

    def reads(n):
        return ReadSet(tuple(
            Read(f"r{i}", "".join(rng.choices(alphabet, k=rng.randint(0, 60))))
            for i in range(n)
        ))

    train_set, score_set = reads(80), reads(40)
    packed = ngram.train_reads(train_set, word_len=word_len, history=history)
    oracle = ngram.train(oracle_segment_corpus(train_set, word_len), history=history)
    packed.save(str(tmp_path / "packed.athn"))
    oracle.save(str(tmp_path / "oracle.athn"))
    packed_bytes = (tmp_path / "packed.athn").read_bytes()
    assert packed_bytes == (tmp_path / "oracle.athn").read_bytes()
    # the same per-read sums in the same order give the same digits; a read
    # shorter than the word adds an empty sum, which exact summation ignores
    assert packed.score_reads(score_set) == packed.perplexity(
        oracle_segment_corpus(score_set, word_len)
    )


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


def test_marker_histories_from_older_files_load_score_and_resave_unchanged(tmp_path):
    # Older files pad every run with start markers, written as 0xFFFFFFFF;
    # these are the histories that padding gave the toy corpus.
    marker = 0xFFFFFFFF
    a, c = encode_word("A"), encode_word("C")
    padded = ngram.train(TOY3, history=2)
    for o, g, cont in [
        (1, (marker,), {a: 2, c: 1}),
        (2, (marker, marker), {a: 2, c: 1}),
        (2, (marker, a), {a: 1, c: 1}),
        (2, (marker, c), {a: 1}),
    ]:
        padded.counts[o][g] = cont
        padded.totals[o][g] = sum(cont.values())
    old_path = tmp_path / "old.athn"
    padded.save(str(old_path))
    old = NgramModel.load(str(old_path))
    assert old.counts == padded.counts
    plain = ngram.train(TOY3, history=2)
    score = (*TOY3, seq("G", "T", "A", "C"))
    assert old.perplexity(score) == plain.perplexity(score)
    resaved = tmp_path / "resaved.athn"
    old.save(str(resaved))
    assert resaved.read_bytes() == old_path.read_bytes()


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
    struct.pack_into("<I", blob, 4, 99)
    payload = bytes(blob[:-32])
    rewritten = payload + hashlib.sha256(payload).digest()
    bad = tmp_path / "v99.athn"
    bad.write_bytes(rewritten)
    with pytest.raises(ModelFormatError):
        NgramModel.load(str(bad))


def _ngram_file(word_len=2, history=0, tag=1, tables=None):
    """A model file's payload: its header, then ``tables`` (by default one
    order-0 history of words 5 and 6, each counted 3 times)."""
    if tables is None:
        tables = struct.pack("<QQ", 1, 2) + struct.pack("<IQIQ", 5, 3, 6, 3)
    header = struct.pack("<III B d Q", ngram.VERSION, word_len, history, tag, 1e-7, 6)
    return ngram.MAGIC + header + tables


_ONE_HISTORY = struct.pack("<QQ", 1, 1) + struct.pack("<IQ", 5, 3)


@pytest.mark.parametrize("payload, message", [
    (_ngram_file(tag=2), "unknown smoothing tag 2"),
    (_ngram_file() + bytes(2), "truncated model file"),  # not whole 32-bit units
    (_ngram_file() + bytes(4), "trailing bytes after count tables"),
    (_ngram_file(tables=struct.pack("<Q", 2) + _ONE_HISTORY[8:] * 2),
     "duplicate history in count tables"),
    (_ngram_file(tables=struct.pack("<QQ", 1, 2) + struct.pack("<IQIQ", 5, 3, 5, 3)),
     "duplicate word in count tables"),
    (_ngram_file(tables=struct.pack("<QQ", 1, 0)), "history without words in count tables"),
    # the header itself, or the sizes it gives, cut short
    (ngram.MAGIC + struct.pack("<III", ngram.VERSION, 2, 0), "truncated header"),
    (_ngram_file(history=2**32 - 1), "truncated model file"),
    (_ngram_file(tables=struct.pack("<QQ", 1, 2**40) + struct.pack("<IQ", 5, 3)),
     "truncated model file"),
    # what the constructor refuses
    (_ngram_file(word_len=0), "word length must be in 1..16, got 0"),
    (_ngram_file(word_len=17), "word length must be in 1..16, got 17"),
], ids=["smoothing-tag", "partial-unit", "trailing-bytes", "duplicate-history",
        "duplicate-word", "history-without-words", "short-header", "huge-history", "count-past-end",
        "word-len-0", "word-len-17"])
def test_load_refuses_a_sealed_file_that_does_not_hold_a_model(tmp_path, payload, message):
    path = tmp_path / "bad.athn"
    path.write_bytes(payload + hashlib.sha256(payload).digest())
    with pytest.raises(ModelFormatError) as exc:
        NgramModel.load(str(path))
    assert str(exc.value) == f"{path}: {message}"


def test_the_hand_built_model_file_loads(tmp_path):
    payload = _ngram_file()
    path = tmp_path / "good.athn"
    path.write_bytes(payload + hashlib.sha256(payload).digest())
    model = NgramModel.load(str(path))
    assert model.counts == [{(): {5: 3, 6: 3}}]
    model.save(str(tmp_path / "again.athn"))
    assert (tmp_path / "again.athn").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("seqs", [["ACG", "ACGTAC"], ["NNNNNNNNNNNN"]], ids=["short", "all-n"])
def test_training_on_reads_without_a_whole_acgt_word_is_refused(seqs):
    reads = ReadSet([Read(f"r{i}", s) for i, s in enumerate(seqs)])
    with pytest.raises(TrainingError, match="^empty corpus: no words to train on$"):
        ngram.train_reads(reads, word_len=7)


def test_scoring_with_a_model_that_holds_no_counts_is_refused():
    reads = ReadSet([Read("r0", "ACGTACGTACGTACGT")])
    with pytest.raises(PerplexityUndefinedError, match="^model has no training counts$"):
        NgramModel(7, 3).score_reads(reads)


@pytest.mark.parametrize("p_floor", [1.0, 2.0, -1e-9, math.nan, math.inf])
def test_probability_floor_outside_0_1_is_refused(p_floor, tmp_path):
    with pytest.raises(TrainingError, match=r"probability floor must be in \[0, 1\)"):
        NgramModel(word_len=3, history=2, p_floor=p_floor)
    with pytest.raises(TrainingError):
        ngram.train(TOY3, history=2, p_floor=p_floor)
    # a file whose header holds such a floor, with a valid checksum
    path = tmp_path / "toy.athn"
    ngram.train(TOY3, history=2).save(str(path))
    blob = bytearray(path.read_bytes())
    struct.pack_into("<d", blob, 17, p_floor)
    payload = bytes(blob[:-32])
    path.write_bytes(payload + hashlib.sha256(payload).digest())
    with pytest.raises(ModelFormatError) as exc:
        NgramModel.load(str(path))
    assert str(exc.value) == f"{path}: probability floor must be in [0, 1), got {p_floor}"


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


# -- the array tables against the dict-of-dicts oracle ------------------------


def _reads(rng, n, max_len, alphabet="ACGT" * 12 + "N"):
    return ReadSet(tuple(
        Read(f"r{i}", "".join(rng.choices(alphabet, k=rng.randint(1, max_len))))
        for i in range(n)
    ))


def _oracle_runs(readset, word_len):
    stats = SegmentTally()
    seqs = oracle_segment_corpus(readset, word_len, stats)
    return oracle_read_runs(seqs), stats.skipped_words


def _assert_matches_oracle(model, oracle, score_set, tmp_path):
    """Equal file bytes, per-read sums and reports, compared with ==; a model
    loaded from the oracle's bytes scores and re-saves the same way."""
    path = tmp_path / "model.ngram"
    model.save(str(path))
    want_bytes = oracle.to_bytes()
    assert path.read_bytes() == want_bytes
    runs, skipped = _oracle_runs(score_set, model.word_len)
    want_sums = oracle.read_sums(runs)
    want_report = oracle.score(runs, skipped).to_dict()
    path.write_bytes(want_bytes)
    loaded = NgramModel.load(str(path))
    for m in (model, loaded):
        sums, count = m._sums(segment_reads(score_set, m.word_len), len(score_set))
        assert sums[count > 0].tolist() == want_sums
        assert m.score_reads(score_set).to_dict() == want_report
    loaded.save(str(path))
    assert path.read_bytes() == want_bytes


@pytest.mark.parametrize("word_len", [1, 4, 7, 16])
@pytest.mark.parametrize("history", range(6))
def test_array_tables_match_dict_oracle(word_len, history, tmp_path):
    rng = random.Random(100 * word_len + history)
    # N splits runs, and reads run from shorter than a word to many words
    train_set = _reads(rng, 60, 12 * word_len)
    score_set = _reads(rng, 30, 12 * word_len)
    model = ngram.train_reads(train_set, word_len=word_len, history=history)
    oracle = DictNgramModel(word_len, history)
    oracle.count(_oracle_runs(train_set, word_len)[0])
    assert model.m_train == oracle.m_train
    _assert_matches_oracle(model, oracle, score_set, tmp_path)


def test_simulated_reads_match_dict_oracle(tmp_path):
    # a model scoring the reads it was trained on gives probabilities whose
    # np.log differs from math.log in the last bit for some words, so the
    # per-read sums below also pin the choice of logarithm
    genome = injector.generate_genome(3_000, seed=71)
    clean = injector.sample_clean_reads(genome, 1_500, 50, seed=72)
    noisy, _ = injector.inject_readset(
        clean, injector.InjectionSpec("substitution", "low", seed=73)
    )
    model = ngram.train_reads(noisy, word_len=7, history=3)
    oracle = DictNgramModel(7, 3)
    oracle.count(_oracle_runs(noisy, 7)[0])
    _assert_matches_oracle(model, oracle, noisy, tmp_path)


def test_add_at_adds_in_index_order():
    # each read's sum is one np.add.at over its words: 1 + 1e16 rounds to
    # 1e16, so only the in-order sum gives 0.0, and any other order 1.0
    sums = np.zeros(1)
    np.add.at(sums, [0, 0, 0], [1.0, 1e16, -1e16])
    assert sums.tolist() == [0.0]


def test_read_sums_run_left_to_right_over_widely_spread_terms():
    # a word seen thousands of times after itself costs under 1e-6 nats, an
    # unseen word about 16, so a sum taken in another order than the
    # oracle's left-to-right one differs in its last bits
    rng = random.Random(17)
    train_set = ReadSet(tuple(
        Read(f"t{i}", "AAAA" * 30 if i % 8 else "".join(rng.choices("ACG", k=120)))
        for i in range(400)
    ))
    score_set = ReadSet(tuple(
        Read(f"s{i}", "".join(rng.choice(["AAAA"] * 6 + ["CGTC", "TTGA", "GACT"])
                              for _ in range(rng.randint(1, 40))))
        for i in range(200)
    ))
    model = ngram.train_reads(train_set, word_len=4, history=2)
    oracle = DictNgramModel(4, 2)
    oracle.count(_oracle_runs(train_set, 4)[0])
    runs = _oracle_runs(score_set, 4)[0]
    terms = [[-math.log(oracle.prob(w, g)) for w, g in oracle._events(r)] for r in runs]
    assert max(max(t) for t in terms) / min(min(t) for t in terms) > 1e4
    want = oracle.read_sums(runs)
    assert [sum(sorted(t)) for t in terms] != want
    sums, count = model._sums(segment_reads(score_set, 4), len(score_set))
    assert sums[count > 0].tolist() == want


@pytest.mark.parametrize("word_len", [1, 4, 7, 16])
@pytest.mark.parametrize("history", range(6))
def test_count_tables_equal_the_unique_oracle(word_len, history):
    # runs broken by N, reads shorter than a word, one-word runs (whose top
    # orders hold nothing), and many repeats of few words
    rng = random.Random(10 * word_len + history)
    one_word = ReadSet(tuple(
        Read(f"o{i}", "".join(rng.choices("ACGT", k=word_len)) + "N" * word_len)
        for i in range(30)
    ))
    repeats = ReadSet(tuple(
        Read(f"a{i}", "".join(rng.choice(["A" * word_len, "C" * word_len, "T" * word_len])
                              for _ in range(rng.randint(1, 9))))
        for i in range(40)
    ))
    for train_set in (_reads(rng, 60, 12 * word_len), one_word, repeats):
        words = segment_reads(train_set, word_len)
        model = ngram.train_reads(train_set, word_len=word_len, history=history)
        got, want = model._tables, unique_count_tables(words, history)
        assert len(got) == len(want) == history + 1
        for o, (g, w) in enumerate(zip(got, want)):
            for field in dataclasses.fields(w):
                a, b = getattr(g, field.name), getattr(w, field.name)
                assert a.dtype == b.dtype, (o, field.name)
                assert np.array_equal(a, b), (o, field.name)


@pytest.mark.parametrize("word_len, history", [(4, 5), (7, 3), (1, 4)])
def test_empty_higher_orders_match_dict_oracle(word_len, history, tmp_path):
    # one-word runs, and runs shorter than the history: the top orders hold
    # no histories at all
    rng = random.Random(word_len)
    one_word = ReadSet(tuple(
        Read(f"r{i}", "".join(rng.choices("ACGT", k=word_len)) + "N" * word_len)
        for i in range(40)
    ))
    short_runs = _reads(rng, 40, 2 * word_len + 1)
    for train_set in (one_word, short_runs):
        model = ngram.train_reads(train_set, word_len=word_len, history=history)
        oracle = DictNgramModel(word_len, history)
        oracle.count(_oracle_runs(train_set, word_len)[0])
        assert len(oracle.counts[history]) == 0
        _assert_matches_oracle(model, oracle, _reads(rng, 20, 8 * word_len), tmp_path)


@pytest.mark.parametrize("word_len", [2, 16])
def test_marker_histories_match_dict_oracle(word_len, tmp_path):
    # older files also hold start-marker histories, token 0xFFFFFFFF; at
    # word_len 16 that is also the code of the all-T word
    rng = random.Random(7)
    train_set = ReadSet(_reads(rng, 30, 6 * word_len).reads + (
        Read("t", "T" * 4 * word_len),
    ))
    oracle = DictNgramModel(word_len, history=2)
    runs = _oracle_runs(train_set, word_len)[0]
    oracle.count(runs)
    # padding each run with markers gave word i its padded history at orders
    # above i
    marker, h = 0xFFFFFFFF, 2
    for read in runs:
        for run in read:
            for i, w in enumerate(run[:h]):
                padded = (marker,) * (h - i) + tuple(run[:i])
                for o in range(i + 1, h + 1):
                    g = padded[h - o :]
                    cont = oracle.counts[o].setdefault(g, {})
                    cont[w] = cont.get(w, 0) + 1
                    oracle.totals[o][g] = oracle.totals[o].get(g, 0) + 1
    path = tmp_path / "old.ngram"
    path.write_bytes(oracle.to_bytes())
    model = NgramModel.load(str(path))
    score_set = ReadSet(_reads(rng, 20, 6 * word_len).reads + (
        Read("t", "T" * 5 * word_len),
    ))
    _assert_matches_oracle(model, oracle, score_set, tmp_path)


def test_history_without_its_suffix_matches_dict_oracle(tmp_path):
    # a hand-built model may hold a history whose suffix it lacks: the order
    # of the missing suffix is skipped and the longer history still applies
    a, c, g, t = (encode_word(b) for b in "ACGT")
    tables = [
        {(): {a: 5, c: 3, g: 2, t: 1}},
        {(a,): {c: 2, g: 1}},
        # the suffixes (c,) and (g,) are missing
        {(a, c): {g: 2}, (t, g): {a: 1}},
        # (a, c) and (t, g) are there, but (t, t) and (t,) are not
        {(g, a, c): {a: 1, t: 1}, (c, t, g): {a: 3}, (t, t, t): {a: 1}},
    ]
    oracle = DictNgramModel(word_len=1, history=3)
    viewed = NgramModel(word_len=1, history=3)
    for model in (oracle, viewed):
        for o, table in enumerate(tables):
            model.counts[o].update(table)
            model.totals[o].update({h: sum(n.values()) for h, n in table.items()})
        model.m_train = 11
    path = tmp_path / "hand.ngram"
    path.write_bytes(oracle.to_bytes())
    score_set = ReadSet(tuple(Read(f"s{i}", s) for i, s in enumerate(
        ["GACGAC", "TGAC", "CTGA", "TTTTA", "AGTGA", "CCCC"]
    )))
    _assert_matches_oracle(NgramModel.load(str(path)), oracle, score_set, tmp_path)
    _assert_matches_oracle(viewed, oracle, score_set, tmp_path)
