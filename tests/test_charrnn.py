"""Recurrent model checks: scalar forward oracle, gradient agreement,
training behavior, and persistence."""

from __future__ import annotations

import hashlib
import json
import math
import random
import struct

import numpy as np
import pytest

from ectuner import charrnn
from ectuner.charrnn import (
    ModelFormatError,
    PerplexityUndefinedError,
    RnnLm,
    TrainConfig,
    TrainingError,
    encode,
    forward,
    gradient_check,
    perplexity,
    train,
)
from ectuner.seqio import Read, ReadSet, sample_reads
from rng_oracles import shuffled, spawn_rng


def _uniform_reads(n, length, seed, prefix="u"):
    rng = random.Random(seed)
    return ReadSet(
        tuple(
            Read(f"{prefix}{i}", "".join(rng.choices("ACGT", k=length)))
            for i in range(n)
        )
    )


def _zeroed_model(layers=2, hidden=8):
    model = RnnLm.init(layers, hidden, seed=1)
    model.set_params([np.zeros_like(p) for p in model.params()])
    return model


def test_encode_maps_alphabet():
    assert encode("ACGTN").tolist() == [0, 1, 2, 3, 4]
    with pytest.raises(ValueError):
        encode("ACXT")


def test_encode_keeps_dtype_and_rejects_everything_outside_acgtn():
    ids = encode("TTNAG")
    assert ids.dtype == np.int64 and ids.tolist() == [3, 3, 4, 0, 2]
    assert encode("").tolist() == []
    for bad, chars in [("acgt", "['a', 'c', 'g', 't']"), ("ACé", "['é']"),
                       ("A C", "[' ']"), ("N\n", "['\\n']")]:
        with pytest.raises(ValueError) as exc:
            encode(bad)
        assert str(exc.value) == f"sequence contains characters outside ACGTN: {chars}"


def test_forward_matches_scalar_arithmetic():
    model = RnnLm.init(layers=1, hidden=2, seed=0)
    U = [[0.1, -0.2, 0.3, 0.0], [0.05, 0.0, -0.1, 0.2]]
    W = [[0.0, 0.1], [-0.1, 0.0]]
    b = [0.01, -0.02]
    V = [[0.2, -0.1], [0.0, 0.1], [-0.2, 0.3], [0.1, 0.0]]
    c = [0.0, 0.05, -0.05, 0.1]
    model.Us[0][...] = U
    model.Ws[0][...] = W
    model.bs[0][...] = b
    model.V[...] = V
    model.c[...] = c

    def step(x_col, s):
        a = [
            U[j][x_col] + W[j][0] * s[0] + W[j][1] * s[1] + b[j]
            for j in range(2)
        ]
        return [math.tanh(v) for v in a]

    def dist(s):
        logits = [V[k][0] * s[0] + V[k][1] * s[1] + c[k] for k in range(4)]
        mx = max(logits)
        es = [math.exp(v - mx) for v in logits]
        z = sum(es)
        return [e / z for e in es]

    s = step(0, [0.0, 0.0])  # 'A'
    row0 = dist(s)
    s = step(1, s)  # 'C'
    row1 = dist(s)
    got = forward(model, "AC")
    assert got.shape == (2, 4)
    np.testing.assert_allclose(got[0], row0, rtol=1e-12)
    np.testing.assert_allclose(got[1], row1, rtol=1e-12)
    np.testing.assert_allclose(got.sum(axis=1), [1.0, 1.0], rtol=1e-12)


def test_forward_rejects_empty_and_masked_input():
    model = RnnLm.init(1, 4, seed=0)
    with pytest.raises(ValueError):
        forward(model, "")
    with pytest.raises(ValueError):
        forward(model, "ACNG")


def test_zero_weight_model_is_uniform():
    model = _zeroed_model()
    probs = forward(model, "ACGT")
    assert (probs == 0.25).all()


def test_zero_weight_perplexity_is_exactly_four():
    model = _zeroed_model()
    reads = _uniform_reads(16, 33, seed=5)  # 16 * 32 = 512 transitions
    report = perplexity(model, reads)
    assert report.scored_words == 512
    assert report.avg_perplexity == 4.0


def test_gradient_check_on_random_small_models():
    rng = random.Random(3)
    for layers, hidden in [(1, 3), (2, 4), (2, 6)]:
        model = RnnLm.init(layers, hidden, seed=rng.randint(0, 10**6))
        seq = "".join(rng.choices("ACGT", k=9))
        assert gradient_check(model, seq) <= 1e-4


def test_gradient_check_input_validation():
    model = RnnLm.init(1, 3, seed=0)
    with pytest.raises(ValueError):
        gradient_check(model, "A")
    for seq in ("AN", "NNN"):  # no transition to an ACGT target
        with pytest.raises(ValueError, match="^no scoreable transitions$"):
            gradient_check(model, seq)


def test_clip_scales_gradients_above_max_norm_keeping_each_direction():
    grads = [np.array([3.0, 0.0]), np.array([[0.0], [-4.0]])]  # norm 5
    before = [g.copy() for g in grads]
    charrnn._clip(grads, 2.0)
    assert math.sqrt(sum(float((g * g).sum()) for g in grads)) == pytest.approx(2.0)
    for g, b in zip(grads, before):
        np.testing.assert_allclose(g, b * 0.4)
    small = [np.array([0.3, -0.4])]  # norm 0.5, left as it is
    charrnn._clip(small, 2.0)
    assert small[0].tolist() == [0.3, -0.4]


def test_training_learns_periodic_structure():
    rng = random.Random(21)
    reads = []
    for i in range(400):
        phase = rng.randrange(4)
        reads.append(Read(f"p{i}", ("ACGT" * 13)[phase : phase + 48]))
    rs = ReadSet(tuple(reads))
    config = TrainConfig(
        layers=1, hidden=16, epochs=20, minibatch=32,
        learning_rate=0.5, unroll=24,
    )
    model, history = train(rs, config, seed=7)
    assert len(history) == config.epochs
    assert history[-1]["train_loss"] < history[0]["train_loss"]
    held = ReadSet(tuple(Read(f"h{i}", ("ACGT" * 13)[i % 4 : i % 4 + 48]) for i in range(50)))
    report = perplexity(model, held)
    assert report.avg_perplexity <= 1.05


def test_uniform_noise_perplexity_stays_near_four():
    rs = _uniform_reads(400, 50, seed=31)
    config = TrainConfig(layers=1, hidden=8, epochs=3, minibatch=50)
    model, _ = train(rs, config, seed=8)
    held = _uniform_reads(200, 50, seed=32, prefix="h")
    report = perplexity(model, held)
    assert 3.8 <= report.avg_perplexity <= 4.2


def test_training_is_deterministic(tmp_path):
    rs = _uniform_reads(300, 30, seed=41)
    config = TrainConfig(layers=1, hidden=6, epochs=2, minibatch=64)
    m1, h1 = train(rs, config, seed=5)
    m2, h2 = train(rs, config, seed=5)
    assert h1 == h2
    p1 = tmp_path / "a.athr"
    p2 = tmp_path / "b.athr"
    m1.save(str(p1))
    m2.save(str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_training_differs_across_seeds():
    rs = _uniform_reads(300, 30, seed=41)
    config = TrainConfig(layers=1, hidden=6, epochs=1, minibatch=64)
    _, h1 = train(rs, config, seed=5)
    _, h2 = train(rs, config, seed=6)
    assert h1 != h2


def test_train_rejects_degenerate_input():
    with pytest.raises(TrainingError):
        train(ReadSet(()), TrainConfig())
    with pytest.raises(TrainingError):
        train(ReadSet((Read("r", "A"),)), TrainConfig())
    small = _uniform_reads(100, 20, seed=1)
    with pytest.raises(TrainingError):
        train(small, TrainConfig(minibatch=200))
    with pytest.raises(TrainingError):
        RnnLm.init(layers=0, hidden=4)
    with pytest.raises(TrainingError):
        RnnLm.init(layers=1, hidden=0)


def test_training_without_acgt_transitions_fails_cleanly():
    # every target is N, so no epoch has a loss to report
    all_n = ReadSet(tuple(Read(f"n{i}", "N" * 20) for i in range(300)))
    with pytest.raises(TrainingError, match="^no scoreable character transitions$"):
        train(all_n, TrainConfig(layers=1, hidden=2, epochs=2, minibatch=50))


def test_validation_split_without_transitions_reports_the_train_loss():
    # 100 reads split 90 / 5 / 5; the five validation reads are all N
    seed = 5
    val = set(shuffled(spawn_rng(seed, 0), 100)[90:95])
    rng = random.Random(6)
    reads = ReadSet(tuple(
        Read(f"r{i}", "N" * 24 if i in val else "".join(rng.choices("ACGT", k=24)))
        for i in range(100)
    ))
    config = TrainConfig(layers=1, hidden=4, epochs=4, minibatch=30, learning_rate=0.5)
    model, history = train(reads, config, seed=seed)
    assert [h["val_loss"] for h in history] == [h["train_loss"] for h in history]
    json.dumps(history, allow_nan=False)
    # the model kept is the epoch of least train loss, which a run stopped
    # after that epoch returns too
    best = min(range(len(history)), key=lambda e: history[e]["train_loss"])
    config.epochs = best + 1
    again, _ = train(reads, config, seed=seed)
    for got, want in zip(model.params(), again.params()):
        assert np.array_equal(got, want)


def test_perplexity_masks_n_targets():
    model = _zeroed_model(layers=1, hidden=4)
    rs = ReadSet((Read("r", "ACGNACG"),))
    report = perplexity(model, rs)
    assert report.scored_words == 5
    assert report.skipped_words == 1
    assert report.avg_perplexity == 4.0


def test_perplexity_is_batch_size_invariant():
    model = RnnLm.init(2, 5, seed=9)
    rng = random.Random(10)
    reads = ReadSet(
        tuple(
            Read(f"v{i}", "".join(rng.choices("ACGT", k=rng.randint(5, 40))))
            for i in range(60)
        )
    )
    small = perplexity(model, reads, batch=2)
    big = perplexity(model, reads, batch=1000)
    assert small.scored_words == big.scored_words
    assert small.avg_perplexity == pytest.approx(big.avg_perplexity, rel=1e-12)


def test_perplexity_sampling_equals_presampled_set():
    model = RnnLm.init(1, 4, seed=2)
    rs = _uniform_reads(100, 20, seed=51)
    via_arg = perplexity(model, rs, sample_n=10, seed=3)
    direct = perplexity(model, sample_reads(rs, 10, seed=3))
    assert via_arg.avg_perplexity == direct.avg_perplexity
    assert via_arg.scored_words == direct.scored_words


def test_perplexity_undefined_without_transitions():
    model = RnnLm.init(1, 4, seed=2)
    with pytest.raises(PerplexityUndefinedError):
        perplexity(model, ReadSet((Read("r", "A"),)))
    with pytest.raises(PerplexityUndefinedError):
        perplexity(model, ReadSet(()))


@pytest.mark.parametrize("layers,hidden,seed", [(1, 3, 0), (2, 5, 9), (3, 4, 2**40 + 1)])
def test_init_draws_numpy_uniform_weights(layers, hidden, seed):
    # U, W and V in that order, each from Generator.random, biases zero
    gen = np.random.default_rng(seed)
    want = []
    for l in range(layers):
        fan_in = 4 if l == 0 else hidden
        want += [(gen.random((hidden, fan_in)) * 2.0 - 1.0) * math.sqrt(1.0 / fan_in),
                 (gen.random((hidden, hidden)) * 2.0 - 1.0) * math.sqrt(1.0 / hidden),
                 np.zeros(hidden)]
    want += [(gen.random((4, hidden)) * 2.0 - 1.0) * math.sqrt(1.0 / hidden), np.zeros(4)]
    got = RnnLm.init(layers, hidden, seed=seed).params()
    assert [p.shape for p in got] == [w.shape for w in want]
    assert all(p.dtype == np.float64 and p.tobytes() == w.tobytes() for p, w in zip(got, want))


def test_save_load_round_trip(tmp_path):
    model = RnnLm.init(2, 6, seed=13)
    path = str(tmp_path / "m.athr")
    model.save(path)
    back = RnnLm.load(path)
    assert back.n_layers == 2
    assert back.hidden == 6
    for a, b in zip(model.params(), back.params()):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(forward(model, "ACGTAC"), forward(back, "ACGTAC"))
    # the loaded weights are the model's own, to train further
    assert all(p.flags.writeable and p.dtype == np.float64 for p in back.params())


def test_load_draws_no_weights(tmp_path, monkeypatch):
    path = str(tmp_path / "m.athr")
    RnnLm.init(2, 6, seed=13).save(path)

    def no_stream(*args):
        raise AssertionError("load drew from a stream")

    monkeypatch.setattr(charrnn, "Pcg64", no_stream)
    assert RnnLm.load(path).hidden == 6


def test_load_rejects_corruption(tmp_path):
    model = RnnLm.init(1, 3, seed=0)
    path = tmp_path / "m.athr"
    model.save(str(path))
    blob = path.read_bytes()

    bad = tmp_path / "magic.athr"
    bad.write_bytes(b"NOPE" + blob[4:])
    with pytest.raises(ModelFormatError):
        RnnLm.load(str(bad))

    flip = tmp_path / "flip.athr"
    body = bytearray(blob)
    body[30] ^= 1
    flip.write_bytes(bytes(body))
    with pytest.raises(ModelFormatError):
        RnnLm.load(str(flip))

    trunc = tmp_path / "trunc.athr"
    trunc.write_bytes(blob[:25])
    with pytest.raises(ModelFormatError):
        RnnLm.load(str(trunc))


@pytest.mark.parametrize("layers,hidden,weights,message", [
    (0, 3, 16, "need at least one layer, got 0"),  # V and c alone
    (1, 0, 4, "need at least one hidden unit, got 0"),
    (0, 0, 4, "need at least one layer, got 0"),
], ids=["0-3", "1-0", "0-0"])
def test_load_rejects_a_header_without_layers_or_units(
    tmp_path, layers, hidden, weights, message
):
    # the header is followed by as many weights as it implies
    payload = charrnn.MAGIC + struct.pack("<IIII", charrnn.VERSION, layers, hidden, 4)
    payload += bytes(8 * weights)
    path = tmp_path / "empty.athr"
    path.write_bytes(payload + hashlib.sha256(payload).digest())
    with pytest.raises(ModelFormatError) as exc:
        RnnLm.load(str(path))
    assert str(exc.value) == f"{path}: {message}"


def _rnn_file(version=charrnn.VERSION, layers=1, hidden=2, vocab=4, weights=None):
    """A model file's payload: its header, then ``weights`` (by default as
    many zero weights as one layer of two units has)."""
    if weights is None:
        weights = bytes(8 * (2 * 4 + 2 * 2 + 2 + 4 * 2 + 4))
    return charrnn.MAGIC + struct.pack("<IIII", version, layers, hidden, vocab) + weights


@pytest.mark.parametrize("payload, message", [
    (_rnn_file(version=2), "unsupported version 2"),
    (_rnn_file(vocab=5), "unsupported vocabulary size 5"),
    (_rnn_file(weights=bytes(8 * 25)), "truncated weight block"),
    (_rnn_file(weights=bytes(8 * 27)), "trailing bytes after weights"),
    (charrnn.MAGIC + struct.pack("<II", charrnn.VERSION, 1), "truncated header"),
    # sizes whose weights are never allocated
    (_rnn_file(layers=2**32 - 1, hidden=2**32 - 1), "truncated weight block"),
], ids=["version", "vocab", "truncated-weights", "trailing-bytes", "short-header",
        "huge-header"])
def test_load_refuses_a_sealed_file_that_does_not_hold_a_model(tmp_path, payload, message):
    path = tmp_path / "bad.athr"
    path.write_bytes(payload + hashlib.sha256(payload).digest())
    with pytest.raises(ModelFormatError) as exc:
        RnnLm.load(str(path))
    assert str(exc.value) == f"{path}: {message}"


def test_the_hand_built_model_file_loads(tmp_path):
    payload = _rnn_file()
    path = tmp_path / "good.athr"
    path.write_bytes(payload + hashlib.sha256(payload).digest())
    model = RnnLm.load(str(path))
    assert (model.n_layers, model.hidden) == (1, 2)
    assert not any(p.any() for p in model.params())


def test_model_file_magic_differs_from_ngram():
    assert charrnn.MAGIC == b"ATHR"
    assert charrnn.MAGIC != b"ATHN"
