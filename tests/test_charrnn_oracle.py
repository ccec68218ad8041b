"""Packed block scoring and training against the per-read oracles.

Every comparison is exact: the packed paths must give the oracle's reports,
model bytes, histories and error messages bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from charrnn_oracles import _batch_arrays, oracle_perplexity, oracle_train
from ectuner.charrnn import (
    PerplexityUndefinedError,
    RnnLm,
    TrainConfig,
    _forward_chunk,
    _score_block,
    encode,
    perplexity,
    train,
)
from ectuner.injector import (
    InjectionSpec,
    generate_genome,
    inject_readset,
    sample_clean_reads,
)
from ectuner.seqio import Read, ReadSet
from rng_oracles import shuffled, spawn_rng

# no transition, one transition, N as input, N as target, all N
ODD_READS = ("", "A", "GT", "NA", "CN", "NNNN", "ACGNNTA", "N", "TN", "NG")


def _model(layers, hidden, seed):
    """A model whose biases are non-zero too, so every term is exercised."""
    model = RnnLm.init(layers, hidden, seed=seed)
    rng = np.random.default_rng(seed)
    model.set_params([p + rng.normal(0.0, 0.5, p.shape) for p in model.params()])
    return model


def _reads(n, seed):
    """Clean reads, then deletion and insertion sets of mixed lengths, with
    the odd reads spread among them."""
    genome = generate_genome(3_000, seed=seed)
    clean = sample_clean_reads(genome, n, 30, seed=seed + 1)
    shorter, _ = inject_readset(clean, InjectionSpec("deletion", "high", seed=seed + 2))
    longer, _ = inject_readset(clean, InjectionSpec("insertion", "high", seed=seed + 3))
    reads = list(clean.reads + shorter.reads + longer.reads)
    for i, seq in enumerate(ODD_READS):
        reads.insert((i * 37) % len(reads), Read(f"odd{i}", seq))
    return ReadSet(tuple(reads))


def _same(got, want):
    assert got == want
    assert got.to_dict() == want.to_dict()


@pytest.mark.parametrize("layers,hidden", [(1, 5), (2, 4)])
@pytest.mark.parametrize("batch", [1, 7, None, "all"])
def test_scores_equal_the_per_read_oracle(layers, hidden, batch):
    reads = _reads(60, seed=91)
    model = _model(layers, hidden, seed=92)
    kwargs = {} if batch is None else {"batch": len(reads) if batch == "all" else batch}
    _same(perplexity(model, reads, **kwargs), oracle_perplexity(model, reads))


@pytest.mark.parametrize("layers,hidden", [(1, 5), (2, 4)])
def test_block_scores_equal_the_full_forward_pass_at_every_position(layers, hidden):
    # a report's fsum can round away a last-bit change at one position, so
    # every position's score is compared on its own
    reads = _reads(60, seed=99)
    model = _model(layers, hidden, seed=100)
    x, y, mask = _batch_arrays([encode(r.sequence) for r in reads if len(r) >= 2])
    probs, _, _ = _forward_chunk(model, x, model.zero_states(x.shape[1]))
    p = np.take_along_axis(probs, np.where(mask > 0, y, 0)[..., None], axis=-1)[..., 0]
    want = np.where(mask > 0, -np.log(np.maximum(p, 1e-300)), 0.0)
    assert np.array_equal(_score_block(model, x, y, mask), want)


def test_sampled_scores_equal_the_oracle():
    reads = _reads(60, seed=93)
    model = _model(2, 3, seed=94)
    _same(
        perplexity(model, reads, sample_n=70, seed=5),
        oracle_perplexity(model, reads, sample_n=70, seed=5),
    )


def test_all_n_and_short_reads_are_not_scoreable():
    model = _model(1, 3, seed=95)
    for seqs in [(), ("",), ("A", "C"), ("NNNN", "AN", "A")]:
        reads = ReadSet(tuple(Read(f"r{i}", s) for i, s in enumerate(seqs)))
        with pytest.raises(PerplexityUndefinedError):
            oracle_perplexity(model, reads)
        with pytest.raises(PerplexityUndefinedError):
            perplexity(model, reads)


@pytest.mark.parametrize("bad", ["ACxGT", "AcgT", "ACé", "A\nC", "NA C"])
def test_scoring_raises_the_first_scored_reads_error(bad):
    # the read set refuses a bad character before anything is scored, even
    # in a read too short to score
    reads = (Read("ok", "ACGT"), Read("short", "x"), Read("bad", bad),
             Read("later", "ACGq"))
    with pytest.raises(ValueError) as err:
        ReadSet(reads)
    assert str(err.value) == "read 'short' contains characters outside ACGTN: ['x']"
    with pytest.raises(ValueError) as err:
        ReadSet(reads[:1] + reads[2:])
    chars = sorted(set(bad) - set("ACGTN"))
    assert str(err.value) == f"read 'bad' contains characters outside ACGTN: {chars}"


@pytest.mark.parametrize(
    "config",
    [
        TrainConfig(layers=1, hidden=6, epochs=2, minibatch=37, unroll=13),
        TrainConfig(layers=2, hidden=4, epochs=2, minibatch=64, val_frac=0.0),
        TrainConfig(layers=2, hidden=3, epochs=3, minibatch=16, unroll=5,
                    learning_rate=0.3, train_frac=0.5, val_frac=0.3),
    ],
)
def test_training_equals_the_per_read_oracle(config, tmp_path):
    reads = _reads(50, seed=97)
    got_model, got_history = train(reads, config, seed=98)
    want_model, want_history = oracle_train(reads, config, seed=98)
    assert got_history == want_history
    got, want = tmp_path / "got.rnn", tmp_path / "want.rnn"
    got_model.save(str(got))
    want_model.save(str(want))
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("seed", range(4))
def test_training_raises_the_oracles_error_for_the_first_bad_read(seed):
    # the read set refuses the first bad read in read order, before training
    # could meet either in its seeded shuffle
    seqs = ["ACGTACGTAC"] * 38 + ["ACGxACGTAC", "ACGTAéGTAC"]
    perm = np.random.default_rng(seed).permutation(40)
    first = min(np.flatnonzero(perm >= 38))
    with pytest.raises(ValueError) as err:
        ReadSet(tuple(Read(f"r{i}", seqs[j]) for i, j in enumerate(perm)))
    chars = "['x']" if perm[first] == 38 else "['é']"
    assert str(err.value) == f"read 'r{first}' contains characters outside ACGTN: {chars}"


def test_training_ignores_a_bad_read_in_the_unused_split(tmp_path):
    # 40 reads split 36 / 2 / 2; the last two in shuffled order are unused.
    # A bad character is refused when the set is built, so the unused read
    # holds N in its place
    order = shuffled(spawn_rng(7, 0), 40)
    seqs = ["ACGTACGTAC"] * 40
    seqs[order[-1]] = "ACGxACGTAC"
    with pytest.raises(ValueError, match=f"read 'r{order[-1]}' contains characters"):
        ReadSet(tuple(Read(f"r{i}", s) for i, s in enumerate(seqs)))
    seqs[order[-1]] = "ACGNACGTAC"
    reads = ReadSet(tuple(Read(f"r{i}", s) for i, s in enumerate(seqs)))
    config = TrainConfig(layers=1, hidden=2, epochs=1, minibatch=10)
    got_model, got_history = train(reads, config, seed=7)
    want_model, want_history = oracle_train(reads, config, seed=7)
    assert got_history == want_history
    got, want = tmp_path / "got.rnn", tmp_path / "want.rnn"
    got_model.save(str(got))
    want_model.save(str(want))
    assert got.read_bytes() == want.read_bytes()
