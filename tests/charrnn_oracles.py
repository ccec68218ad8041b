"""Reference implementations used to cross-check the char-RNN's packed paths.

These are the per-read scorer and trainer that packed block scoring
replaced: every read goes through ``encode`` on its own and each batch is
padded read by read.  The recurrence itself (``_forward_chunk``,
``_run_batch``) is shared with the library, so what the comparison checks is
how reads become blocks, how scores are summed and which errors are raised;
the golden hashes in ``test_charrnn_golden.py`` pin the recurrence.
"""

from __future__ import annotations

import math

import numpy as np

from ectuner._rng import shuffled, spawn_rng
from ectuner.charrnn import (
    VOCAB_SIZE,
    PerplexityReport,
    PerplexityUndefinedError,
    RnnLm,
    TrainConfig,
    TrainingError,
    _forward_chunk,
    _run_batch,
    encode,
)
from ectuner.seqio import sample_reads


def _batch_arrays(seqs):
    """Pad encoded reads to a (T, B) input/target pair with a loss mask."""
    B = len(seqs)
    T = max(len(s) for s in seqs) - 1
    x = np.full((T, B), 4, dtype=np.int64)
    y = np.full((T, B), 4, dtype=np.int64)
    mask = np.zeros((T, B))
    for b, s in enumerate(seqs):
        n = len(s) - 1
        if n <= 0:
            continue
        x[:n, b] = s[:-1]
        y[:n, b] = s[1:]
        mask[:n, b] = (s[1:] < VOCAB_SIZE).astype(float)
    return x, y, mask


def oracle_perplexity(model, readset, sample_n=None, seed=0, batch=256):
    """exp(mean cross-entropy) over next-character predictions, scoring
    ``batch`` encoded reads at a time through the full forward pass."""
    if sample_n is not None:
        readset = sample_reads(readset, sample_n, seed)
    per_read = []
    scored = 0
    skipped = 0
    chunk = []

    def flush():
        nonlocal scored, skipped
        if not chunk:
            return
        x, y, mask = _batch_arrays(chunk)
        probs, _, _ = _forward_chunk(model, x, model.zero_states(len(chunk)))
        tgt = np.where(mask > 0, y, 0)
        p = np.take_along_axis(probs, tgt[..., None], axis=-1)[..., 0]
        nll = np.where(mask > 0, -np.log(np.maximum(p, 1e-300)), 0.0)
        for b, s in enumerate(chunk):
            per_read.append(math.fsum(nll[: len(s) - 1, b]))
        scored += int(mask.sum())
        skipped += int(sum((s[1:] >= VOCAB_SIZE).sum() for s in chunk))
        chunk.clear()

    for r in readset:
        if len(r.sequence) < 2:
            continue
        chunk.append(encode(r.sequence))
        if len(chunk) >= batch:
            flush()
    flush()
    if scored == 0:
        raise PerplexityUndefinedError("no scoreable character transitions")
    total = math.fsum(per_read)
    return PerplexityReport(
        avg_perplexity=math.exp(total / scored),
        scored_words=scored,
        skipped_words=skipped,
        sum_neg_log_prob=total,
    )


def oracle_train(readset, config=None, seed=0):
    """Train on a 90/5/5 read split, encoding every read on its own and
    padding every batch read by read; returns the model and history."""
    config = config or TrainConfig()
    reads = [r for r in readset if len(r.sequence) >= 2]
    if not reads:
        raise TrainingError("no reads of length >= 2 to train on")
    order = shuffled(spawn_rng(seed, 0), len(reads))
    n_train = int(len(reads) * config.train_frac)
    n_val = int(len(reads) * config.val_frac)
    train_reads = [reads[i] for i in order[:n_train]]
    val_reads = [reads[i] for i in order[n_train : n_train + n_val]]
    if len(train_reads) < config.minibatch:
        raise TrainingError(
            f"training split has {len(train_reads)} reads; "
            f"minibatch of {config.minibatch} cannot be filled"
        )
    encoded = [encode(r.sequence) for r in train_reads]
    val_encoded = [encode(r.sequence) for r in val_reads]

    model = RnnLm.init(config.layers, config.hidden, seed=seed)
    epoch_rng = spawn_rng(seed, 1)
    best = None
    best_val = math.inf
    history = []
    for epoch in range(config.epochs):
        perm = shuffled(epoch_rng, len(encoded))
        loss_sum = 0.0
        count = 0.0
        for start in range(0, len(perm), config.minibatch):
            batch = [encoded[i] for i in perm[start : start + config.minibatch]]
            ls, n = _run_batch(model, _batch_arrays(batch), config, update=True)
            loss_sum += ls
            count += n
        train_loss = loss_sum / count if count else math.nan
        if val_encoded:
            vl, vn = _run_batch(model, _batch_arrays(val_encoded), config, update=False)
            val_loss = vl / vn if vn else math.nan
        else:
            val_loss = train_loss
        history.append({"epoch": epoch, "train_loss": train_loss, "val_loss": val_loss})
        if val_loss < best_val:
            best_val = val_loss
            best = model.copy_params()
    if best is not None:
        model.set_params(best)
    return model, history

