"""Character-level recurrent language model over the DNA alphabet.

A stack of vanilla tanh recurrences

    s_t^l = tanh(U_l x_t^l + W_l s_{t-1}^l + b_l)

(where x^0 is the one-hot input character and x^l = s^{l-1} above) feeds a
softmax over {A, C, G, T}.  Training is truncated backpropagation through
time with plain SGD and global gradient-norm clipping.  'N' characters
contribute a zero input vector and are excluded from the loss.  All math is
float64 numpy; given a seed, training is bit-reproducible.

Training and scoring read a ``seqio.ReadSet``'s packed base codes: each
batch's (T, B) input and target codes are cut out of them by index
arithmetic, padded with 'N' past each read's end.  Scoring, and the
validation loss of each epoch, take one block of reads at a time, through a
forward pass that keeps only the current states and each step's target
probability, so a block of B reads of at most T + 1 characters needs
O(B * T) memory, never the (T, B, H) state sequence or the (T, B, 4)
distributions, whatever the size of the read set.  Its scores are
bit-identical to the full forward pass used in training: layer 0's input
term is a row of [U_0^T; 0], equal to the one-hot product because each of
that product's terms is a multiply by 1 or by 0; both passes take their
distributions from one softmax, which adds its four columns as
((e0 + e1) + e2) + e3; and each read's negative log-probabilities, then the
reads' sums, are added with ``math.fsum``.

Model file format (little-endian):

    magic    4s  = b"ATHR"
    version  u32 = 1
    layers   u32
    hidden   u32
    vocab    u32 = 4
    weights  f64 C-order: per layer U, W, b; then V, c
    sha256 digest (32 bytes) of everything before it
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from ._rng import Pcg64, shuffled
from .ngram import (
    ModelFormatError,
    PerplexityReport,
    PerplexityUndefinedError,
    TrainingError,
    _report,
    _seal,
    _unseal,
)
from .seqio import VALID_CHARS, ReadSet, base_codes, sample_reads

MAGIC = b"ATHR"
VERSION = 1
VOCAB_SIZE = 4


@dataclass
class TrainConfig:
    layers: int = 2
    hidden: int = 32
    epochs: int = 10
    minibatch: int = 200
    learning_rate: float = 2e-3
    unroll: int = 50
    clip_norm: float = 5.0
    train_frac: float = 0.90
    val_frac: float = 0.05


class RnnLm:
    def __init__(self, Us, Ws, bs, V, c) -> None:
        self.Us, self.Ws, self.bs, self.V, self.c = Us, Ws, bs, V, c

    @property
    def n_layers(self) -> int:
        return len(self.Us)

    @property
    def hidden(self) -> int:
        return self.Ws[0].shape[0]

    @classmethod
    def init(cls, layers: int = 2, hidden: int = 32, seed: int = 0) -> "RnnLm":
        """Uniform init in [-r, r] with r = sqrt(1/fan_in), per matrix; zero
        biases."""
        _check_size(layers, hidden)
        rng = Pcg64(seed)
        return cls._from_params([
            (rng.random(shape) * 2.0 - 1.0) * math.sqrt(1.0 / shape[1])
            if len(shape) == 2 else np.zeros(shape)
            for shape in _shapes(layers, hidden)
        ])

    @classmethod
    def _from_params(cls, params: list[np.ndarray]) -> "RnnLm":
        """The model whose ``params()`` are ``params``."""
        *per_layer, V, c = params
        return cls(per_layer[0::3], per_layer[1::3], per_layer[2::3], V, c)

    def params(self) -> list[np.ndarray]:
        return [p for layer in zip(self.Us, self.Ws, self.bs) for p in layer] + [self.V, self.c]

    def copy_params(self) -> list[np.ndarray]:
        return [p.copy() for p in self.params()]

    def set_params(self, values: list[np.ndarray]) -> None:
        for p, v in zip(self.params(), values):
            p[...] = v

    def zero_states(self, batch: int) -> list[np.ndarray]:
        return [np.zeros((batch, self.hidden)) for _ in range(self.n_layers)]

    def score_reads(self, readset: ReadSet) -> PerplexityReport:
        return perplexity(self, readset)

    # -- persistence ------------------------------------------------------

    def save(self, path: str) -> None:
        header = MAGIC + struct.pack("<IIII", VERSION, self.n_layers, self.hidden, VOCAB_SIZE)
        _seal(path, [header, *(np.ascontiguousarray(p, "<f8") for p in self.params())])

    @classmethod
    def load(cls, path: str) -> "RnnLm":
        (layers, hidden, vocab), body = _unseal(path, MAGIC, VERSION, "<IIII", "RNN")
        if vocab != VOCAB_SIZE:
            raise ModelFormatError(f"{path}: unsupported vocabulary size {vocab}")
        # the size of _shapes, counted from the header so a huge one builds no list:
        # U_0 takes 4 inputs and each later U_l hidden; each layer's W_l and
        # b_l are hidden x hidden and hidden; V is 4 x hidden and c 4 long
        inputs = VOCAB_SIZE + (layers - 1) * hidden if layers else 0
        n = hidden * inputs + layers * hidden * (hidden + 1) + VOCAB_SIZE * (hidden + 1)
        if len(body) < 8 * n:
            raise ModelFormatError(f"{path}: truncated weight block")
        if len(body) > 8 * n:
            raise ModelFormatError(f"{path}: trailing bytes after weights")
        try:
            _check_size(layers, hidden)
        except TrainingError as exc:
            raise ModelFormatError(f"{path}: {exc}") from None
        shapes = _shapes(layers, hidden)
        flat = np.frombuffer(body, "<f8").astype(np.float64)
        parts = np.split(flat, np.cumsum([math.prod(s) for s in shapes])[:-1])
        return cls._from_params([p.reshape(s) for p, s in zip(parts, shapes)])


def _check_size(layers: int, hidden: int) -> None:
    if layers < 1:
        raise TrainingError(f"need at least one layer, got {layers}")
    if hidden < 1:
        raise TrainingError(f"need at least one hidden unit, got {hidden}")


def _shapes(layers: int, hidden: int) -> list[tuple[int, ...]]:
    """The parameters' shapes in ``params()`` order: per layer U_l (hidden x
    fan_in, fan_in 4 for layer 0 and hidden above it), W_l (hidden x hidden)
    and b_l (hidden); then V (4 x hidden) and c (4)."""
    shapes: list[tuple[int, ...]] = []
    for l in range(layers):
        shapes += [(hidden, VOCAB_SIZE if l == 0 else hidden), (hidden, hidden), (hidden,)]
    return shapes + [(VOCAB_SIZE, hidden), (VOCAB_SIZE,)]


def encode(seq: str) -> np.ndarray:
    """Base codes of an ACGTN sequence; N is 4 (zero input, no loss)."""
    bad = set(seq) - VALID_CHARS
    if bad:
        raise ValueError(f"sequence contains characters outside ACGTN: {sorted(bad)}")
    return base_codes(np.frombuffer(seq.encode("ascii"), np.uint8)).astype(np.int64)


def _one_hot(ids: np.ndarray) -> np.ndarray:
    """int ids of any shape -> one more axis of 4; id 4 ('N') maps to the
    zero vector."""
    return (ids[..., None] == np.arange(VOCAB_SIZE)).astype(float)


def _input_rows(model: RnnLm) -> np.ndarray:
    """Row c is layer 0's input term for code c: column c of U_0, and zeros
    for 'N'.  Equal bit for bit to the one-hot product, whose every term is a
    multiply by 1 or by 0."""
    return np.vstack([model.Us[0].T, np.zeros(model.hidden)])


def _step(model: RnnLm, rows: np.ndarray, cur: list[np.ndarray]) -> np.ndarray:
    """Advance every layer's state in ``cur`` by one step, from layer 0's
    gathered input rows; returns the top layer's new state."""
    inp = rows
    for l in range(model.n_layers):
        if l:
            inp = inp @ model.Us[l].T
        cur[l] = np.tanh(inp + cur[l] @ model.Ws[l].T + model.bs[l])
        inp = cur[l]
    return inp


def _next_probs(model: RnnLm, top: np.ndarray) -> np.ndarray:
    """The (4, B) next-character distributions from the top layer's (B, H)
    states: a softmax over the logit columns, summed as ((e0 + e1) + e2) +
    e3, the order numpy's last-axis sum of four takes."""
    logits = (top @ model.V.T + model.c).T
    top_logit = np.maximum(np.maximum(logits[0], logits[1]),
                           np.maximum(logits[2], logits[3]))
    e = np.exp(logits - top_logit)
    return e / (((e[0] + e[1]) + e[2]) + e[3])


def _forward_chunk(model: RnnLm, x_ids: np.ndarray, states: list[np.ndarray]):
    """Run the stack over a (T, B) id chunk.

    Returns per-step probabilities (T, B, 4), per-layer state sequences
    (lists of (T, B, H)), and the final states.
    """
    T, B = x_ids.shape
    L, H = model.n_layers, model.hidden
    s_seq = [np.empty((T, B, H)) for _ in range(L)]
    probs = np.empty((T, B, VOCAB_SIZE))
    rows = _input_rows(model)
    cur = [s.copy() for s in states]
    for t in range(T):
        top = _step(model, rows[x_ids[t]], cur)
        for l in range(L):
            s_seq[l][t] = cur[l]
        probs[t] = _next_probs(model, top).T
    return probs, s_seq, cur


def _backward_chunk(model, x_ids, targets, mask, states, probs, s_seq, loss_scale):
    """Gradients of (loss_scale * summed masked CE) for one chunk."""
    T, B = x_ids.shape
    L = model.n_layers
    gUs = [np.zeros_like(u) for u in model.Us]
    gWs = [np.zeros_like(w) for w in model.Ws]
    gbs = [np.zeros_like(b) for b in model.bs]
    gV = np.zeros_like(model.V)
    gc = np.zeros_like(model.c)
    dnext = [np.zeros((B, model.hidden)) for _ in range(L)]
    rows = np.arange(B)
    one_hot = _one_hot(x_ids)
    for t in reversed(range(T)):
        dy = probs[t].copy()
        tgt = np.where(mask[t], targets[t], 0)
        dy[rows, tgt] -= 1.0
        dy *= (mask[t] * loss_scale)[:, None]
        top = s_seq[L - 1][t]
        gV += dy.T @ top
        gc += dy.sum(axis=0)
        dabove = dy @ model.V
        for l in reversed(range(L)):
            s_t = s_seq[l][t]
            s_prev = s_seq[l][t - 1] if t > 0 else states[l]
            draw = (dabove + dnext[l]) * (1.0 - s_t * s_t)
            inp = one_hot[t] if l == 0 else s_seq[l - 1][t]
            gUs[l] += draw.T @ inp
            gWs[l] += draw.T @ s_prev
            gbs[l] += draw.sum(axis=0)
            dnext[l] = draw @ model.Ws[l]
            dabove = draw @ model.Us[l]
    grads: list[np.ndarray] = []
    for l in range(L):
        grads += [gUs[l], gWs[l], gbs[l]]
    grads += [gV, gc]
    return grads


def _clip(grads: list[np.ndarray], max_norm: float) -> None:
    total = math.sqrt(sum(float((g * g).sum()) for g in grads))
    if total > max_norm:
        scale = max_norm / total
        for g in grads:
            g *= scale


def _block(readset: ReadSet, idx: np.ndarray):
    """(T, B) input and target codes of reads ``idx``, padded with 4 past
    each read's end, and the loss mask of the transitions to ACGT."""
    n = readset.lengths[idx] - 1
    steps = np.arange(n.max())[:, None]
    pos = readset.starts[idx] + steps
    inside = steps < n
    x = np.where(inside, readset.codes.take(pos, mode="clip"), 4)
    y = np.where(inside, readset.codes.take(pos + 1, mode="clip"), 4)
    return x, y, (y < VOCAB_SIZE).astype(float)


def _masked_ce(probs: np.ndarray, targets: np.ndarray, mask: np.ndarray) -> float:
    tgt = np.where(mask > 0, targets, 0)
    p = np.take_along_axis(probs, tgt[..., None], axis=-1)[..., 0]
    with np.errstate(divide="ignore"):
        nll = -np.log(np.maximum(p, 1e-300))
    return float((nll * mask).sum())


def _run_batch(model, block, config, update: bool):
    """One pass over a (x, y, mask) block of reads; optionally apply SGD steps.

    Returns (summed masked CE, masked count). States carry across unroll
    chunks within the batch and reset between batches.
    """
    x, y, mask = block
    T, B = x.shape
    states = model.zero_states(B)
    loss_sum = 0.0
    count = 0.0
    for start in range(0, T, config.unroll):
        end = min(start + config.unroll, T)
        xs, ys, ms = x[start:end], y[start:end], mask[start:end]
        n = float(ms.sum())
        count += n
        if not update:  # no (T, B, H) states are kept for a loss alone
            loss_sum += float(_score_block(model, xs, ys, ms, states).sum())
            continue
        probs, s_seq, new_states = _forward_chunk(model, xs, states)
        loss_sum += _masked_ce(probs, ys, ms)
        if n > 0:
            grads = _backward_chunk(
                model, xs, ys, ms, states, probs, s_seq, loss_scale=1.0 / n
            )
            _clip(grads, config.clip_norm)
            for p, g in zip(model.params(), grads):
                p -= config.learning_rate * g
        states = new_states
    return loss_sum, count


def train(
    readset: ReadSet, config: TrainConfig | None = None, seed: int = 0
) -> tuple[RnnLm, list[dict]]:
    """Train on a 90/5/5 read split; returns the best-validation parameters.

    The per-epoch history carries mean train and validation loss (nats per
    character); a validation split with no transition to ACGT reports the
    train loss.  A training split with none raises ``TrainingError``.
    """
    config = config or TrainConfig()
    rows = np.flatnonzero(readset.lengths >= 2)
    if not len(rows):
        raise TrainingError("no reads of length >= 2 to train on")
    # the training reads in split order, then the validation reads
    rows = rows[shuffled(Pcg64(seed, 0), len(rows))]
    n_train = int(len(rows) * config.train_frac)
    n_val = int(len(rows) * config.val_frac)
    if n_train < config.minibatch:
        raise TrainingError(
            f"training split has {n_train} reads; "
            f"minibatch of {config.minibatch} cannot be filled"
        )
    val_block = _block(readset, rows[n_train : n_train + n_val]) if n_val else None

    model = RnnLm.init(config.layers, config.hidden, seed=seed)
    epoch_rng = Pcg64(seed, 1)
    best: list[np.ndarray] | None = None
    best_val = math.inf
    history: list[dict] = []
    for epoch in range(config.epochs):
        perm = np.array(shuffled(epoch_rng, n_train))
        loss_sum = 0.0
        count = 0.0
        for start in range(0, n_train, config.minibatch):
            batch = rows[perm[start : start + config.minibatch]]
            ls, n = _run_batch(model, _block(readset, batch), config, update=True)
            loss_sum += ls
            count += n
        if not count:
            raise TrainingError("no scoreable character transitions")
        train_loss = val_loss = loss_sum / count
        if val_block is not None:
            vl, vn = _run_batch(model, val_block, config, update=False)
            val_loss = vl / vn if vn else train_loss
        history.append(
            {"epoch": epoch, "train_loss": train_loss, "val_loss": val_loss}
        )
        if val_loss < best_val:
            best_val = val_loss
            best = model.copy_params()
    if best is not None:
        model.set_params(best)
    return model, history


def forward(model: RnnLm, seq: str) -> np.ndarray:
    """Next-character probabilities after each position of ``seq``.

    Row t is the distribution of the character following ``seq[:t+1]``.
    Characters must be in ACGT.
    """
    if not seq:
        raise ValueError("empty sequence")
    ids = encode(seq)
    if (ids >= VOCAB_SIZE).any():
        raise ValueError("forward() requires characters in ACGT only")
    probs, _, _ = _forward_chunk(model, ids[:, None], model.zero_states(1))
    return probs[:, 0, :]


def _score_block(model: RnnLm, x: np.ndarray, y: np.ndarray, mask: np.ndarray,
                 states: list[np.ndarray] | None = None):
    """Each (T, B) position's negative log-probability of its target, and 0
    where ``mask`` is 0, from ``states`` (zero by default), which are
    advanced in place.  Only the current states and each step's target
    probability are kept."""
    T, B = x.shape
    rows = _input_rows(model)
    cur = model.zero_states(B) if states is None else states
    cols = np.arange(B)
    tgt = np.minimum(y, VOCAB_SIZE - 1)  # masked positions read any column
    p = np.empty((T, B))
    for t in range(T):
        top = _step(model, rows[x[t]], cur)
        p[t] = _next_probs(model, top)[tgt[t], cols]
    # in place, so the block holds one (T, B) float array at a time
    np.maximum(p, 1e-300, out=p)
    np.log(p, out=p)
    np.negative(p, out=p)
    p[mask == 0] = 0.0
    return p


def perplexity(
    model: RnnLm,
    readset: ReadSet,
    sample_n: int | None = None,
    seed: int = 0,
    batch: int = 512,
) -> PerplexityReport:
    """exp(mean cross-entropy) over next-character predictions.

    When ``sample_n`` is given, scores a uniform without-replacement sample.
    Positions whose target character is 'N' are excluded and tallied.  Reads
    are scored ``batch`` at a time.
    """
    if sample_n is not None:
        readset = sample_reads(readset, sample_n, seed)
    rows = np.flatnonzero(readset.lengths >= 2)
    per_read: list[float] = []
    scored = 0
    skipped = 0
    for start in range(0, len(rows), batch):
        # block by block keeps memory O(batch * T) on any read set
        idx = rows[start : start + batch]
        x, y, mask = _block(readset, idx)
        nll = _score_block(model, x, y, mask)
        per_read += [math.fsum(row.tolist()) for row in nll.T]
        n = int(mask.sum())
        scored += n
        skipped += int((readset.lengths[idx] - 1).sum()) - n
    if scored == 0:
        raise PerplexityUndefinedError("no scoreable character transitions")
    return _report(np.array(per_read), scored, skipped)


def gradient_check(model: RnnLm, seq: str, eps: float = 1e-5) -> float:
    """Max relative gap between BPTT and central-difference gradients.

    Uses the full-sequence mean CE loss on a batch of one.
    """
    ids = encode(seq)
    if len(ids) < 2:
        raise ValueError("need at least two characters")
    x = ids[:-1][:, None]
    y = ids[1:][:, None]
    mask = (y < VOCAB_SIZE).astype(float)
    n = float(mask.sum())
    if n == 0:
        raise ValueError("no scoreable transitions")
    states = model.zero_states(1)

    def loss() -> float:
        probs, _, _ = _forward_chunk(model, x, states)
        return _masked_ce(probs, y, mask) / n

    probs, s_seq, _ = _forward_chunk(model, x, states)
    analytic = _backward_chunk(model, x, y, mask, states, probs, s_seq, 1.0 / n)
    worst = 0.0
    for p, g in zip(model.params(), analytic):
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = loss()
            flat[i] = orig - eps
            lo = loss()
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * eps)
            denom = max(abs(gflat[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(gflat[i] - numeric) / denom)
    return worst
