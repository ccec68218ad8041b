"""Golden hashes of one char-RNN model file and one perplexity report.

Both come from the library's own simulator at fixed seeds, so any change to
the training arithmetic, the scoring arithmetic, the summation order or the
file format changes a hash.  The hashes were recorded with the per-read
scorer and trainer that preceded packed block scoring; they pin both
implementations to the same bytes.
"""

from __future__ import annotations

import hashlib
import json

from ectuner import charrnn
from ectuner.injector import (
    InjectionSpec,
    generate_genome,
    inject_readset,
    sample_clean_reads,
)
from ectuner.seqio import Read, ReadSet

MODEL_SHA256 = "d2a8af26122bf1edb3bf427bfc096a31c9d1f01633d56731b68dbfd00ddea1f7"
REPORT_SHA256 = "2564ddb895ba71df8aa201cc75546157ad3364ebe024ba57203eb8d6f5a70e07"


def _golden_sets():
    genome = generate_genome(6_000, seed=71)
    clean = sample_clean_reads(genome, 600, 50, seed=72)
    noisy, _ = inject_readset(clean, InjectionSpec("mixture", "high", seed=73))
    # N as input and as target, a read with no transition, one with a single
    # transition, and one of nothing but N
    n_reads = tuple(
        Read(f"n{i}", r.sequence[: 5 + 3 * i] + "N" + r.sequence[6 + 3 * i :])
        for i, r in enumerate(noisy.reads[:10])
    ) + (Read("one", "A"), Read("two", "GT"), Read("all-n", "N" * 30))
    return ReadSet(clean.reads + n_reads), ReadSet(noisy.reads + n_reads)


def test_model_file_and_report_bytes_are_pinned(tmp_path):
    trained, scored = _golden_sets()
    config = charrnn.TrainConfig(layers=2, hidden=8, epochs=2)
    model, _ = charrnn.train(trained, config, seed=74)
    path = tmp_path / "golden.rnn"
    model.save(str(path))
    report = json.dumps(model.score_reads(scored).to_dict(), sort_keys=True)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == MODEL_SHA256
    assert hashlib.sha256(report.encode()).hexdigest() == REPORT_SHA256
