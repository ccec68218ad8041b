"""Golden hashes of one model file and one perplexity report.

Both come from the library's own simulator at fixed seeds, so any change to
counting, scoring, summation or the file format changes a hash.  The hashes
were recorded with the dict-of-dicts model that preceded the array tables;
they pin both implementations to the same bytes.
"""

from __future__ import annotations

import hashlib
import json

from ectuner import ngram
from ectuner.injector import (
    InjectionSpec,
    generate_genome,
    inject_readset,
    sample_clean_reads,
)
from ectuner.seqio import Read, ReadSet

MODEL_SHA256 = "4742b98502f02d70aa3e107bc7502a3ab04e4191b1d4be04ef2982373e9a8673"
REPORT_SHA256 = "4adb5a526c9f359215f66b1974861bffb33188345db7794a4e494a3b9390e031"


def _golden_sets():
    genome = generate_genome(8_000, seed=61)
    clean = sample_clean_reads(genome, 1_500, 50, seed=62)
    noisy, _ = inject_readset(clean, InjectionSpec("substitution", "high", seed=63))
    # N splits runs, and a read shorter than the word has none
    n_reads = tuple(
        Read(f"n{i}", r.sequence[:9 + 3 * i] + "N" + r.sequence[10 + 3 * i :])
        for i, r in enumerate(noisy.reads[:12])
    ) + (Read("short", "ACGTA"), Read("all-n", "N" * 30))
    return ReadSet(clean.reads[:1_000] + n_reads), ReadSet(noisy.reads + n_reads)


def test_model_file_and_report_bytes_are_pinned(tmp_path):
    trained, scored = _golden_sets()
    model = ngram.train_reads(trained, word_len=7, history=3)
    path = tmp_path / "golden.ngram"
    model.save(str(path))
    report = json.dumps(model.score_reads(scored).to_dict(), sort_keys=True)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == MODEL_SHA256
    assert hashlib.sha256(report.encode()).hexdigest() == REPORT_SHA256
