"""Golden hashes of outputs that pass through every part of the read layer.

``correct --k 17`` reads a FASTA file (reads without quality, some wrapped
over several lines, some holding N) and writes gzip-compressed FASTQ, so
the hash pins parsing, the synthesized quality, the corrector and the gzip
writer.  ``perplexity --sample-n`` pins the seeded sample and the scoring of
both language models.  The hashes were recorded with the read layer that
kept every read as a ``Read`` object; they pin the packed ``ReadSet`` to the
same bytes.
"""

from __future__ import annotations

import hashlib

import pytest

from ectuner.cli import main
from ectuner.injector import (
    InjectionSpec,
    generate_genome,
    inject_readset,
    sample_clean_reads,
)
from ectuner.seqio import Read, write_fasta, write_fastq

CORRECT_SHA256 = "bf49aa5bbf8bc9e870b5af2c3b26b2ac804760a1368db16329fdcc52e4137e90"
PERPLEXITY_SHA256 = {
    "ngram": "dcf61d1cb33ab763430d9c8f8b3073852a89954e68e47a84ce64b537c756dad6",
    "charrnn": "0e56a12b85a6c13949e4a052700ab57b3b647be95f1f31d7974bda85b2ba4400",
}


def _noisy_reads():
    genome = generate_genome(4_000, seed=91)
    clean = sample_clean_reads(genome, 900, 60, seed=92)
    noisy, _ = inject_readset(clean, InjectionSpec("substitution", "high", seed=93))
    # ragged reads, some longer than a FASTA line, some with N
    extra = tuple(
        Read(f"x{i}", genome[11 * i : 11 * i + n][: n // 3] + "N" * (i % 3)
             + genome[11 * i + n // 3 + i % 3 : 11 * i + n])
        for i, n in enumerate(list(range(5, 150, 7)))
    )
    return noisy.reads + extra


def test_correct_fasta_to_gzip_bytes_are_pinned(tmp_path, capsys):
    fasta = str(tmp_path / "in.fa")
    write_fasta(_noisy_reads(), fasta)
    out = tmp_path / "out.fastq.gz"
    assert main(["correct", "--reads", fasta, "--out", str(out), "--k", "17"]) == 0
    assert '"changed_reads": 0' not in capsys.readouterr().out
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CORRECT_SHA256


@pytest.mark.parametrize("lm", ["ngram", "charrnn"])
def test_sampled_perplexity_reports_are_pinned(tmp_path, capsys, lm):
    reads = str(tmp_path / "in.fastq")
    write_fastq(_noisy_reads(), reads)
    model = str(tmp_path / f"lm.{lm}")
    flags = ["--layers", "1", "--hidden", "6", "--epochs", "1"] if lm == "charrnn" else []
    assert main(["train", "--reads", reads, "--out", model, "--lm", lm, *flags]) == 0
    capsys.readouterr()
    argv = ["perplexity", "--model", model, "--reads", reads, "--sample-n", "300",
            "--seed", "94"]
    assert main(argv) == 0
    report = capsys.readouterr().out
    assert hashlib.sha256(report.encode()).hexdigest() == PERPLEXITY_SHA256[lm]
