"""Golden hashes of the ``inject`` FASTQ and ledger for every kind and regime.

The input mixes the simulator's clean reads with reads of other lengths,
reads holding N and reads with varied quality strings, among them reads
exactly as long as a high-regime edit count.  A deletion must leave one
base, so for deletion/high those reads are one base longer.  The hashes were
recorded with the per-read injector that preceded block injection; they pin
both implementations to the same bytes.  The deletion/high hash was
re-recorded when deleting every base of a read became an error.
"""

from __future__ import annotations

import hashlib

import pytest

from ectuner.cli import main
from ectuner.injector import generate_genome, sample_clean_reads
from ectuner.seqio import Read, write_fastq

SEED = 2**40 + 3
SHA256 = {
    "deletion/low": "f51b1aa0be8a5cfc10cde0a0f065ccf243af2676a523f6666c680e87242edfc3",
    "deletion/high": "ae26872962429d32ea79c9d22c2c63fb2beb5081f2e4080af983c40c6c9ed14b",
    "insertion/low": "deefb1cf5e465fe026a2578abdcd493d010bc5deef3c089a744fc8a49f6ffa3a",
    "insertion/high": "026f6a583d779cc17a3165b8e3aac1ff3cb32beb1d27b0281ff67e9a4fab3245",
    "substitution/low": "2d556af9e461897213eeb9d8643e46cd293fb9a9a6679abf2431fee090400bac",
    "substitution/high": "9861daa5f7db5ebabb7d1bd96703fe90524a0f28778b1bdfaaefccae123dddb3",
    "mixture/low": "72c12ca36ee57eb8faa645bbee4da4028942677e88eef1a3e971b32e7a70c2b7",
    "mixture/high": "0cfb640e3878f8361ef3e8edaead7e8418d772fb1fd04c1e1d6059766a6f25db",
}


def _golden_fastq(path: str, edge: int) -> str:
    """The input, its last 20 reads ``edge`` bases long."""
    genome = generate_genome(5_000, seed=81)
    clean = sample_clean_reads(genome, 400, 50, seed=82)
    quals = "".join(chr(c) for c in range(33, 75)) * 5
    mixed = []
    for i, n in enumerate(list(range(10, 81)) + [edge] * 20):
        seq = genome[7 * i : 7 * i + n]
        seq = seq[: n // 2] + "N" * (i % 3) + seq[n // 2 + i % 3 :]
        mixed.append(Read(f"m{i}", seq, quals[i : i + n]))
    write_fastq(clean.reads + tuple(mixed), path)
    return path


@pytest.fixture(scope="module")
def golden_fastq(tmp_path_factory):
    folder = tmp_path_factory.mktemp("golden")
    return {edge: _golden_fastq(str(folder / f"in{edge}.fastq"), edge) for edge in (10, 11)}


@pytest.mark.parametrize("kind", ["deletion", "insertion", "substitution", "mixture"])
@pytest.mark.parametrize("regime", ["low", "high"])
def test_inject_bytes_are_pinned(golden_fastq, tmp_path, capsys, kind, regime):
    out, ledger = tmp_path / "out.fastq", tmp_path / "ledger.tsv"
    # a high-regime deletion of 10 must leave one base of its read
    edge = 11 if (kind, regime) == ("deletion", "high") else 10
    rc = main(
        ["inject", "--reads", golden_fastq[edge], "--out", str(out), "--ledger",
         str(ledger), "--kind", kind, "--regime", regime, "--seed", str(SEED)]
    )
    assert rc == 0
    digest = hashlib.sha256(out.read_bytes() + ledger.read_bytes()).hexdigest()
    assert digest == SHA256[f"{kind}/{regime}"]
