"""Golden hashes of what the built-in corrector feeds into ``tune`` and ``sweep``.

The scenario is small and seeded: a 6 kb genome read 3 000 times at 50 bp,
plus reads holding one or two N, with substitutions injected at the low rate.
``tune`` runs at its defaults on a 600-read sample; ``sweep --truth`` covers
odd and even k up to the packing limit.  The hashes were recorded with the
corrector that searched every single-base replacement of a weak window; they
pin later search strategies to the same bytes.
"""

from __future__ import annotations

import hashlib

import pytest

from ectuner.cli import main
from ectuner.injector import generate_genome, sample_clean_reads
from ectuner.seqio import Read, write_fastq

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

SHA256 = {
    "tune/corrected.fastq": "f346c7a79b1f88c5533d05a47299a1decf563dc6508ce239622f10a1bbfcb9bc",
    "tune/search.json": "5d7c8b9b72bb7e95023ad9c5ba57a4f0dcf35cb56f5cef9b23abe83288debdbe",
    "sweep.json": "1e8c5102d41dae65eddcfbea090de6707dbb803e45923fffcdad3340ee812946",
}


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    base = tmp_path_factory.mktemp("ecsim-golden")
    genome = generate_genome(6_000, seed=91)
    clean = list(sample_clean_reads(genome, 3_000, 50, seed=92))
    for i in range(60):
        seq = genome[97 * i : 97 * i + 50]
        at = (13 * i) % 50
        seq = seq[:at] + "N" * (1 + i % 2) + seq[at + 1 + i % 2 :]
        clean.append(Read(f"n{i}", seq[:50]))
    truth, noisy = str(base / "clean.fastq"), str(base / "noisy.fastq")
    write_fastq(clean, truth)
    assert main(["inject", "--reads", truth, "--out", noisy, "--seed", "93"]) == 0
    return base, truth, noisy


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_tune_bytes_are_pinned(scenario, capsys):
    base, _, noisy = scenario
    out = base / "tune"
    rc = main(["tune", "--reads", noisy, "--out-dir", str(out),
               "--sample-n", "600", "--seed", "94"])
    assert rc == 0
    capsys.readouterr()
    for name in ("corrected.fastq", "search.json"):
        assert _sha256(out / name) == SHA256[f"tune/{name}"], name


def test_sweep_bytes_are_pinned(scenario, capsys):
    base, truth, noisy = scenario
    out = base / "sweep.json"
    rc = main(["sweep", "--reads", noisy, "--truth", truth,
               "--values", "2,9,16,17,25,32", "--json-out", str(out)])
    assert rc == 0
    capsys.readouterr()
    assert _sha256(out) == SHA256["sweep.json"]
