"""The packed simulator against the per-read oracles in
``injector_oracles``: clean reads, corrupted reads and the columnar ledger,
compared byte for byte."""

from __future__ import annotations

import pytest

import injector_oracles as oracle
from ectuner import injector
from ectuner._rng import make_rng
from ectuner.injector import InjectionSpec, generate_genome, inject_readset
from ectuner.seqio import Read, ReadSet


def _assert_same_reads(got: ReadSet, want: ReadSet) -> None:
    assert got.ids == want.ids
    assert got.codes.tobytes() == want.codes.tobytes()
    assert got.starts.tolist() == want.starts.tolist()
    assert got.lengths.tolist() == want.lengths.tolist()
    assert got.qualities == want.qualities


@pytest.mark.parametrize(
    "genome_len, n, read_len",
    [(1000, 0, 40), (1000, 1, 40), (1000, 3000, 40), (60, 25, 60), (1, 4, 1)],
    ids=["none", "one", "many", "genome-long", "one-base"],
)
def test_packed_clean_reads_equal_the_oracle(genome_len, n, read_len):
    genome = generate_genome(genome_len, seed=3)
    got = injector.sample_clean_reads(genome, n, read_len, seed=4)
    _assert_same_reads(got, oracle.sample_clean_reads(genome, n, read_len, seed=4))


@pytest.mark.parametrize("bad", ["X", "a", "é", "-"])
def test_genome_outside_acgtn_is_refused_as_by_the_oracle(bad):
    genome = generate_genome(300, seed=5)
    genome = genome[:150] + bad + "N" + genome[152:]
    with pytest.raises(ValueError) as want:
        oracle.sample_clean_reads(genome, 40, 30, seed=6)
    with pytest.raises(ValueError) as got:
        injector.sample_clean_reads(genome, 40, 30, seed=6)
    assert str(got.value) == str(want.value)
    assert "contains characters outside ACGTN" in str(got.value)


def test_bad_character_no_read_covers_is_not_refused():
    genome = generate_genome(1000, seed=7)[:-1] + "X"
    # the draw sample_clean_reads makes: no read reaches the last base
    assert make_rng(2).integers(0, 991, size=5).max() < 990
    got = injector.sample_clean_reads(genome, 5, 10, seed=2)
    _assert_same_reads(got, oracle.sample_clean_reads(genome, 5, 10, seed=2))


def _reads(qualities: bool) -> ReadSet:
    """1 100 reads of 20 to 47 bases, some holding N, with or without
    quality strings."""
    genome = generate_genome(4000, seed=8)
    quals = "".join(chr(c) for c in range(33, 80)) * 2
    reads = []
    for i in range(1100):
        n = 20 + i % 28
        seq = genome[3 * i : 3 * i + n]
        if i % 5 == 0:
            seq = seq[:7] + "N" + seq[8:]
        reads.append(Read(f"q{i}", seq, quals[i % 47 : i % 47 + n] if qualities else None))
    return ReadSet(reads)


@pytest.mark.parametrize("qualities", [False, True], ids=["plain", "qualities"])
@pytest.mark.parametrize("seed", [0, 11, 2**33 + 5])
@pytest.mark.parametrize("regime", ["low", "high"])
@pytest.mark.parametrize("kind", ["deletion", "insertion", "substitution", "mixture"])
def test_ledger_columns_equal_the_oracle(
    monkeypatch, tmp_path, kind, regime, seed, qualities
):
    # 1 100 reads span the boundary of 1 024-read blocks
    monkeypatch.setattr(injector, "_BLOCK", 1024)
    readset = _reads(qualities)
    spec = InjectionSpec(kind, regime, seed)
    corrupted, ledger = inject_readset(readset, spec)
    want_reads, want_entries = oracle.inject_readset(readset, spec)
    _assert_same_reads(corrupted, ReadSet(want_reads))
    assert len(ledger) == len(want_entries)
    assert ledger.entries == tuple(want_entries)
    got_path, want_path = tmp_path / "got.tsv", tmp_path / "want.tsv"
    ledger.to_tsv(str(got_path))
    oracle.write_ledger(want_entries, str(want_path))
    assert got_path.read_bytes() == want_path.read_bytes()
    # the ledger rebuilt from its entries writes the same bytes
    injector.ErrorLedger(ledger.entries).to_tsv(str(got_path))
    assert got_path.read_bytes() == want_path.read_bytes()


def test_empty_set_gives_an_empty_ledger(tmp_path):
    corrupted, ledger = inject_readset(ReadSet(), InjectionSpec("mixture", "high", 1))
    assert len(corrupted) == 0 and len(ledger) == 0 and ledger.entries == ()
    path = tmp_path / "ledger.tsv"
    ledger.to_tsv(str(path))
    assert path.read_text() == "read_id\tposition\tkind\toriginal\tobserved\n"
