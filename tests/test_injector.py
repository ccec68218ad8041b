"""Error-injection checks: documented draw protocol, block injection against
the per-read oracle, length accounting, ledger round-trips, and exact
reversal."""

from __future__ import annotations

import numpy as np
import pytest

import injector_oracles as oracle
from ectuner import injector
from ectuner._rng import make_rng, spawn_rng
from ectuner.injector import (
    KINDS,
    REGIMES,
    ErrorLedger,
    InjectionSpec,
    LedgerEntry,
    LedgerReplayError,
    _substitute,
    generate_genome,
    inject_readset,
    revert,
    sample_clean_reads,
)
from ectuner.seqio import Read, ReadSet

_BASES = "ACGT"


def _replay_one(read, spec, idx):
    """Re-derive one read's corruption from the documented draw protocol:
    mixture kind first, then count, then the kind's own draws."""
    rng = spawn_rng(spec.seed, idx)
    kind = spec.kind
    if kind == "mixture":
        kind = KINDS[int(rng.integers(0, 3))]
    lo, hi = REGIMES[spec.regime]
    count = int(rng.integers(lo, hi + 1))
    seq = read.sequence
    l = len(seq)
    if kind == "deletion":
        i = int(rng.integers(0, l - count + 1))
        return seq[:i] + seq[i + count :]
    if kind == "insertion":
        i = int(rng.integers(0, l - count + 1))
        segment = "".join(_BASES[b] for b in rng.integers(0, 4, size=count))
        return seq[:i] + segment + seq[i:]
    chars = list(seq)
    for _ in range(count):
        pos = int(rng.integers(0, l))
        base = _BASES[int(rng.integers(0, 4))]
        chars[pos] = base
    return "".join(chars)


def test_generate_genome_matches_draw_protocol():
    genome = generate_genome(200, seed=5)
    ids = make_rng(5).integers(0, 4, size=200)
    assert genome == "".join(_BASES[i] for i in ids)
    assert generate_genome(200, seed=5) == genome
    assert generate_genome(200, seed=6) != genome
    with pytest.raises(ValueError):
        generate_genome(0, seed=1)


def test_sample_clean_reads_are_genome_substrings():
    genome = generate_genome(1000, seed=7)
    rs = sample_clean_reads(genome, 50, 40, seed=8)
    assert len(rs) == 50
    assert [r.id for r in rs] == [f"r{i}" for i in range(50)]
    for r in rs:
        assert len(r.sequence) == 40
        assert r.sequence in genome
    again = sample_clean_reads(genome, 50, 40, seed=8)
    assert [r.sequence for r in again] == [r.sequence for r in rs]
    with pytest.raises(ValueError):
        sample_clean_reads(genome, 5, 1001, seed=0)
    with pytest.raises(ValueError):
        sample_clean_reads(genome, 5, 0, seed=0)


@pytest.mark.parametrize("kind", ["deletion", "insertion", "substitution", "mixture"])
@pytest.mark.parametrize("regime", ["low", "high"])
def test_inject_readset_matches_documented_protocol(kind, regime):
    genome = generate_genome(2000, seed=9)
    clean = sample_clean_reads(genome, 40, 50, seed=10)
    spec = InjectionSpec(kind, regime, seed=11)
    corrupted, ledger = inject_readset(clean, spec)
    assert len(corrupted) == len(clean)
    for idx, (orig, got) in enumerate(zip(clean, corrupted)):
        assert got.id == orig.id
        assert got.sequence == _replay_one(orig, spec, idx)
    # every ledger row describes a real change
    for e in ledger.entries:
        assert e.kind in KINDS
        assert e.original != e.observed


def test_single_edit_helpers_edit_quality():
    read = Read("q", "ACGTACGTAC", "0123456789")
    for kind in KINDS:
        for seed in range(20):
            (out,), ledger = inject_readset(ReadSet((read,)), InjectionSpec(kind, "low", seed))
            assert len(out.quality) == len(out.sequence)
            if kind == "substitution":
                assert out.quality == read.quality
                continue
            (e,) = ledger.entries
            if kind == "deletion":
                # the deleted window removes the matching quality slice
                n = len(e.original)
                assert out.quality == read.quality[: e.position] + read.quality[e.position + n :]
            else:
                n = len(e.observed)
                assert out.quality == read.quality[: e.position] + "I" * n + read.quality[e.position :]


def _mixed_reads(min_len: int) -> ReadSet:
    """Reads with quality strings or none, N in the middle or at the start,
    and lengths from ``min_len`` (edit spans of 1) up to 90."""
    genome = generate_genome(3000, seed=40)
    quals = "".join(chr(c) for c in range(33, 74)) * 4
    reads = []
    for i in range(160):
        n = min_len + (i * 7) % (91 - min_len) if i % 4 else min_len
        seq = genome[11 * i : 11 * i + n]
        if i % 3 == 0:
            seq = seq[: n // 2] + "N" + seq[n // 2 + 1 :]
        if i % 29 == 5:
            seq = "N" + seq[1:]
        reads.append(Read(f"m{i}", seq, quals[i % 41 : i % 41 + n] if i % 2 else None))
    return ReadSet(tuple(reads))


@pytest.mark.parametrize("kind", ["deletion", "insertion", "substitution", "mixture"])
@pytest.mark.parametrize("regime", ["low", "high"])
@pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
def test_block_injection_equals_the_per_read_oracle(monkeypatch, kind, regime, seed):
    # a small block size puts block boundaries inside the read set
    monkeypatch.setattr(injector, "_BLOCK", 37)
    spec = InjectionSpec(kind, regime, seed)
    for readset in (_mixed_reads(REGIMES[regime][1]), _mixed_reads(1)):
        if kind != "substitution" and len(readset[0]) == 1:
            continue
        corrupted, ledger = inject_readset(readset, spec)
        want_reads, want_entries = oracle.inject_readset(readset, spec)
        assert corrupted.reads == tuple(want_reads)
        assert ledger.entries == tuple(want_entries)


def test_block_injection_equals_the_oracle_across_default_blocks():
    genome = generate_genome(5000, seed=41)
    clean = sample_clean_reads(genome, 4500, 20, seed=42)
    spec = InjectionSpec("mixture", "high", seed=43)
    corrupted, ledger = inject_readset(clean, spec)
    want_reads, want_entries = oracle.inject_readset(clean, spec)
    assert corrupted.reads == tuple(want_reads)
    assert ledger.entries == tuple(want_entries)


def test_broadcast_substitute_equals_scalar_draws():
    for seq, n in (("A", 7), ("ACGTN", 12), ("\u00e9" * 3, 4), ("ACGT" * 500, 300)):
        fast, slow = make_rng(50), make_rng(50)
        assert _substitute(seq, n, fast) == oracle.substitute(seq, n, slow)
        assert fast.bit_generator.state == slow.bit_generator.state
    with pytest.raises(ValueError):
        _substitute("", 3, make_rng(51))


def test_length_accounting_over_randomized_reads():
    genome = generate_genome(5000, seed=12)
    clean = sample_clean_reads(genome, 1000, 50, seed=13)
    for regime in ("low", "high"):
        spec = InjectionSpec("mixture", regime, seed=14)
        corrupted, ledger = inject_readset(clean, spec)
        delta = {}
        for e in ledger.entries:
            delta[e.read_id] = delta.get(e.read_id, 0) + len(e.observed) - len(e.original)
        for orig, got in zip(clean, corrupted):
            assert len(got.sequence) == len(orig.sequence) + delta.get(orig.id, 0)
            if got.quality is not None:
                assert len(got.quality) == len(got.sequence)


def test_mixture_kind_frequencies_are_even():
    genome = generate_genome(5000, seed=15)
    clean = sample_clean_reads(genome, 30_000, 50, seed=16)
    spec = InjectionSpec("mixture", "low", seed=17)
    corrupted, _ = inject_readset(clean, spec)
    tallies = {"deletion": 0, "insertion": 0, "substitution": 0}
    for idx, (orig, got) in enumerate(zip(clean, corrupted)):
        if len(got.sequence) < 50:
            tallies["deletion"] += 1
        elif len(got.sequence) > 50:
            tallies["insertion"] += 1
        else:
            tallies["substitution"] += 1
    for kind in KINDS:
        assert 0.31 <= tallies[kind] / 30_000 <= 0.35, tallies


def test_substitution_changes_three_quarters_of_draws():
    rng = make_rng(18)
    seq = generate_genome(1_000_000, seed=19)
    draws = 100_000
    _, edits = _substitute(seq, draws, rng)
    frac = len(edits) / draws
    assert 0.74 <= frac <= 0.76


def test_substitution_positions_use_full_range():
    rng = make_rng(20)
    read = Read("r", "A" * 50)
    out, _ = _substitute(read.sequence, 500, rng)
    # with 500 draws every position is hit with overwhelming probability
    changed = {i for i, (a, b) in enumerate(zip(read.sequence, out)) if a != b}
    assert min(changed) < 5
    assert max(changed) >= 45


def test_ledger_tsv_round_trip(tmp_path):
    entries = (
        LedgerEntry("r0", 3, "substitution", "A", "C"),
        LedgerEntry("r1", 0, "deletion", "ACG", ""),
        LedgerEntry("r1", 7, "insertion", "", "TT"),
    )
    ledger = ErrorLedger(entries)
    path = str(tmp_path / "ledger.tsv")
    ledger.to_tsv(path)
    text = (tmp_path / "ledger.tsv").read_text()
    assert text.splitlines()[0] == "read_id\tposition\tkind\toriginal\tobserved"
    back = ErrorLedger.from_tsv(path)
    assert back.entries == entries


def test_ledger_tsv_rejects_malformed_files(tmp_path):
    bad_header = tmp_path / "h.tsv"
    bad_header.write_text("id\tpos\n")
    with pytest.raises(ValueError):
        ErrorLedger.from_tsv(str(bad_header))

    bad_kind = tmp_path / "k.tsv"
    bad_kind.write_text(
        "read_id\tposition\tkind\toriginal\tobserved\nr0\t1\tfrobnication\tA\tC\n"
    )
    with pytest.raises(ValueError):
        ErrorLedger.from_tsv(str(bad_kind))

    bad_fields = tmp_path / "f.tsv"
    bad_fields.write_text("read_id\tposition\tkind\toriginal\tobserved\nr0\t1\n")
    with pytest.raises(ValueError):
        ErrorLedger.from_tsv(str(bad_fields))


@pytest.mark.parametrize("kind", ["deletion", "insertion", "substitution", "mixture"])
def test_revert_restores_original_sequences(kind):
    genome = generate_genome(4000, seed=21)
    clean = sample_clean_reads(genome, 500, 50, seed=22)
    corrupted, ledger = inject_readset(clean, InjectionSpec(kind, "high", seed=23))
    restored = revert(corrupted, ledger)
    assert [r.sequence for r in restored] == [r.sequence for r in clean]
    assert [r.id for r in restored] == [r.id for r in clean]


def test_revert_round_trips_through_tsv(tmp_path):
    genome = generate_genome(2000, seed=24)
    clean = sample_clean_reads(genome, 100, 50, seed=25)
    corrupted, ledger = inject_readset(clean, InjectionSpec("mixture", "low", seed=26))
    path = str(tmp_path / "ledger.tsv")
    ledger.to_tsv(path)
    restored = revert(corrupted, ErrorLedger.from_tsv(path))
    assert [r.sequence for r in restored] == [r.sequence for r in clean]


def test_revert_detects_tampered_reads():
    genome = generate_genome(2000, seed=27)
    clean = sample_clean_reads(genome, 20, 50, seed=28)
    corrupted, ledger = inject_readset(clean, InjectionSpec("substitution", "low", seed=29))
    target = ledger.entries[0]
    tampered = []
    for r in corrupted:
        if r.id == target.read_id:
            s = list(r.sequence)
            flip = {"A": "C", "C": "G", "G": "T", "T": "A"}
            s[target.position] = flip[s[target.position]]
            tampered.append(Read(r.id, "".join(s), r.quality))
        else:
            tampered.append(r)
    with pytest.raises(LedgerReplayError):
        revert(ReadSet(tuple(tampered)), ledger)


def test_inject_readset_is_thread_invariant():
    genome = generate_genome(3000, seed=30)
    clean = sample_clean_reads(genome, 300, 50, seed=31)
    spec = InjectionSpec("mixture", "high", seed=32)
    seq_out, seq_ledger = inject_readset(clean, spec)
    par_out, par_ledger = inject_readset(clean, spec)
    assert [r.sequence for r in seq_out] == [r.sequence for r in par_out]
    assert seq_ledger.entries == par_ledger.entries


def test_injection_spec_validation():
    with pytest.raises(ValueError):
        InjectionSpec("inversion", "low")
    with pytest.raises(ValueError):
        InjectionSpec("deletion", "medium")


def test_oversized_edit_counts_raise():
    ok = Read("ok", "ACGTACGTAC")
    for kind, read, count in (
        ("deletion", Read("short", "ACGT"), "5"),
        ("insertion", Read("short", "ACGT"), "5"),
        ("substitution", Read("empty", ""), "[1-5]"),
    ):
        spec = InjectionSpec(kind, "low" if kind == "substitution" else "high", seed=33)
        pattern = rf"read '{read.id}' of length {len(read)} is too short for {kind} count {count}"
        if kind != "substitution":
            # the high regime draws at least 6, so read length 4 never fits
            pattern = pattern.replace(count, "(6|7|8|9|10)")
        with pytest.raises(ValueError, match=pattern):
            inject_readset(ReadSet((ok, read, ok)), spec)
    with pytest.raises(ValueError, match="substitution count must be positive"):
        _substitute("ACGT", 0, make_rng(33))


def test_negative_seed_is_refused():
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        InjectionSpec("substitution", "low", seed=-1)


def test_injection_seed_changes_output():
    genome = generate_genome(2000, seed=34)
    clean = sample_clean_reads(genome, 50, 50, seed=35)
    a, _ = inject_readset(clean, InjectionSpec("substitution", "low", seed=1))
    b, _ = inject_readset(clean, InjectionSpec("substitution", "low", seed=2))
    assert [r.sequence for r in a] != [r.sequence for r in b]
