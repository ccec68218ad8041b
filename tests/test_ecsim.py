"""Spectrum correction, external-adapter, and gain-metric checks."""

from __future__ import annotations

import os
import sys

import pytest

from ectuner.ecsim import (
    AdapterError,
    AlignmentError,
    GainUndefinedError,
    KSpectrumConfig,
    SpectrumStats,
    ToolAdapter,
    adapter_corrector,
    builtin_corrector,
    ec_gain,
    kmer_spectrum,
    kspectrum_correct,
    run_external,
    solid_threshold_for_coverage,
)
from ectuner.injector import InjectionSpec, generate_genome, inject_readset, sample_clean_reads
from ectuner.seqio import Read, ReadSet


def _naive_spectrum(reads, k):
    counts = {}
    for r in reads:
        for i in range(len(r.sequence) - k + 1):
            kmer = r.sequence[i : i + k]
            if set(kmer) <= set("ACGT"):
                counts[kmer] = counts.get(kmer, 0) + 1
    return counts


def test_kmer_spectrum_matches_naive_recount():
    genome = generate_genome(500, seed=1)
    rs = sample_clean_reads(genome, 80, 30, seed=2)
    for k in (3, 7, 15):
        assert kmer_spectrum(rs, k) == _naive_spectrum(rs, k)


def test_kmer_spectrum_skips_n_windows_and_short_reads():
    rs = ReadSet((Read("a", "ACGNACG"), Read("b", "AC")))
    stats = SpectrumStats()
    spec = kmer_spectrum(rs, 3, stats)
    assert spec == {"ACG": 2}
    assert stats.reads == 1
    assert stats.short_reads == 1
    assert stats.kmers == 2
    with pytest.raises(ValueError):
        kmer_spectrum(rs, 0)


def test_solid_threshold_heuristic():
    assert solid_threshold_for_coverage(0) == 2
    assert solid_threshold_for_coverage(10) == 2
    assert solid_threshold_for_coverage(35) == 4
    assert solid_threshold_for_coverage(100) == 10


def test_kspectrum_config_validation():
    with pytest.raises(ValueError):
        KSpectrumConfig(k=0)
    with pytest.raises(ValueError):
        KSpectrumConfig(k=5, solid_min=0)
    with pytest.raises(ValueError):
        KSpectrumConfig(k=5, max_edits=-1)


def test_single_error_is_restored_against_deep_spectrum():
    window = "ACGTTGCAACGGTCAATCGGTACATTGCAC"
    clean = [Read(f"c{i}", window) for i in range(30)]
    errored = Read("e", window[:12] + "G" + window[13:])
    assert errored.sequence != window
    rs = ReadSet(tuple(clean + [errored]))
    fixed = kspectrum_correct(rs, KSpectrumConfig(k=5, solid_min=3, max_edits=2))
    assert fixed[30].sequence == window
    assert [r.sequence for r in fixed[:30]] == [window] * 30


def test_all_solid_data_is_unchanged():
    window = "ACGTTGCAACGGTCAATCGGTACATTGCAC"
    rs = ReadSet(tuple(Read(f"c{i}", window) for i in range(10)))
    fixed = kspectrum_correct(rs, KSpectrumConfig(k=7, solid_min=3, max_edits=2))
    assert [r.sequence for r in fixed] == [r.sequence for r in rs]


def test_max_edits_caps_corrections():
    # an all-A truth with three C errors; the explicit spectrum leaves the
    # corrector exactly one solid replacement per broken window
    bad = "AACAAAAAACAAAAAACAAA"
    rs = ReadSet((Read("e", bad),))
    spectrum = {"AAAAA": 10}

    capped = kspectrum_correct(
        rs, KSpectrumConfig(k=5, solid_min=3, max_edits=2), spectrum=spectrum
    )
    assert capped[0].sequence == "AAAAAAAAAAAAAAAACAAA"

    untouched = kspectrum_correct(
        rs, KSpectrumConfig(k=5, solid_min=3, max_edits=0), spectrum=spectrum
    )
    assert untouched[0].sequence == bad

    full = kspectrum_correct(
        rs, KSpectrumConfig(k=5, solid_min=3, max_edits=5), spectrum=spectrum
    )
    assert full[0].sequence == "A" * 20


def test_tie_breaks_choose_lexicographically_smallest():
    rs = ReadSet((Read("r", "AAA"),))
    spectrum = {"AAC": 5, "CAA": 5}
    fixed = kspectrum_correct(rs, KSpectrumConfig(k=3, solid_min=3), spectrum=spectrum)
    assert fixed[0].sequence == "AAC"

    spectrum = {"AAC": 5, "CAA": 9}
    fixed = kspectrum_correct(rs, KSpectrumConfig(k=3, solid_min=3), spectrum=spectrum)
    assert fixed[0].sequence == "CAA"


def test_reads_shorter_than_k_pass_through():
    rs = ReadSet((Read("s", "ACGT"),))
    fixed = kspectrum_correct(rs, KSpectrumConfig(k=9, solid_min=2))
    assert fixed[0].sequence == "ACGT"


def test_correction_is_thread_invariant():
    genome = generate_genome(3000, seed=3)
    clean = sample_clean_reads(genome, 400, 50, seed=4)
    rs, _ = inject_readset(clean, InjectionSpec("substitution", "low", seed=5))
    cfg = KSpectrumConfig(k=13, solid_min=3, max_edits=2)
    seq = kspectrum_correct(rs, cfg)
    par = kspectrum_correct(rs, cfg)
    assert [r.sequence for r in seq] == [r.sequence for r in par]


def test_builtin_corrector_improves_gain_on_synthetic_data():
    genome = generate_genome(20_000, seed=6)
    clean = sample_clean_reads(genome, 8000, 50, seed=7)
    corrupted, _ = inject_readset(clean, InjectionSpec("substitution", "low", seed=8))
    corrector = builtin_corrector(solid_min=3, max_edits=2)
    fixed = corrector(corrupted, 15)
    assert ec_gain(corrupted, fixed, clean) > 0.4


def test_ec_gain_hand_cases():
    orig = ReadSet((Read("r", "ACGT"),))
    truth = ReadSet((Read("r", "AAGT"),))
    assert ec_gain(orig, ReadSet((Read("r", "AAGT"),)), truth) == 1.0
    assert ec_gain(orig, ReadSet((Read("r", "ACGT"),)), truth) == 0.0
    # one error untouched plus one good base broken: (0 - 1) / 1
    assert ec_gain(orig, ReadSet((Read("r", "ACGA"),)), truth) == -1.0
    # fix the error but break a good base: (1 - 1) / 1
    assert ec_gain(orig, ReadSet((Read("r", "AAGA"),)), truth) == 0.0


def test_ec_gain_alignment_errors():
    a = ReadSet((Read("r", "ACGT"),))
    with pytest.raises(AlignmentError):
        ec_gain(a, a, ReadSet(()))
    with pytest.raises(AlignmentError):
        ec_gain(a, a, ReadSet((Read("other", "ACGT"),)))
    with pytest.raises(AlignmentError):
        ec_gain(a, a, ReadSet((Read("r", "ACGTT"),)))
    with pytest.raises(GainUndefinedError):
        ec_gain(a, a, a)


def test_adapter_template_validation():
    ToolAdapter("tool -i {input} -o {output} -k {k}")
    with pytest.raises(ValueError):
        ToolAdapter("tool -i {input} -o {output}")
    with pytest.raises(ValueError):
        ToolAdapter("tool {input} {output} {k} {GL}")
    with pytest.raises(ValueError):
        ToolAdapter("tool {input} {output} {q}", param_name="q")
    ToolAdapter("tool {input} {output} --gl {GL}", param_name="GL")


def test_identity_shell_adapter_round_trips(tmp_path, monkeypatch):
    monkeypatch.setenv("ATHENA_TMPDIR", str(tmp_path))
    adapter = ToolAdapter('sh -c "cp {input} {output} && : {k}"')
    rs = ReadSet((Read("r1", "ACGTACGT", "IIIIIIII"), Read("r2", "TTTTACGT")))
    out = run_external(adapter, 17, rs)
    assert [r.sequence for r in out] == [r.sequence for r in rs]
    assert [r.id for r in out] == ["r1", "r2"]
    # success removes the exchange directory
    assert [d for d in os.listdir(tmp_path) if d.startswith("ectuner-")] == []


def test_python_script_adapter_receives_parameter(tmp_path, monkeypatch):
    monkeypatch.setenv("ATHENA_TMPDIR", str(tmp_path))
    script = tmp_path / "fixer.py"
    script.write_text(
        "import sys\n"
        "inp, outp, k = sys.argv[1], sys.argv[2], int(sys.argv[3])\n"
        "assert k == 21\n"
        "lines = open(inp).read().splitlines()\n"
        "with open(outp, 'w') as fh:\n"
        "    for i in range(0, len(lines), 4):\n"
        "        fh.write(lines[i] + '\\n' + lines[i+1].replace('T', 'A') + '\\n')\n"
        "        fh.write('+\\n' + lines[i+3] + '\\n')\n"
    )
    adapter = ToolAdapter(f"{sys.executable} {script} {{input}} {{output}} {{k}}")
    rs = ReadSet((Read("r1", "TTTT"),))
    out = adapter_corrector(adapter)(rs, 21)
    assert out[0].sequence == "AAAA"


def test_adapter_failure_keeps_workdir_with_stderr(tmp_path, monkeypatch):
    monkeypatch.setenv("ATHENA_TMPDIR", str(tmp_path))
    adapter = ToolAdapter('sh -c "echo boom >&2; : {input} {output} {k}; exit 3"')
    rs = ReadSet((Read("r1", "ACGT"),))
    with pytest.raises(AdapterError) as err:
        run_external(adapter, 9, rs)
    msg = str(err.value)
    assert "exited with 3" in msg
    assert "boom" in msg
    kept = [d for d in os.listdir(tmp_path) if d.startswith("ectuner-")]
    assert len(kept) == 1
    assert (tmp_path / kept[0] / "stderr.txt").read_text().strip() == "boom"


def test_adapter_missing_output_is_an_error(tmp_path, monkeypatch):
    monkeypatch.setenv("ATHENA_TMPDIR", str(tmp_path))
    adapter = ToolAdapter('sh -c ": {input} {output} {k}"')
    rs = ReadSet((Read("r1", "ACGT"),))
    with pytest.raises(AdapterError) as err:
        run_external(adapter, 9, rs)
    assert "no output" in str(err.value)


def test_adapter_missing_binary_is_an_error(tmp_path, monkeypatch):
    monkeypatch.setenv("ATHENA_TMPDIR", str(tmp_path))
    adapter = ToolAdapter("definitely-not-a-real-tool {input} {output} {k}")
    rs = ReadSet((Read("r1", "ACGT"),))
    with pytest.raises(AdapterError) as err:
        run_external(adapter, 9, rs)
    assert "could not launch" in str(err.value)


def test_adapter_timeout_is_an_error(tmp_path, monkeypatch):
    monkeypatch.setenv("ATHENA_TMPDIR", str(tmp_path))
    adapter = ToolAdapter(
        'sh -c "sleep 5; cp {input} {output}; : {k}"', timeout=0.4
    )
    rs = ReadSet((Read("r1", "ACGT"),))
    with pytest.raises(AdapterError) as err:
        run_external(adapter, 9, rs)
    assert "timed out" in str(err.value)
