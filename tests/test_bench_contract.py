"""The program surface the benchmark relies on.

``bench/tracing.py`` wraps public functions by module attribute and reads
counts from their arguments and results; ``bench/workloads.py`` builds its
inputs and checks its outputs through more of the program.  These checks
import both from their files, unchanged, so a refactor that would break the
benchmark fails here.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from ectuner.cli import main
from ectuner.ecsim import KSpectrumConfig, kmer_spectrum, kspectrum_correct
from ectuner.injector import generate_genome, sample_clean_reads
from ectuner.seqio import Read, ReadSet

from ecsim_oracles import oracle_spectrum

_BENCH = Path(__file__).resolve().parents[1] / "bench"
_TRACING = _BENCH / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while they are defined
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def workloads():
    """``bench/workloads.py``, with the bench modules it imports by name."""
    sys.path.insert(0, str(_BENCH))
    try:
        yield importlib.import_module("workloads")
    finally:
        sys.path.remove(str(_BENCH))
        for name in ("workloads", "checks", "common"):
            sys.modules.pop(name, None)


def test_every_target_is_an_attribute_of_its_owner(tracing):
    for module_name, path, *_ in tracing.TARGETS:
        owner = importlib.import_module(module_name)
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        assert attr in owner.__dict__, f"{module_name}.{path}"
        assert callable(owner.__dict__[attr])


def test_spectrum_size_counts_distinct_and_solid_kmers(tracing):
    genome = generate_genome(400, seed=3)
    rs = sample_clean_reads(genome, 60, 30, seed=4)
    for k, solid_min in ((5, 2), (11, 3)):
        counts = oracle_spectrum(rs, k)
        parent = tracing.Span(0, None, 0, "ecsim.correct", 0.0,
                              attrs={"solid_min": solid_min})
        got = tracing._spectrum_size(parent, {}, kmer_spectrum(rs, k))
        solid = sum(1 for c in counts.values() if c >= solid_min)
        assert got == {"distinct": len(counts), "solid": solid}
        # outside a correction there is no threshold, so only distinct
        got = tracing._spectrum_size(None, {}, kmer_spectrum(rs, k))
        assert got == {"distinct": len(counts)}


def test_correct_counters_bind_readset_and_config_by_name(tracing):
    rs = ReadSet((Read("a", "ACGTACGTAC"), Read("b", "ACGAACGTAC")))
    config = KSpectrumConfig(5, solid_min=1)
    arguments = inspect.signature(kspectrum_correct).bind(rs, config).arguments
    assert arguments["readset"] is rs and arguments["config"] is config
    assert tracing._correct_config(None, arguments, None) == {"solid_min": 1}
    fixed = kspectrum_correct(rs, config)
    outcome = tracing._correct_outcome(None, arguments, fixed)
    changed = sum(a.sequence != b.sequence for a, b in zip(rs, fixed))
    assert outcome == {"reads_in": 2, "reads_changed": changed}


def test_workload_inputs_and_product_form_check_run(workloads, tmp_path):
    """The calls the workloads make outside the traced targets: inputs come
    from the injector's simulation functions and ``seqio.write_fastq``, and
    the error ladder's product-form check loads a model with
    ``NgramModel.load``, builds each ``WordSequence(read_id, runs)`` by
    position and scores it with ``ngram_oracles.product_form_perplexity``."""
    inputs, op_dir = tmp_path / "inputs", tmp_path / "op"
    inputs.mkdir()
    op_dir.mkdir()
    workloads._simulate(str(inputs), 1, 2_000, corrupt=True)
    assert sorted(p.name for p in inputs.iterdir()) == ["clean.fastq", "noisy.fastq"]
    common = sys.modules["common"]
    ctx = workloads.Context(
        str(inputs), str(op_dir), str(tmp_path), lambda argv: common.run_cli(main, argv)
    )
    ctx.cli(["train", "--reads", ctx.input("clean.fastq"), "--out", ctx.output("lm.ngram")])
    noisy = workloads.checks.read_fastq(ctx.input("noisy.fastq"))
    word_len = ctx.read_json("lm.ngram.config.json")["word_len"]
    workloads.ErrorLadder()._check_product_form(ctx, {"noisy": noisy}, word_len)
