"""The program surface the benchmark's traced run relies on.

``bench/tracing.py`` wraps public functions by module attribute and reads
counts from their arguments and results.  These checks import it from its
file, unchanged, so a refactor that would break the traced run fails here.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from ectuner.ecsim import KSpectrumConfig, kmer_spectrum, kspectrum_correct
from ectuner.injector import generate_genome, sample_clean_reads
from ectuner.seqio import Read, ReadSet

from ecsim_oracles import oracle_spectrum

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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
