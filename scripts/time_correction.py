"""Time one ``kspectrum_correct`` run at scale, against a precomputed spectrum.

    PYTHONPATH=src python scripts/time_correction.py --k 17 [--trace]

Builds a 1 Mb genome (seed 101), samples 600 000 x 100 bp reads (seed 102),
injects substitution/low errors (seed 103), counts the k-mer spectrum, then
corrects the reads against it and prints one line: the correction's wall
time, ``ru_maxrss`` (MiB) after the spectrum build and after the correction,
with ``--trace`` the tracemalloc peak inside the correction (MiB, tracing
started after the spectrum was built), and the first 16 hex digits of the
sha256 of the corrected codes.  Run each timing in a fresh process: peak
RSS is per process.  It needs about 1 GB of memory.
"""

import argparse
import hashlib
import resource
import time
import tracemalloc

from ectuner.ecsim import KSpectrumConfig, kmer_spectrum, kspectrum_correct
from ectuner.injector import (
    InjectionSpec,
    generate_genome,
    inject_readset,
    sample_clean_reads,
)


def maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--k", type=int, required=True)
    parser.add_argument("--genome", type=int, default=1_000_000)
    parser.add_argument("--reads", type=int, default=600_000)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    genome = generate_genome(args.genome, seed=101)
    clean = sample_clean_reads(genome, args.reads, 100, seed=102)
    reads = inject_readset(clean, InjectionSpec("substitution", "low", seed=103))[0]
    del clean, genome
    spectrum = kmer_spectrum(reads, args.k)
    before = maxrss_mib()
    if args.trace:
        tracemalloc.start()
    start = time.perf_counter()
    fixed = kspectrum_correct(reads, KSpectrumConfig(args.k), spectrum)
    wall = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1] / 2**20 if args.trace else float("nan")
    sha = hashlib.sha256(fixed.codes.tobytes()).hexdigest()[:16]
    print(
        f"k={args.k} wall_s={wall:.2f} maxrss_before_mb={before:.1f} "
        f"maxrss_after_mb={maxrss_mib():.1f} tracemalloc_peak_mb={peak:.1f} sha256={sha}"
    )


if __name__ == "__main__":
    main()
