"""Report the time and peak memory of one train, tune or sweep at scale.

    PYTHONPATH=src python scripts/scale_memory.py --command sweep \\
        --genome 1000000 --reads 600000 --values 13,17,21

Builds a genome (seed 101), samples 100 bp reads from it (seed 102),
injects substitution/low errors (seed 103) and writes the reads, and their
clean truth, as FASTQ to a temporary directory.  It then runs the command
in this process: ``tune`` at its defaults, or ``sweep --truth`` over
``--values`` (the default grid without it), through ``ectuner.cli.main``;
or ``train``, which loads the reads, trains the default n-gram model with
``ectuner.ngram.train_reads`` and saves it.  It prints one line: the wall
time of the command (of the training alone for train), ``ru_maxrss`` (MiB)
before and after it, and the first 16 hex digits of the sha256 of the
output files (the model file for train, ``search.json`` and
``corrected.fastq`` for tune, the sweep JSON for sweep).  Peak RSS is per
process, so run each measurement in a fresh one.  The 1 Mb / 600 000-read
set needs about 1.5 GB of memory.
"""

import argparse
import contextlib
import hashlib
import io
import os
import resource
import sys
import tempfile
import time

from ectuner.cli import main as cli_main
from ectuner.injector import (
    InjectionSpec,
    generate_genome,
    inject_readset,
    sample_clean_reads,
)
from ectuner.ngram import train_reads
from ectuner.seqio import load_reads, write_fastq


def maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def train(reads_path: str, model_path: str) -> tuple[float, float, float]:
    """Train the default n-gram model on the loaded reads, then save it;
    ``ru_maxrss`` before and after training, and the training's wall time."""
    reads = load_reads(reads_path)
    before = maxrss_mib()
    start = time.perf_counter()
    model = train_reads(reads)
    wall = time.perf_counter() - start
    after = maxrss_mib()
    model.save(model_path)
    return before, wall, after


def command_argv(
    args: argparse.Namespace, work: str, reads_path: str, truth_path: str
) -> tuple[list[str], list[str]]:
    """The output files and the argv of a tune or sweep run."""
    if args.command == "tune":
        out_dir = os.path.join(work, "tune")
        argv = ["tune", "--reads", reads_path, "--out-dir", out_dir]
        return [os.path.join(out_dir, n) for n in ("search.json", "corrected.fastq")], argv
    sweep_json = os.path.join(work, "sweep.json")
    argv = ["sweep", "--reads", reads_path, "--truth", truth_path, "--json-out", sweep_json]
    if args.values:
        argv += ["--values", args.values]
    return [sweep_json], argv


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--command", choices=("train", "tune", "sweep"), required=True)
    parser.add_argument("--genome", type=int, default=1_000_000)
    parser.add_argument("--reads", type=int, default=600_000)
    parser.add_argument("--values", help="sweep's comma-separated k values")
    args = parser.parse_args()
    if args.values and args.command != "sweep":
        parser.error("--values applies to --command sweep only")
    with tempfile.TemporaryDirectory(prefix="ectuner-scale-") as work:
        reads_path = os.path.join(work, "reads.fastq")
        truth_path = os.path.join(work, "truth.fastq")
        genome = generate_genome(args.genome, seed=101)
        clean = sample_clean_reads(genome, args.reads, 100, seed=102)
        reads = inject_readset(clean, InjectionSpec("substitution", "low", seed=103))[0]
        write_fastq(reads, reads_path)
        write_fastq(clean, truth_path)
        del genome, clean, reads
        if args.command == "train":
            outputs = [os.path.join(work, "reads.ngram")]
            before, wall, after = train(reads_path, outputs[0])
        else:
            outputs, argv = command_argv(args, work, reads_path, truth_path)
            before = maxrss_mib()
            start = time.perf_counter()
            # the command's stdout (a TSV or JSON) is its output files' content
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(argv)
            wall = time.perf_counter() - start
            after = maxrss_mib()
            if code != 0:
                print(f"{args.command} exited with {code}", file=sys.stderr)
                return code
        digest = hashlib.sha256()
        for path in outputs:
            with open(path, "rb") as fh:
                digest.update(fh.read())
    print(
        f"command={args.command} genome={args.genome} reads={args.reads} "
        f"wall_s={wall:.2f} maxrss_before_mb={before:.1f} "
        f"maxrss_mb={after:.1f} sha256={digest.hexdigest()[:16]}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
