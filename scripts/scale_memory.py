"""Report the time and peak memory of one train, perplexity, tune, sweep, inject or correction at scale.

    PYTHONPATH=src python scripts/scale_memory.py --command sweep \\
        --genome 1000000 --reads 600000 --values 13,17,21
    PYTHONPATH=src python scripts/scale_memory.py --command correct --k 17 --trace
    PYTHONPATH=src python scripts/scale_memory.py --command inject \\
        --kind mixture --regime low

Builds a genome (seed 101), samples 100 bp reads from it (seed 102) and
injects substitution/low errors (seed 103).  ``correct`` keeps the reads in
memory, counts their full k-mer spectrum at ``--k``, then measures
``kspectrum_correct`` against it.  The other commands write the reads, and
their clean truth, as FASTQ to a temporary directory and run in this
process through ``ectuner.cli.main``: ``train`` of the default n-gram
model, ``perplexity`` of the reads under that model, ``tune`` at its
defaults, ``sweep --truth`` over ``--values`` (the default grid without it),
or ``inject`` of ``--kind`` errors at ``--regime`` (the CLI's defaults
without them) into the clean reads, with a ledger.  It prints one line: the
wall time of the measured step (the whole command; the correction alone for
correct), ``ru_maxrss`` (MiB) before and after it, with ``--trace`` the
tracemalloc peak inside it (MiB, tracing started with the step), and the
first 16 hex digits of the sha256 of the output (the model file for train,
the JSON report on stdout for perplexity, ``search.json`` and
``corrected.fastq`` for tune, the sweep JSON for sweep, the corrupted FASTQ
and the ledger for inject, the corrected codes for correct).  Next to
``maxrss_mb`` it says, for each of ``numpy.random``, ``hashlib`` and
``subprocess``, whether the measured step loaded it (``yes``), did not
(``no``), or found it loaded already (``before``).  For every command but
correct the reads are simulated in a forked child, before this process
imports numpy, so neither the simulation's imports nor its peak count
against the command; for perplexity the child also trains and saves the
model.  Peak RSS is per process, so run each measurement in a fresh one.
The 1 Mb / 600 000-read set needs about 1.6 GB of memory.
"""

import argparse
import contextlib
import io
import math
import os
import resource
import sys
import tempfile
import time
import tracemalloc
import traceback

# modules a command should load only when it needs them
HEAVY = ("numpy.random", "hashlib", "subprocess")


def maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(step, trace: bool):
    """Run ``step``; its result, and its wall time, ``ru_maxrss`` before and
    after it, which of ``HEAVY`` it loaded and tracemalloc peak (nan unless
    ``trace``)."""
    loaded = [m in sys.modules for m in HEAVY]
    before = maxrss_mib()
    if trace:
        tracemalloc.start()
    start = time.perf_counter()
    result = step()
    wall = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1] / 2**20 if trace else math.nan
    tracemalloc.stop()
    imports = " ".join(
        f"{m}={'before' if was else 'yes' if m in sys.modules else 'no'}"
        for m, was in zip(HEAVY, loaded)
    )
    return result, (wall, before, maxrss_mib(), imports, peak)


def simulate(args: argparse.Namespace):
    """The clean reads and the reads with substitution/low errors."""
    from ectuner.injector import (
        InjectionSpec,
        generate_genome,
        inject_readset,
        sample_clean_reads,
    )

    genome = generate_genome(args.genome, seed=101)
    clean = sample_clean_reads(genome, args.reads, 100, seed=102)
    return clean, inject_readset(clean, InjectionSpec("substitution", "low", seed=103))[0]


def write_inputs(args: argparse.Namespace, reads_path: str, truth_path: str, model: str) -> bool:
    """Simulate the reads and write them and their truth as FASTQ, and for
    perplexity save the default n-gram model of the reads as ``model``, in a
    forked child; whether the child succeeded."""
    pid = os.fork()
    if pid == 0:
        # the child never returns into main: it leaves through os._exit
        code = 1
        try:
            from ectuner.seqio import write_fastq

            clean, reads = simulate(args)
            write_fastq(reads, reads_path)
            write_fastq(clean, truth_path)
            if args.command == "perplexity":
                from ectuner.ngram import train_reads

                train_reads(reads).save(model)
            code = 0
        except Exception:
            traceback.print_exc()
        finally:
            os._exit(code)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0


def command_argv(
    args: argparse.Namespace, work: str, reads_path: str, truth_path: str, model: str
) -> tuple[list[str], list[str]]:
    """The output files and the argv of a train, perplexity, tune, sweep or
    inject run."""
    if args.command == "train":
        return [model], ["train", "--reads", reads_path, "--out", model]
    if args.command == "perplexity":
        return [], ["perplexity", "--model", model, "--reads", reads_path]
    if args.command == "tune":
        out_dir = os.path.join(work, "tune")
        argv = ["tune", "--reads", reads_path, "--out-dir", out_dir]
        return [os.path.join(out_dir, n) for n in ("search.json", "corrected.fastq")], argv
    if args.command == "inject":
        out, ledger = os.path.join(work, "inject.fastq"), os.path.join(work, "ledger.tsv")
        argv = ["inject", "--reads", truth_path, "--out", out, "--ledger", ledger]
        for flag in ("kind", "regime"):
            if getattr(args, flag):
                argv += [f"--{flag}", getattr(args, flag)]
        return [out, ledger], argv
    sweep_json = os.path.join(work, "sweep.json")
    argv = ["sweep", "--reads", reads_path, "--truth", truth_path, "--json-out", sweep_json]
    if args.values:
        argv += ["--values", args.values]
    return [sweep_json], argv


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--command", required=True,
                        choices=("train", "perplexity", "tune", "sweep", "inject", "correct"))
    parser.add_argument("--genome", type=int, default=1_000_000)
    parser.add_argument("--reads", type=int, default=600_000)
    parser.add_argument("--values", help="sweep's comma-separated k values")
    parser.add_argument("--k", type=int, help="correct's k, which it needs")
    parser.add_argument("--kind", choices=("deletion", "insertion", "substitution", "mixture"),
                        help="inject's error kind")
    parser.add_argument("--regime", choices=("low", "high"), help="inject's rate regime")
    parser.add_argument("--trace", action="store_true",
                        help="report the measured step's tracemalloc peak")
    args = parser.parse_args()
    if args.values and args.command != "sweep":
        parser.error("--values applies to --command sweep only")
    if (args.kind or args.regime) and args.command != "inject":
        parser.error("--kind and --regime apply to --command inject only")
    if (args.k is None) == (args.command == "correct"):
        parser.error("--k applies to, and is needed by, --command correct only")
    chunks = []  # the output bytes, hashed after the step
    if args.command == "correct":
        from ectuner.ecsim import KSpectrumConfig, kmer_spectrum, kspectrum_correct

        reads = simulate(args)[1]
        spectrum = kmer_spectrum(reads, args.k)
        fixed, stats = measure(
            lambda: kspectrum_correct(reads, KSpectrumConfig(args.k), spectrum), args.trace
        )
        chunks.append(fixed.codes.tobytes())
    else:
        with tempfile.TemporaryDirectory(prefix="ectuner-scale-") as work:
            reads_path = os.path.join(work, "reads.fastq")
            truth_path = os.path.join(work, "truth.fastq")
            model = os.path.join(work, "reads.ngram")
            if not write_inputs(args, reads_path, truth_path, model):
                print("simulating the reads failed", file=sys.stderr)
                return 1
            from ectuner.cli import main as cli_main

            outputs, argv = command_argv(args, work, reads_path, truth_path, model)
            # stdout holds a summary, the sweep's TSV or perplexity's report,
            # the one output hashed where there are no output files
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code, stats = measure(lambda: cli_main(argv), args.trace)
            if code != 0:
                print(f"{args.command} exited with {code}", file=sys.stderr)
                return code
            if not outputs:
                chunks.append(stdout.getvalue().encode())
            for path in outputs:
                with open(path, "rb") as fh:
                    chunks.append(fh.read())
    import hashlib  # only now, so that the measured step loads it itself or not at all

    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    k = f" k={args.k}" if args.k is not None else ""
    if args.command == "inject":
        k = f" kind={args.kind or 'substitution'} regime={args.regime or 'low'}"
    print(
        f"command={args.command}{k} genome={args.genome} reads={args.reads} "
        "wall_s={:.2f} maxrss_before_mb={:.1f} maxrss_mb={:.1f} {} "
        "tracemalloc_peak_mb={:.1f} ".format(*stats)
        + f"sha256={digest.hexdigest()[:16]}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
