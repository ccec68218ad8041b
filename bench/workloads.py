"""The three workloads: their inputs, their command sequence and their checks.

Every input is simulated with the program's own library (genome, clean reads,
injected errors, FASTQ) from seeds derived from the benchmark's ``--seed``.
Reads are 50 bp at 60x coverage, the acceptance gates' read length and
coverage; the genome is smaller than the gates' 50 kb so that one operation
takes seconds, and each workload's genome size is chosen so that the program
behaves as it does at full scale (see README.md).

Commands run with the operation's directory as working directory and name
the inputs as ``../../inputs/<file>``.  ``verify`` checks the outputs of one
operation against independent recomputations in ``checks`` and returns the
workload's ``gain``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

import numpy as np

import checks
from checks import require
from common import TESTS

READ_LEN = 50
COVERAGE = 60
IN = "../../inputs/"


def _seeds(seed: int) -> list[int]:
    """Independent integer seeds for genome, read starts, errors and the CLI."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(4)]


def _simulate(inputs: str, seed: int, genome_len: int, corrupt: bool) -> None:
    from ectuner.injector import (
        InjectionSpec,
        generate_genome,
        inject_readset,
        sample_clean_reads,
    )
    from ectuner.seqio import write_fastq

    s = _seeds(seed)
    genome = generate_genome(genome_len, s[0])
    n_reads = COVERAGE * genome_len // READ_LEN
    clean = sample_clean_reads(genome, n_reads, READ_LEN, s[1])
    write_fastq(clean, os.path.join(inputs, "clean.fastq"))
    if corrupt:
        noisy, _ = inject_readset(clean, InjectionSpec("substitution", "low", s[2]))
        write_fastq(noisy, os.path.join(inputs, "noisy.fastq"))


class Context:
    """What ``verify`` sees: the inputs, one operation's outputs, and the CLI."""

    def __init__(self, inputs: str, op_dir: str, scratch: str, run_cli) -> None:
        self.inputs = inputs
        self.op_dir = op_dir
        self.scratch = scratch
        self._run_cli = run_cli

    def input(self, name: str) -> str:
        return os.path.join(self.inputs, name)

    def output(self, name: str) -> str:
        return os.path.join(self.op_dir, name)

    def stdout_json(self, index: int) -> dict:
        with open(self.output(f"cmd-{index:02d}.stdout")) as fh:
            return json.loads(fh.read())

    def read_json(self, name: str) -> dict:
        with open(self.output(name)) as fh:
            return json.load(fh)

    def cli(self, argv: list[str]) -> str:
        rc, out, err = self._run_cli(argv)
        require(rc == 0, f"ectuner {' '.join(argv)} exited {rc}: {err.strip()[-300:]}")
        return out

    def correct(self, k: int) -> str:
        """Path of the noisy reads corrected at ``k`` by ``ectuner correct``."""
        path = os.path.join(self.scratch, f"correct-k{k}.fastq")
        self.cli(["correct", "--reads", self.input("noisy.fastq"), "--out", path,
                  "--k", str(k)])
        return path


def _check_correction(ctx: Context, corrected_path: str, k: int, cfg: dict) -> float:
    """Check reads corrected at ``k``; return their gain against the clean reads."""
    noisy = checks.read_fastq(ctx.input("noisy.fastq"))
    corrected = checks.read_fastq(corrected_path)
    clean = checks.read_fastq(ctx.input("clean.fastq"))
    counts = checks.spectrum((s for _, s in noisy), k)
    checks.check_corrections(
        noisy, corrected, k, cfg["solid_min"], cfg["max_edits"], counts
    )
    return checks.gain(noisy, corrected, clean)


class TuneDefault:
    """``ectuner tune`` at CLI defaults on substitution/low reads."""

    name = "tune-default"
    genome_len = 10_000

    def setup(self, inputs: str, seed: int) -> None:
        _simulate(inputs, seed, self.genome_len, corrupt=True)

    def commands(self, seed: int) -> list[list[str]]:
        return [["tune", "--reads", IN + "noisy.fastq", "--out-dir", "tune"]]

    def verify(self, ctx: Context) -> float:
        summary = ctx.stdout_json(0)
        search = ctx.read_json("tune/search.json")
        cfg = ctx.read_json("tune/config.json")
        best = summary["best_value"]
        require(search["best_value"] == best, "search.json disagrees on best_value")
        evaluated = {v: p for s in search["searches"] for v, p in s["trace"]}
        budget = (cfg["k_max"] - cfg["k_min"]) // cfg["delta"] + 1
        require(
            summary["evaluations"] == len(evaluated) <= budget,
            f"{summary['evaluations']} evaluations, {len(evaluated)} distinct, "
            f"budget {budget}",
        )
        for neighbour in (best - cfg["delta"], best + cfg["delta"]):
            if neighbour in evaluated:
                require(
                    evaluated[best] <= evaluated[neighbour],
                    f"k={best} scores {evaluated[best]} above neighbour "
                    f"k={neighbour} at {evaluated[neighbour]}",
                )
        tuned = ctx.output("tune/corrected.fastq")
        with open(tuned, "rb") as a, open(ctx.correct(best), "rb") as b:
            require(a.read() == b.read(), f"tune output differs from correct --k {best}")
        program = json.loads(ctx.cli([
            "eval", "--original", ctx.input("noisy.fastq"), "--corrected", tuned,
            "--truth", ctx.input("clean.fastq"),
        ]))["gain"]
        gain = _check_correction(ctx, tuned, best, cfg)
        require(abs(gain - program) <= 1e-12, f"gain {gain} but eval says {program}")
        return gain


class SweepGrid:
    """``ectuner sweep --truth`` over the default k grid on all reads."""

    name = "sweep-grid"
    genome_len = 5_000

    def setup(self, inputs: str, seed: int) -> None:
        _simulate(inputs, seed, self.genome_len, corrupt=True)

    def commands(self, seed: int) -> list[list[str]]:
        return [["sweep", "--reads", IN + "noisy.fastq", "--truth", IN + "clean.fastq",
                 "--json-out", "sweep.json"]]

    def verify(self, ctx: Context) -> float:
        report = ctx.read_json("sweep.json")
        cfg = ctx.read_json("sweep.json.config.json")
        rows = report["rows"]
        grid = list(range(cfg["k_min"], cfg["k_max"] + 1, cfg["k_step"]))
        require([r["value"] for r in rows] == grid, "sweep rows miss grid values")
        perplexity = [r["perplexity_ngram"] for r in rows]
        gains = [r["gain"] for r in rows]
        pearson = float(np.corrcoef(perplexity, gains)[0, 1])
        reported = report["correlations"]["ngram_vs_gain"]
        require(abs(pearson - reported) <= 1e-9, f"Pearson {reported}, numpy {pearson}")
        require(pearson < 0, f"perplexity does not anticorrelate with gain ({pearson})")
        best = min(rows, key=lambda r: (r["perplexity_ngram"], r["value"]))
        gain = _check_correction(ctx, ctx.correct(best["value"]), best["value"], cfg)
        require(
            abs(gain - best["gain"]) <= 1e-12,
            f"gain at k={best['value']} is {gain}, sweep row says {best['gain']}",
        )
        return gain


class ErrorLadder:
    """Inject every kind at both rates, train both models on the clean reads,
    score every set with each."""

    name = "error-ladder"
    genome_len = 2_500
    kinds = ("deletion", "insertion", "substitution", "mixture")
    regimes = ("low", "high")
    rnn_flags = ["--layers", "1", "--hidden", "16", "--epochs", "3"]
    oracle_reads = 4

    def sets(self) -> list[str]:
        return ["clean"] + [f"{k}_{r}" for k in self.kinds for r in self.regimes]

    def _path(self, name: str) -> str:
        return IN + "clean.fastq" if name == "clean" else name + ".fastq"

    def setup(self, inputs: str, seed: int) -> None:
        _simulate(inputs, seed, self.genome_len, corrupt=False)

    def commands(self, seed: int) -> list[list[str]]:
        cli_seed = str(_seeds(seed)[3])
        cmds = [
            ["inject", "--reads", IN + "clean.fastq", "--out", f"{k}_{r}.fastq",
             "--ledger", f"{k}_{r}.tsv", "--kind", k, "--regime", r, "--seed", cli_seed]
            for k in self.kinds
            for r in self.regimes
        ]
        cmds.append(["train", "--reads", IN + "clean.fastq", "--out", "lm.ngram"])
        cmds.append(["train", "--reads", IN + "clean.fastq", "--out", "lm.rnn",
                     "--lm", "charrnn", *self.rnn_flags, "--seed", cli_seed])
        for model in ("lm.ngram", "lm.rnn"):
            for name in self.sets():
                cmds.append(["perplexity", "--model", model, "--reads", self._path(name)])
        return cmds

    def verify(self, ctx: Context) -> float:
        names = self.sets()
        records = {
            n: checks.read_fastq(
                ctx.input("clean.fastq") if n == "clean" else ctx.output(n + ".fastq")
            )
            for n in names
        }
        clean = records["clean"]
        n_inject = len(names) - 1
        replay_gains = []
        for i, name in enumerate(names[1:]):
            ledger = ctx.output(name + ".tsv")
            with open(ledger) as fh:
                rows = sum(1 for _ in fh) - 1
            require(ctx.stdout_json(i)["changes"] == rows, f"{name}: change count")
            replayed = checks.replay_ledger(records[name], ledger)
            require(replayed == clean, f"{name}: ledger replay does not give the clean reads")
            if name.startswith("substitution"):
                replay_gains.append(checks.gain(records[name], replayed, clean))

        first_score = n_inject + 2
        ngram = {n: ctx.stdout_json(first_score + i) for i, n in enumerate(names)}
        rnn = {n: ctx.stdout_json(first_score + len(names) + i) for i, n in enumerate(names)}
        word_len = ctx.read_json("lm.ngram.config.json")["word_len"]
        for name in names:
            seqs = [s for _, s in records[name]]
            require(
                ngram[name]["scored_words"] == checks.full_words(seqs, word_len),
                f"{name}: n-gram scored_words",
            )
            require(
                rnn[name]["scored_words"] == checks.char_transitions(seqs),
                f"{name}: char-RNN scored characters",
            )
        for kind in self.kinds:
            ladder = [ngram[n]["avg_perplexity"] for n in ("clean", f"{kind}_low", f"{kind}_high")]
            require(ladder[0] < ladder[1] < ladder[2], f"{kind}: perplexity ladder {ladder}")
        self._check_product_form(ctx, records, word_len)
        return statistics.fmean(replay_gains)

    def _check_product_form(self, ctx: Context, records, word_len: int) -> None:
        if TESTS not in sys.path:
            sys.path.insert(0, TESTS)
        from ectuner.ngram import NgramModel
        from ectuner.segmenter import WordSequence
        from ngram_oracles import product_form_perplexity

        model_path = ctx.output("lm.ngram")
        model = NgramModel.load(model_path)
        for name, recs in records.items():
            few = recs[: self.oracle_reads]
            path = os.path.join(ctx.scratch, f"oracle-{name}.fastq")
            checks.write_fastq(few, path)
            report = json.loads(ctx.cli(["perplexity", "--model", model_path,
                                         "--reads", path]))
            seqs = [WordSequence(rid, tuple(checks.word_runs(s, word_len))) for rid, s in few]
            direct, m = product_form_perplexity(model, seqs)
            require(report["scored_words"] == m, f"{name}: oracle word count {m}")
            rel = abs(report["avg_perplexity"] - direct) / direct
            require(rel <= 1e-9, f"{name}: perplexity {report['avg_perplexity']}, "
                                 f"product form {direct}")


WORKLOADS = {w.name: w for w in (TuneDefault(), SweepGrid(), ErrorLadder())}
