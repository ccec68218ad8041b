"""Spans around the program's public functions, for the traced run.

``install`` replaces each public function at the module attribute its
callers look up (``cli`` imports ``load_reads`` by name, so the wrapper goes
on ``ectuner.cli.load_reads``; ``tuner`` calls ``evaluate_point`` through its
own globals, so it goes on ``ectuner.tuner.evaluate_point``) and ``uninstall``
puts the originals back.  Untraced operations run with nothing installed.

A span records its name, start, end, parent span and the operation it
belongs to, plus counts taken from the call's arguments and result.  Spans
stay in memory until ``Tracer.write`` at the end of the operation.  Counting runs
on a paused clock, so the time it takes lands in no span; it shows only in
the tracing overhead (traced minus untraced wall time).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Spans of one operation; ``op`` tags every span it records."""

    def __init__(self, op: int) -> None:
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op = op
        self._paused = 0.0

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def open(self, name: str) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), parent, self.op, name, self.now())
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.now()
        self.stack.pop()

    def call(self, name: str, fn, signature, args, kwargs, before, after):
        span = self.open(name)
        if before is not None:
            self._count(span, before, signature, args, kwargs, None)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.close(span)
        if after is not None:
            self._count(span, after, signature, args, kwargs, result)
        return result

    def _count(self, span, counter, signature, args, kwargs, result) -> None:
        t0 = time.perf_counter()
        parent = self.stack[-1] if self.stack else None
        arguments = signature.bind(*args, **kwargs).arguments
        span.attrs.update(counter(parent, arguments, result))
        self._paused += time.perf_counter() - t0

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def read_spans(path: str) -> list[Span]:
    with open(path) as fh:
        return [Span(**json.loads(line)) for line in fh]


# -- what to wrap -------------------------------------------------------------


def _reads_loaded(parent, arguments, result):
    return {"reads": len(result)}


def _words_trained(parent, arguments, result):
    return {"words": result.m_train}


def _words_scored(parent, arguments, result):
    return {"words": result.scored_words}


def _ledger_changes(parent, arguments, result):
    return {"changes": len(result[1])}


def _spectrum_size(parent, arguments, result):
    counts = {"distinct": len(result)}
    if parent is not None and "solid_min" in parent.attrs:
        solid_min = parent.attrs["solid_min"]
        counts["solid"] = sum(1 for c in result.values() if c >= solid_min)
    return counts


def _correct_config(parent, arguments, result):
    return {"solid_min": arguments["config"].solid_min}


def _correct_outcome(parent, arguments, result):
    readset = arguments["readset"]
    changed = sum(1 for a, b in zip(readset, result) if a.sequence != b.sequence)
    return {"reads_in": len(readset), "reads_changed": changed}


def _evaluations(parent, arguments, result):
    return {"evaluations": result.evaluations}


def _sweep_values(parent, arguments, result):
    return {"values": len(result.rows)}


# (module, attribute path, span name, counter before the call, counter after).
# A counter gets the enclosing span, the call's bound arguments and its result
# (None before the call) and returns counts to store on the span.
TARGETS = (
    ("ectuner.cli", "load_reads", "seqio.load", None, _reads_loaded),
    ("ectuner.ecsim", "load_reads", "seqio.load", None, _reads_loaded),
    ("ectuner.cli", "write_fastq", "seqio.write", None, None),
    ("ectuner.ecsim", "write_fastq", "seqio.write", None, None),
    ("ectuner.cli", "sample_reads", "seqio.sample", None, None),
    ("ectuner.tuner", "sample_reads", "seqio.sample", None, None),
    ("ectuner.charrnn", "sample_reads", "seqio.sample", None, None),
    ("ectuner.ngram", "train_reads", "ngram.train", None, _words_trained),
    ("ectuner.ngram", "NgramModel.score_reads", "ngram.score", None, _words_scored),
    ("ectuner.charrnn", "train", "charrnn.train", None, None),
    ("ectuner.charrnn", "RnnLm.score_reads", "charrnn.score", None, _words_scored),
    ("ectuner.cli", "inject_readset", "injector.inject", None, _ledger_changes),
    ("ectuner.ecsim", "kmer_spectrum", "ecsim.spectrum", None, _spectrum_size),
    ("ectuner.ecsim", "kspectrum_correct", "ecsim.correct",
     _correct_config, _correct_outcome),
    ("ectuner.ecsim", "ec_gain", "ecsim.gain", None, None),
    ("ectuner.metrics", "ec_gain", "ecsim.gain", None, None),
    ("ectuner.tuner", "tune", "tuner.tune", None, _evaluations),
    ("ectuner.tuner", "evaluate_point", "tuner.eval", None, None),
    ("ectuner.metrics", "sweep", "metrics.sweep", None, _sweep_values),
)


def _wrap(tracer: Tracer, fn, name: str, before, after):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, signature, args, kwargs, before, after)

    return traced


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every target; returns what ``uninstall`` needs to undo it."""
    saved = []
    for module_name, path, name, before, after in TARGETS:
        owner = importlib.import_module(module_name)
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        setattr(owner, attr, _wrap(tracer, original, name, before, after))
        saved.append((owner, attr, original))
    return saved


def uninstall(saved: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


# -- per-layer metrics --------------------------------------------------------

# name, unit, better: the per_layer list of BENCHMARK.json, in this order.
PER_LAYER = (
    ("cli.self_s", "s", "lower"),
    ("seqio.load_s", "s", "lower"),
    ("seqio.write_s", "s", "lower"),
    ("seqio.sample_s", "s", "lower"),
    ("seqio.reads", "count", "lower"),
    ("ngram.train_s", "s", "lower"),
    ("ngram.words_trained", "count", "lower"),
    ("ngram.score_s", "s", "lower"),
    ("ngram.words_scored", "count", "lower"),
    ("charrnn.train_s", "s", "lower"),
    ("charrnn.score_s", "s", "lower"),
    ("charrnn.chars_scored", "count", "lower"),
    ("injector.inject_s", "s", "lower"),
    ("injector.changes", "count", "lower"),
    ("ecsim.spectrum_s", "s", "lower"),
    ("ecsim.kmers_distinct", "count", "lower"),
    ("ecsim.kmers_solid", "count", "higher"),
    ("ecsim.correct_s", "s", "lower"),
    ("ecsim.reads_in", "count", "lower"),
    ("ecsim.reads_changed", "count", "higher"),
    ("ecsim.changed_ratio", "ratio", "higher"),
    ("ecsim.gain_s", "s", "lower"),
    ("tuner.evaluations", "count", "lower"),
    ("tuner.eval_s", "s", "lower"),
    ("tuner.final_correct_s", "s", "lower"),
    ("metrics.sweep_s", "s", "lower"),
    ("metrics.values", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def op_metrics(spans: list[Span]) -> dict[str, float]:
    """Every per-layer metric of one traced operation, from its spans."""
    by_id = {s.id: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)

    def dur(s: Span) -> float:
        return s.end - s.start

    def self_time(s: Span) -> float:
        return dur(s) - sum(dur(c) for c in children[s.id])

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def total(name: str) -> float:
        return sum(dur(s) for s in named(name))

    def count(name: str, key: str) -> int:
        return sum(s.attrs.get(key, 0) for s in named(name))

    corrections = named("ecsim.correct")
    reads_in = count("ecsim.correct", "reads_in")
    reads_changed = count("ecsim.correct", "reads_changed")
    return {
        "cli.self_s": sum(self_time(s) for s in named("cli.main")),
        "seqio.load_s": total("seqio.load"),
        "seqio.write_s": total("seqio.write"),
        "seqio.sample_s": total("seqio.sample"),
        "seqio.reads": count("seqio.load", "reads"),
        "ngram.train_s": total("ngram.train"),
        "ngram.words_trained": count("ngram.train", "words"),
        "ngram.score_s": total("ngram.score"),
        "ngram.words_scored": count("ngram.score", "words"),
        "charrnn.train_s": total("charrnn.train"),
        "charrnn.score_s": total("charrnn.score"),
        "charrnn.chars_scored": count("charrnn.score", "words"),
        "injector.inject_s": total("injector.inject"),
        "injector.changes": count("injector.inject", "changes"),
        "ecsim.spectrum_s": total("ecsim.spectrum"),
        "ecsim.kmers_distinct": count("ecsim.spectrum", "distinct"),
        "ecsim.kmers_solid": count("ecsim.spectrum", "solid"),
        "ecsim.correct_s": sum(self_time(s) for s in corrections),
        "ecsim.reads_in": reads_in,
        "ecsim.reads_changed": reads_changed,
        "ecsim.changed_ratio": reads_changed / reads_in if reads_in else 0.0,
        "ecsim.gain_s": total("ecsim.gain"),
        "tuner.evaluations": count("tuner.tune", "evaluations"),
        "tuner.eval_s": total("tuner.eval"),
        "tuner.final_correct_s": sum(
            dur(s)
            for s in corrections
            if s.parent is not None and by_id[s.parent].name == "tuner.tune"
        ),
        "metrics.sweep_s": total("metrics.sweep"),
        "metrics.values": count("metrics.sweep", "values"),
    }


def layer_metrics(spans: list[Span], overhead_s: float) -> dict[str, dict]:
    """Median over traced operations of each per-layer metric."""
    per_op = defaultdict(list)
    for s in spans:
        per_op[s.op].append(s)
    samples = [op_metrics(op_spans) for _, op_spans in sorted(per_op.items())]
    values = {
        name: statistics.median(m[name] for m in samples) for name in samples[0]
    }
    values["trace.overhead_s"] = overhead_s
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {name: {"value": values[name], "unit": units[name]} for name, *_ in PER_LAYER}
