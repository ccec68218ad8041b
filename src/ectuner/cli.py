"""Command-line interface.

Subcommands cover the whole pipeline: train, perplexity, inject, correct,
tune, sweep, eval.  Machine-readable results (JSON or TSV) go to stdout,
human progress notes to stderr.  Option values resolve as explicit flags
first, then entries from --config (a JSON object keyed by the flag's long
name with underscores), then built-in defaults; every file-producing command
writes the fully-resolved configuration next to its output.

Exit codes: 0 success, 1 runtime failure, 2 usage errors or missing inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import charrnn, ecsim, metrics, ngram, tuner
from .injector import InjectionSpec, inject_readset
from .segmenter import SegmentStats
from .seqio import load_reads, sample_reads, write_fastq


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    return data


# what a config file may give a key whose default is None (else an int)
_NULLABLE = {"adapter_template": (str,), "timeout": (int, float),
             "initials": (str, list), "values": (str, list)}


def _check_type(path: str, key: str, value, default) -> None:
    """A config file value must have its default's type; an int stands for a
    float, and null is taken only where the default is None."""
    if value is None and default is None:
        return
    if default is None:
        accepted = _NULLABLE.get(key, (int,))
    else:
        accepted = (int, float) if isinstance(default, float) else (type(default),)
    if isinstance(value, bool) or not isinstance(value, accepted):
        names = " or ".join(t.__name__ for t in accepted)
        raise ValueError(f"{path}: {key} must be {names}, got {value!r}")


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """flags > config file > defaults, for the keys in ``defaults``.

    A config file key that no subcommand resolves is refused, so a misspelt
    key cannot silently do nothing; one of another subcommand's keys is
    taken and ignored, so one file can serve several commands."""
    path = getattr(args, "config", None)
    file_cfg = _load_config_file(path)
    unknown = sorted(set(file_cfg) - _KNOWN_KEYS)
    if unknown:
        raise ValueError(f"{path}: unknown key {', '.join(unknown)}")
    resolved = {}
    for key, default in defaults.items():
        cli_val = getattr(args, key, None)
        if key in file_cfg:
            _check_type(path, key, file_cfg[key], default)
        if cli_val is not None:
            resolved[key] = cli_val
        elif key in file_cfg:
            resolved[key] = file_cfg[key]
        else:
            resolved[key] = default
    return resolved


def _write_config(resolved: dict, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(resolved, sort_keys=True, indent=2) + "\n")


def _load_model(path: str):
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == ngram.MAGIC:
        return ngram.NgramModel.load(path)
    if magic == charrnn.MAGIC:
        return charrnn.RnnLm.load(path)
    raise ValueError(f"{path}: not a recognized model file")


def _int_list(value) -> tuple[int, ...] | None:
    """Integers from a flag's comma-separated text or a config file's list."""
    if value is None:
        return None
    parts = value.split(",") if isinstance(value, str) else value
    try:
        return tuple(int(part) for part in parts if str(part).strip())
    except ValueError:
        raise ValueError(f"expected comma-separated integers: {value!r}") from None


def _rnn_config(cfg: dict) -> charrnn.TrainConfig:
    return charrnn.TrainConfig(**{key: cfg[key] for key in _RNN_DEFAULTS})


def _make_corrector(cfg: dict):
    """The corrector ``cfg`` names, its settings checked; the commands build
    it before loading any read."""
    if cfg["adapter_template"]:
        if cfg["timeout"] is not None and cfg["timeout"] <= 0:
            raise ValueError(f"--timeout must be > 0, got {cfg['timeout']}")
        adapter = ecsim.ToolAdapter(
            command_template=cfg["adapter_template"],
            param_name=cfg["adapter_param"],
            timeout=cfg["timeout"],
        )
        return ecsim.adapter_corrector(adapter)
    _check_min(cfg, "solid_min", 1)
    _check_min(cfg, "max_edits", 0)
    return ecsim.builtin_corrector(cfg["solid_min"], cfg["max_edits"])


def _check_min(cfg: dict, key: str, least: int) -> None:
    """Exit before any work when a flag's value is below ``least``."""
    if cfg[key] is not None and cfg[key] < least:
        flag = "--" + key.replace("_", "-")
        raise ValueError(f"{flag} must be >= {least}, got {cfg[key]}")


def _search_space(cfg: dict) -> tuner.SearchSpace:
    """The tune search space, each bad value reported by its flag."""
    for key, least in (("k_max", cfg["k_min"]), ("delta", 1), ("iter_max", 0)):
        _check_min(cfg, key, least)
    initials = _int_list(cfg["initials"])
    lo, hi = cfg["k_min"], cfg["k_max"]
    for k in initials or ():
        if not lo <= k <= hi:
            raise ValueError(f"--initials {k} is outside --k-min..--k-max [{lo}, {hi}]")
    return tuner.SearchSpace(lo, hi, cfg["delta"], cfg["iter_max"], initials)


def _check_k_fits(cfg: dict, reads, values) -> None:
    """The built-in corrector passes reads shorter than k through unchanged,
    so a k above every read would exit cleanly having corrected nothing; and
    its packed k-mers bound k too.  Checking the smallest and the largest
    value checks every k in ``values``, before any work."""
    if cfg["adapter_template"]:
        return
    longest = int(reads.lengths.max()) if len(reads) else max(values)
    for k in (min(values), max(values)):
        if k > longest:
            raise ValueError(
                f"k={k} exceeds the longest read ({longest} bp); "
                "the built-in corrector would change nothing"
            )
        ecsim.check_k(k)


def _train_lm(cfg: dict, reads, stats: SegmentStats | None = None):
    """Train the language model ``cfg`` names (n-gram unless ``lm`` says
    charrnn); returns the model and the char-RNN's per-epoch history, or
    None for an n-gram."""
    kind = cfg.get("lm", "ngram")
    if kind == "ngram":
        if not 4 <= cfg["word_len"] <= 12:
            raise ValueError(f"word length must be in 4..12, got {cfg['word_len']}")
        if cfg["word_len"] < 5:
            _say(f"warning: word length {cfg['word_len']} below 5 loses context")
        if not 0 <= cfg["history"] <= 5:
            raise ValueError(f"history must be in 0..5, got {cfg['history']}")
        settings = {key: cfg[key] for key in _NGRAM_DEFAULTS}
        return ngram.train_reads(reads, stats=stats, **settings), None
    if kind == "charrnn":
        return charrnn.train(reads, _rnn_config(cfg), seed=cfg["seed"])
    raise ValueError(f"unknown language model kind {kind!r}")


_NGRAM_DEFAULTS = {
    "word_len": ngram.DEFAULT_WORD_LEN,
    "history": ngram.DEFAULT_HISTORY,
    "p_floor": ngram.DEFAULT_P_FLOOR,
}

_RNN_DEFAULTS = {
    key: getattr(charrnn.TrainConfig, key)
    for key in ("layers", "hidden", "epochs", "minibatch", "learning_rate", "unroll")
}

_CORRECTOR_DEFAULTS = {"solid_min": 3, "max_edits": 2, "adapter_template": None,
                       "adapter_param": "k", "timeout": None}

_K_RANGE = {"k_min": 9, "k_max": 25}

# every subcommand's resolved options; --help reads its defaults from here
_DEFAULTS = {
    "train": {"lm": "ngram", **_NGRAM_DEFAULTS, **_RNN_DEFAULTS, "seed": 0},
    "perplexity": {"sample_n": None, "seed": 0},
    "inject": {"kind": "substitution", "regime": "low", "seed": 0},
    "correct": {"k": None, "param_value": None, **_CORRECTOR_DEFAULTS},
    "tune": {"lm": "ngram", **_NGRAM_DEFAULTS, **_RNN_DEFAULTS, **_K_RANGE,
             "delta": 2, "iter_max": 30, "initials": None, "sample_n": 2000,
             "seed": 0, **_CORRECTOR_DEFAULTS},
    "sweep": {"values": None, **_K_RANGE, "k_step": 2, **_NGRAM_DEFAULTS,
              **_CORRECTOR_DEFAULTS},
}


# every key a config file may hold; "threads" is what --threads was
# recorded as before it was ignored
_KNOWN_KEYS = {key for table in _DEFAULTS.values() for key in table} | {"threads"}


def _check_rnn(cfg: dict) -> None:
    """Exit before any work when a char-RNN size or loop count is below 1."""
    if cfg["lm"] == "charrnn":
        for key in ("layers", "hidden", "epochs", "minibatch", "unroll"):
            _check_min(cfg, key, 1)


# -- subcommands ----------------------------------------------------------


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _resolve(args, _DEFAULTS["train"])
    _check_rnn(cfg)
    reads = load_reads(args.reads)
    stats = SegmentStats()
    model, history = _train_lm(cfg, reads, stats)
    model.save(args.out)
    if cfg["lm"] == "ngram":
        summary = {
            "lm": "ngram",
            "model": args.out,
            "reads": len(reads),
            "short_reads": stats.short_reads,
            "words": model.m_train,
            "skipped_words": stats.skipped_words,
            "vocab_size": model.vocab_size,
        }
    else:
        summary = {
            "lm": "charrnn",
            "model": args.out,
            "reads": len(reads),
            "chars": int(reads.lengths.sum()),
            "epochs": len(history),
            "final_train_loss": history[-1]["train_loss"],
            "best_val_loss": min(h["val_loss"] for h in history),
        }
    _write_config(cfg, args.out + ".config.json")
    _emit(summary)
    _say(f"trained {cfg['lm']} model on {len(reads)} reads -> {args.out}")
    return 0


def cmd_perplexity(args: argparse.Namespace) -> int:
    cfg = _resolve(args, _DEFAULTS["perplexity"])
    _check_min(cfg, "sample_n", 1)
    model = _load_model(args.model)
    reads = load_reads(args.reads)
    if cfg["sample_n"] is not None:
        reads = sample_reads(reads, cfg["sample_n"], cfg["seed"])
    report = model.score_reads(reads)
    _emit(report.to_dict())
    return 0


def cmd_inject(args: argparse.Namespace) -> int:
    cfg = _resolve(args, _DEFAULTS["inject"])
    spec = InjectionSpec(kind=cfg["kind"], regime=cfg["regime"], seed=cfg["seed"])
    reads = load_reads(args.reads)
    corrupted, ledger = inject_readset(reads, spec)
    write_fastq(corrupted, args.out)
    if args.ledger:
        ledger.to_tsv(args.ledger)
    _write_config(cfg, args.out + ".config.json")
    _emit({"reads": len(corrupted), "changes": len(ledger), "out": args.out})
    _say(
        f"injected {cfg['kind']}/{cfg['regime']} errors into {len(corrupted)} reads "
        f"({len(ledger)} changes)"
    )
    return 0


def cmd_correct(args: argparse.Namespace) -> int:
    cfg = _resolve(args, _DEFAULTS["correct"])
    corrector = _make_corrector(cfg)
    if cfg["adapter_template"]:
        value = cfg["param_value"]
        if value is None:
            raise ValueError("--param-value is required with --adapter-template")
    else:
        value = cfg["k"]
        if value is None:
            raise ValueError("--k is required for the built-in corrector")
    reads = load_reads(args.reads)
    _check_k_fits(cfg, reads, (value,))
    corrected = corrector(reads, value)
    write_fastq(corrected, args.out)
    changed = reads.changed_reads(corrected)
    _write_config(cfg, args.out + ".config.json")
    _emit({"reads": len(corrected), "value": value, "changed_reads": changed})
    _say(f"corrected {changed}/{len(corrected)} reads at value {value}")
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    cfg = _resolve(args, _DEFAULTS["tune"])
    space = _search_space(cfg)
    _check_min(cfg, "sample_n", 1)
    _check_rnn(cfg)
    corrector = _make_corrector(cfg)
    reads = load_reads(args.reads)
    _check_k_fits(cfg, reads, (cfg["k_min"], cfg["k_max"]))
    _say(f"training {cfg['lm']} model on {len(reads)} reads")
    lm, _ = _train_lm(cfg, reads)
    os.makedirs(args.out_dir, exist_ok=True)
    _say(
        f"searching [{space.lower}, {space.upper}] step {space.step} "
        f"from {space.start_points()}"
    )
    result = tuner.tune(
        reads,
        lm,
        corrector,
        space,
        sample_n=cfg["sample_n"],
        seed=cfg["seed"],
    )
    corrected_path = os.path.join(args.out_dir, "corrected.fastq")
    write_fastq(result.corrected, corrected_path)
    search_payload = {
        "best_value": result.best_value,
        "evaluations": result.evaluations,
        "searches": [s.to_dict() for s in result.searches],
    }
    with open(os.path.join(args.out_dir, "search.json"), "w") as fh:
        fh.write(json.dumps(search_payload, sort_keys=True, indent=2) + "\n")
    _write_config(cfg, os.path.join(args.out_dir, "config.json"))
    _emit(
        {
            "best_value": result.best_value,
            "evaluations": result.evaluations,
            "terminations": [s.termination for s in result.searches],
            "corrected": corrected_path,
        }
    )
    _say(f"best value {result.best_value} after {result.evaluations} evaluations")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    # a model file fixes its own n-gram settings, so none are resolved, and
    # a flag setting one would be ignored
    defaults = _DEFAULTS["sweep"]
    if args.model:
        defaults = {k: v for k, v in defaults.items() if k not in _NGRAM_DEFAULTS}
        for key in _NGRAM_DEFAULTS:
            if getattr(args, key) is not None:
                flag = "--" + key.replace("_", "-")
                raise ValueError(f"{flag} is fixed by the --model file")
    cfg = _resolve(args, defaults)
    values = _int_list(cfg["values"])
    if values is None:
        _check_min(cfg, "k_step", 1)
        _check_min(cfg, "k_max", cfg["k_min"])
        values = range(cfg["k_min"], cfg["k_max"] + 1, cfg["k_step"])
    if not values:
        raise ValueError("--values lists no parameter values")
    corrector = _make_corrector(cfg)
    reads = load_reads(args.reads)
    truth = load_reads(args.truth) if args.truth else None
    _check_k_fits(cfg, reads, values)
    ngram_lm = None
    rnn_lm = None
    if args.model:
        model = _load_model(args.model)
        if isinstance(model, ngram.NgramModel):
            ngram_lm = model
        else:
            rnn_lm = model
    else:
        _say(f"training n-gram model on {len(reads)} reads")
        ngram_lm, _ = _train_lm(cfg, reads)
    if args.rnn_model:
        rnn_lm = charrnn.RnnLm.load(args.rnn_model)
    failure = None
    try:
        report = metrics.sweep(
            reads,
            corrector,
            values,
            ngram_lm=ngram_lm,
            rnn_lm=rnn_lm,
            truth=truth,
        )
    except metrics.CorrelationError as exc:
        # keep every evaluated row; the run still fails below
        report, failure = exc.report, exc
    sys.stdout.write(report.to_tsv())
    if args.tsv_out:
        with open(args.tsv_out, "w") as fh:
            fh.write(report.to_tsv())
        _write_config(cfg, args.tsv_out + ".config.json")
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(report.to_json())
        if not args.tsv_out:
            _write_config(cfg, args.json_out + ".config.json")
    for key, r in sorted(report.correlations.items()):
        _say(f"correlation {key}: {r:+.4f}")
    if failure is not None:
        raise failure
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    original = load_reads(args.original)
    corrected = load_reads(args.corrected)
    truth = load_reads(args.truth)
    gain = ecsim.ec_gain(original, corrected, truth)
    _emit({"gain": gain})
    return 0


# -- parser ---------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with default option values")
    p.add_argument("--seed", type=int, help="PRNG seed")
    p.add_argument("--threads", type=int, help="ignored; kept so old command lines run")


def _add_corrector_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--solid-min", type=int, dest="solid_min",
                   help="solid k-mer count threshold")
    p.add_argument("--max-edits", type=int, dest="max_edits",
                   help="edit budget per read")
    p.add_argument("--adapter-template", dest="adapter_template",
                   help="external tool command with {input} {output} and {k} or {GL}")
    p.add_argument("--adapter-param", dest="adapter_param", choices=("k", "GL"),
                   help="which placeholder the tool takes")
    p.add_argument("--timeout", type=float, help="external tool timeout in seconds")


def _add_ngram_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--word-len", type=int, dest="word_len",
                   help="segment word length")
    p.add_argument("--history", type=int, help="words of history")
    p.add_argument("--p-floor", type=float, dest="p_floor",
                   help="probability floor")


def _add_rnn_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--layers", type=int, help="recurrent layers")
    p.add_argument("--hidden", type=int, help="neurons per layer")
    p.add_argument("--epochs", type=int, help="training epochs")
    p.add_argument("--minibatch", type=int, help="reads per batch")
    p.add_argument("--learning-rate", type=float, dest="learning_rate",
                   help="SGD learning rate")
    p.add_argument("--unroll", type=int, help="BPTT unroll length")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ectuner",
        description="Tune error-correction parameters with read language models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a language model on reads")
    p.add_argument("--reads", required=True)
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--lm", choices=("ngram", "charrnn"), help="language model")
    _add_ngram_flags(p)
    _add_rnn_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("perplexity", help="score reads with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--reads", required=True)
    p.add_argument("--sample-n", type=int, dest="sample_n",
                   help="score a uniform sample of this many reads")
    _add_common(p)
    p.set_defaults(func=cmd_perplexity)

    p = sub.add_parser("inject", help="corrupt reads with synthetic errors")
    p.add_argument("--reads", required=True)
    p.add_argument("--out", required=True, help="corrupted FASTQ to write")
    p.add_argument("--ledger", help="TSV ledger of applied changes")
    p.add_argument("--kind", help="error kind",
                   choices=("deletion", "insertion", "substitution", "mixture"))
    p.add_argument("--regime", choices=("low", "high"), help="error rate regime")
    _add_common(p)
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser("correct", help="run the built-in or an external corrector")
    p.add_argument("--reads", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, help="k-mer size for the built-in corrector")
    p.add_argument("--param-value", type=int, dest="param_value",
                   help="tunable value passed to an external tool")
    _add_corrector_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_correct)

    p = sub.add_parser("tune", help="search for the best correction parameter")
    p.add_argument("--reads", required=True)
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.add_argument("--lm", choices=("ngram", "charrnn"), help="language model")
    p.add_argument("--k-min", type=int, dest="k_min", help="smallest value")
    p.add_argument("--k-max", type=int, dest="k_max", help="largest value")
    p.add_argument("--delta", type=int, help="neighbor step size")
    p.add_argument("--iter-max", type=int, dest="iter_max",
                   help="move budget per restart")
    p.add_argument("--initials", help="comma-separated starting values")
    p.add_argument("--sample-n", type=int, dest="sample_n",
                   help="search sample size")
    _add_ngram_flags(p)
    _add_rnn_flags(p)
    _add_corrector_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("sweep", help="evaluate a range of parameter values")
    p.add_argument("--reads", required=True)
    p.add_argument("--truth", help="clean reads for gain computation")
    p.add_argument("--model", help="trained model file (default: train n-gram)")
    p.add_argument("--rnn-model", dest="rnn_model",
                   help="additional RNN model to score with")
    p.add_argument("--values", help="comma-separated parameter values")
    p.add_argument("--k-min", type=int, dest="k_min", help="smallest grid value")
    p.add_argument("--k-max", type=int, dest="k_max", help="largest grid value")
    p.add_argument("--k-step", type=int, dest="k_step", help="grid step")
    p.add_argument("--tsv-out", dest="tsv_out")
    p.add_argument("--json-out", dest="json_out")
    _add_ngram_flags(p)
    _add_corrector_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("eval", help="per-base correction gain against truth")
    p.add_argument("--original", required=True, help="uncorrected reads")
    p.add_argument("--corrected", required=True)
    p.add_argument("--truth", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    for name, p in sub.choices.items():
        for action in p._actions:
            default = _DEFAULTS.get(name, {}).get(action.dest)
            if default is not None:
                action.help = f"{action.help} (default {default})"
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        name = getattr(exc, "filename", None) or exc
        print(f"ectuner: input not found: {name}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"ectuner: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
