"""Command-line interface.

Subcommands cover the whole pipeline: train, perplexity, inject, correct,
tune, sweep, eval.  Machine-readable results (JSON or TSV) go to stdout,
human progress notes to stderr.  Option values resolve as explicit flags
first, then entries from --config (a JSON object keyed by the flag's long
name with underscores), then built-in defaults.  ``main`` resolves them, and
checks --config and each value against the range declared beside its flag,
for every subcommand, eval included, before any read loads; every
file-producing command writes the fully-resolved configuration next to its
output.

Exit codes: 0 success, 1 runtime failure (an unreadable path included), 2
usage errors or missing inputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Callable, NamedTuple

from . import charrnn, ecsim, metrics, ngram, tuner
from .charrnn import TrainConfig
from .injector import InjectionSpec, inject_readset
from .seqio import fasta_named, load_reads, sample_reads, write_fastq


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    return data


def _check_type(path: str, key: str, value, option: Option) -> None:
    """A config file value must have its option's type and be one of its
    choices, if it has any: an int stands for a float, a comma-separated
    list may also be a list of ints (not bools), and null is taken only
    where the default is None."""
    if value is None and option.default is None:
        return
    accepted = {float: (int, float), list: (str, list)}.get(option.type, (option.type,))
    if isinstance(value, bool) or not isinstance(value, accepted):
        names = " or ".join(t.__name__ for t in accepted)
        raise ValueError(f"{path}: {key} must be {names}, got {value!r}")
    if isinstance(value, list) and not all(type(v) is int for v in value):
        raise ValueError(f"{path}: {key} must be a list of int, got {value!r}")
    if option.choices and value not in option.choices:
        names = ", ".join(option.choices)
        raise ValueError(f"{path}: {key} must be one of {names}, got {value!r}")


def _resolve(args: argparse.Namespace, options: dict[str, Option]) -> dict:
    """flags > config file > defaults, for each resolved option in ``options``,
    each value in its option's range (and finite, if a float) even if unused.

    A config file key that no subcommand resolves is refused, so a misspelt
    key cannot silently do nothing; one of another subcommand's keys is
    taken and ignored, so one file can serve several commands.  A --model
    file fixes the n-gram settings: none is resolved, nor set by a flag."""
    path = getattr(args, "config", None)
    file_cfg = _load_config_file(path)
    unknown = sorted(set(file_cfg) - _KNOWN_KEYS)
    if unknown:
        raise ValueError(f"{path}: unknown key {', '.join(unknown)}")
    fixed = _NGRAM_OPTIONS if getattr(args, "model", None) else {}
    resolved = {}
    for key, option in options.items():
        if option.type is None or option.ignored:
            continue
        if key in file_cfg:
            _check_type(path, key, file_cfg[key], option)
        value = getattr(args, key, None)
        if value is not None and key in fixed:
            raise ValueError(f"{_flag(key)} is fixed by the --model file")
        if value is None:
            value = file_cfg.get(key, option.default)
        if value is not None and option.valid and not option.valid[0](value):
            raise ValueError(f"{_flag(key)} must be {option.valid[1]}, got {value}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{_flag(key)} must be finite, got {value}")
        if key not in fixed:
            resolved[key] = value
    return resolved


def _write_json(payload: dict, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


# each model file's magic: the model's class and the sweep column it fills
_MODEL_KINDS = {
    ngram.MAGIC: (ngram.NgramModel, "ngram"),
    charrnn.MAGIC: (charrnn.RnnLm, "rnn"),
}


def _load_model(path: str):
    """The model in the file at ``path``, picked by its magic, and the sweep
    column it fills."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic not in _MODEL_KINDS:
        raise ValueError(f"{path}: not a recognized model file")
    cls, column = _MODEL_KINDS[magic]
    return cls.load(path), column


def _int_list(value) -> tuple[int, ...] | None:
    """Integers from a flag's comma-separated text or a config file's list."""
    if value is None:
        return None
    parts = value.split(",") if isinstance(value, str) else value
    try:
        return tuple(int(part) for part in parts if str(part).strip())
    except ValueError:
        raise ValueError(f"expected comma-separated integers: {value!r}") from None


def _make_corrector(cfg: dict):
    """The corrector ``cfg`` names; the commands build it, and so check its
    template, before loading any read."""
    if cfg["adapter_template"]:
        adapter = ecsim.ToolAdapter(cfg["adapter_template"], timeout=cfg["timeout"])
        return ecsim.adapter_corrector(adapter)
    return ecsim.builtin_corrector(cfg["solid_min"], cfg["max_edits"])


# the files tune writes in its --out-dir besides its resolved config
_TUNE_FILES = ("corrected.fastq", "search.json")


def _config_path(args: argparse.Namespace) -> tuple[str, str] | None:
    """The option whose output the resolved config goes with, and its path:
    in tune's --out-dir, else beside the first output file, if there is one."""
    if getattr(args, "out_dir", None):
        return "out_dir", os.path.join(args.out_dir, "config.json")
    for key in ("out", "tsv_out", "json_out"):
        if getattr(args, key, None):
            return key, getattr(args, key) + ".config.json"
    return None


def _write_config(args: argparse.Namespace, cfg: dict) -> None:
    config = _config_path(args)
    if config:
        _write_json(cfg, config[1])


def _check_outputs(args: argparse.Namespace) -> None:
    """Exit before any work when a file to write (tune's in its ``--out-dir``
    and the resolved config, too) is a directory or lies in a directory that
    does not exist (tune makes its ``--out-dir``), an ``--out-dir`` or the
    nearest of its parents that exists is a file, or a FASTQ ``--out`` has a
    name read back as FASTA."""
    out_dir = getattr(args, "out_dir", None) or ""
    existing = out_dir
    while existing and not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if existing and not os.path.isdir(existing):
        where = "" if existing == out_dir else f"{existing} is "
        raise ValueError(f"--out-dir {out_dir}: {where}not a directory")
    keys = ("out", "ledger", "tsv_out", "json_out")
    written = [(key, getattr(args, key)) for key in keys if getattr(args, key, None)]
    if out_dir:
        written += [("out_dir", os.path.join(out_dir, name)) for name in _TUNE_FILES]
    config = _config_path(args)
    written += [config] if config else []
    for key, path in written:
        if os.path.isdir(path):
            raise ValueError(f"{_flag(key)} {path}: is a directory")
        folder = os.path.dirname(path)
        if key != "out_dir" and folder and not os.path.isdir(folder):
            raise ValueError(f"{_flag(key)} {path}: no directory {folder}")
    if args.command in ("inject", "correct") and fasta_named(args.out):
        raise ValueError(f"--out {args.out}: {args.command} writes FASTQ, "
                         "but a file of this name is read as FASTA")


def _check_k_range(cfg: dict) -> None:
    """Exit before any work when --k-max is below --k-min."""
    if cfg["k_max"] < cfg["k_min"]:
        raise ValueError(f"--k-max must be >= {cfg['k_min']}, got {cfg['k_max']}")


def _search_space(cfg: dict) -> tuner.SearchSpace:
    """The tune search space, each starting value inside the range."""
    _check_k_range(cfg)
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


def _train_lm(cfg: dict, reads, note: bool = True):
    """Train the language model ``cfg`` names (n-gram unless ``lm`` says
    charrnn), with a note first unless ``note`` is false; returns the model
    and the char-RNN's per-epoch history, or None for an n-gram."""
    kind = cfg.get("lm", "ngram")  # one of the option's choices
    if note:
        name = "n-gram" if kind == "ngram" else kind
        _say(f"training {name} model on {len(reads)} reads")
    if kind == "ngram":
        if cfg["word_len"] < 5:
            _say(f"warning: word length {cfg['word_len']} below 5 loses context")
        settings = {key: cfg[key] for key in _NGRAM_OPTIONS}
        return ngram.train_reads(reads, **settings), None
    config = TrainConfig(**{key: cfg[key] for key in _RNN_OPTIONS})
    return charrnn.train(reads, config, seed=cfg["seed"])


class Option(NamedTuple):
    """A subcommand's flag: ``--`` and its key, dashes for underscores.

    ``type`` is int, float, str, list (comma-separated ints) or None for a
    file path.  Any other option that is not ``ignored`` is resolved from
    its flag, its config file key or ``default``, which --help shows.  A
    ranged option's ``valid`` is a test of its value and the text after
    "must be" in the error of a value that fails it; ``main`` checks every
    resolved value against it, before any read loads."""

    type: type | None
    help: str | None = None
    default: object = None
    choices: tuple[str, ...] | None = None
    required: bool = False
    ignored: bool = False
    valid: tuple[Callable[[object], bool], str] | None = None


def _at_least(least: int) -> tuple[Callable[[object], bool], str]:
    return (lambda value: value >= least), f">= {least}"


_LM_OPTION = {"lm": Option(str, "language model", "ngram", ("ngram", "charrnn"))}

_NGRAM_OPTIONS = {
    "word_len": Option(int, "segment word length", ngram.DEFAULT_WORD_LEN,
                       valid=((lambda value: 4 <= value <= 12), "in 4..12")),
    "history": Option(int, "words of history", ngram.DEFAULT_HISTORY,
                      valid=((lambda value: 0 <= value <= 5), "in 0..5")),
    "p_floor": Option(float, "probability floor", ngram.DEFAULT_P_FLOOR,
                      valid=((lambda value: 0 <= value < 1), "in [0, 1)")),
}

_RNN_OPTIONS = {
    "layers": Option(int, "recurrent layers", TrainConfig.layers, valid=_at_least(1)),
    "hidden": Option(int, "neurons per layer", TrainConfig.hidden, valid=_at_least(1)),
    "epochs": Option(int, "training epochs", TrainConfig.epochs, valid=_at_least(1)),
    "minibatch": Option(int, "reads per batch", TrainConfig.minibatch, valid=_at_least(1)),
    "learning_rate": Option(float, "SGD learning rate", TrainConfig.learning_rate,
                            valid=((lambda value: 0 < value < math.inf), "finite and > 0")),
    "unroll": Option(int, "BPTT unroll length", TrainConfig.unroll, valid=_at_least(1)),
}

_CORRECTOR_OPTIONS = {
    "solid_min": Option(int, "solid k-mer count threshold", ecsim.DEFAULT_SOLID_MIN,
                        valid=_at_least(1)),
    "max_edits": Option(int, "edit budget per read", ecsim.DEFAULT_MAX_EDITS,
                        valid=_at_least(0)),
    "adapter_template": Option(
        str, "external tool command with {input} {output} and {k} or {GL}"),
    # the template's own placeholder is the one the tool takes
    "adapter_param": Option(str, "ignored; kept so old command lines run", ignored=True),
    "timeout": Option(float, "external tool timeout in seconds",
                      valid=((lambda value: value > 0), "> 0")),
}


def _common(seeded: bool) -> dict[str, Option]:
    """--config, --seed and --threads; a subcommand that draws no random
    numbers takes --seed and ignores it."""
    return {
        "config": Option(None, "JSON file with default option values"),
        "seed": Option(int, "PRNG seed", 0, ignored=not seeded, valid=_at_least(0)),
        "threads": Option(int, "ignored; kept so old command lines run", ignored=True),
    }


_K_MIN, _K_MAX = 9, 25  # tune's search range and sweep's grid

# every subcommand's flags in --help order
_OPTIONS = {
    "train": {
        "reads": Option(None, required=True),
        "out": Option(None, "model file to write", required=True),
        **_LM_OPTION,
        **_NGRAM_OPTIONS,
        **_RNN_OPTIONS,
        **_common(seeded=True),
    },
    "perplexity": {
        "model": Option(None, required=True),
        "reads": Option(None, required=True),
        "sample_n": Option(int, "score a uniform sample of this many reads",
                           valid=_at_least(1)),
        **_common(seeded=True),
    },
    "inject": {
        "reads": Option(None, required=True),
        "out": Option(None, "corrupted FASTQ to write", required=True),
        "ledger": Option(None, "TSV ledger of applied changes"),
        "kind": Option(str, "error kind", "substitution",
                       ("deletion", "insertion", "substitution", "mixture")),
        "regime": Option(str, "error rate regime", "low", ("low", "high")),
        **_common(seeded=True),
    },
    "correct": {
        "reads": Option(None, required=True),
        "out": Option(None, required=True),
        "k": Option(int, "k-mer size for the built-in corrector"),
        "param_value": Option(int, "tunable value passed to an external tool"),
        **_CORRECTOR_OPTIONS,
        **_common(seeded=False),
    },
    "tune": {
        "reads": Option(None, required=True),
        "out_dir": Option(None, required=True),
        **_LM_OPTION,
        "k_min": Option(int, "smallest value", _K_MIN),
        "k_max": Option(int, "largest value", _K_MAX),
        "delta": Option(int, "neighbor step size", 2, valid=_at_least(1)),
        "iter_max": Option(int, "move budget per restart", 30, valid=_at_least(0)),
        "initials": Option(list, "comma-separated starting values"),
        "sample_n": Option(int, "search sample size", 2000, valid=_at_least(1)),
        **_NGRAM_OPTIONS,
        **_RNN_OPTIONS,
        **_CORRECTOR_OPTIONS,
        **_common(seeded=True),
    },
    "sweep": {
        "reads": Option(None, required=True),
        "truth": Option(None, "clean reads for gain computation"),
        "model": Option(None, "trained model file (default: train n-gram)"),
        "values": Option(list, "comma-separated parameter values"),
        "k_min": Option(int, "smallest grid value", _K_MIN),
        "k_max": Option(int, "largest grid value", _K_MAX),
        "k_step": Option(int, "grid step", 2, valid=_at_least(1)),
        "tsv_out": Option(None),
        "json_out": Option(None),
        **_NGRAM_OPTIONS,
        **_CORRECTOR_OPTIONS,
        **_common(seeded=False),
    },
    "eval": {
        "original": Option(None, "uncorrected reads", required=True),
        "corrected": Option(None, required=True),
        "truth": Option(None, required=True),
        **_common(seeded=False),
    },
}


# every key a config file may hold: that of each option not a file path;
# "threads" and "adapter_param" are what --threads and --adapter-param were
# recorded as before they were ignored
_KNOWN_KEYS = {key for options in _OPTIONS.values()
               for key, option in options.items() if option.type is not None}


# -- subcommands ----------------------------------------------------------


def cmd_train(args: argparse.Namespace, cfg: dict) -> int:
    reads = load_reads(args.reads)
    # the note after the model is saved reports this training
    model, history = _train_lm(cfg, reads, note=False)
    model.save(args.out)
    summary = {"lm": cfg["lm"], "model": args.out, "reads": len(reads)}
    if cfg["lm"] == "ngram":
        # a read shorter than a word has none; each word not trained on held an N
        n_words = reads.lengths // cfg["word_len"]
        summary |= {
            "short_reads": int((n_words == 0).sum()),
            "words": model.m_train,
            "skipped_words": int(n_words.sum()) - model.m_train,
            "vocab_size": model.vocab_size,
        }
    else:
        summary |= {
            "chars": int(reads.lengths.sum()),
            "epochs": len(history),
            "final_train_loss": history[-1]["train_loss"],
            "best_val_loss": min(h["val_loss"] for h in history),
        }
    _write_config(args, cfg)
    _emit(summary)
    _say(f"trained {cfg['lm']} model on {len(reads)} reads -> {args.out}")
    return 0


def cmd_perplexity(args: argparse.Namespace, cfg: dict) -> int:
    model, _ = _load_model(args.model)
    reads = load_reads(args.reads)
    if cfg["sample_n"] is not None:
        reads = sample_reads(reads, cfg["sample_n"], cfg["seed"])
    report = model.score_reads(reads)
    _emit(report.to_dict())
    return 0


def cmd_inject(args: argparse.Namespace, cfg: dict) -> int:
    spec = InjectionSpec(kind=cfg["kind"], regime=cfg["regime"], seed=cfg["seed"])
    reads = load_reads(args.reads)
    corrupted, ledger = inject_readset(reads, spec)
    write_fastq(corrupted, args.out)
    if args.ledger:
        ledger.to_tsv(args.ledger)
    _write_config(args, cfg)
    _emit({"reads": len(corrupted), "changes": len(ledger), "out": args.out})
    _say(
        f"injected {cfg['kind']}/{cfg['regime']} errors into {len(corrupted)} reads "
        f"({len(ledger)} changes)"
    )
    return 0


def cmd_correct(args: argparse.Namespace, cfg: dict) -> int:
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
    _write_config(args, cfg)
    _emit({"reads": len(corrected), "value": value, "changed_reads": changed})
    _say(f"corrected {changed}/{len(corrected)} reads at value {value}")
    return 0


def cmd_tune(args: argparse.Namespace, cfg: dict) -> int:
    space = _search_space(cfg)
    corrector = _make_corrector(cfg)
    reads = load_reads(args.reads)
    _check_k_fits(cfg, reads, (cfg["k_min"], cfg["k_max"]))

    def train(dataset):
        # a run whose training fails leaves no --out-dir behind
        model, _ = _train_lm(cfg, dataset)
        os.makedirs(args.out_dir, exist_ok=True)
        _say(f"searching [{space.lower}, {space.upper}] step {space.step} "
             f"from {space.start_points()}")
        return model

    result = tuner.tune(reads, train, corrector, space, cfg["sample_n"], cfg["seed"])
    corrected_path, search_path = (os.path.join(args.out_dir, name) for name in _TUNE_FILES)
    write_fastq(result.corrected, corrected_path)
    _write_json(result.to_dict(), search_path)
    _write_config(args, cfg)
    _emit({"best_value": result.best_value, "evaluations": result.evaluations,
           "terminations": [s.termination for s in result.searches],
           "corrected": corrected_path})
    _say(f"best value {result.best_value} after {result.evaluations} evaluations")
    return 0


def cmd_sweep(args: argparse.Namespace, cfg: dict) -> int:
    values = _int_list(cfg["values"])
    if values is None:
        _check_k_range(cfg)
        values = range(cfg["k_min"], cfg["k_max"] + 1, cfg["k_step"])
    if not values:
        raise ValueError("--values lists no parameter values")
    corrector = _make_corrector(cfg)
    # the --model file fills the column of its kind, else a trained n-gram
    model, kind = _load_model(args.model) if args.model else (None, "ngram")
    reads = load_reads(args.reads)
    truth = load_reads(args.truth) if args.truth else None
    if truth is not None:
        # the gain of no correction fails, before any work, as every k's would
        ecsim.ec_gain(reads, reads, truth)
    _check_k_fits(cfg, reads, values)
    if model is None:
        model, _ = _train_lm(cfg, reads)
    report = metrics.sweep(reads, corrector, values, model, kind, truth=truth)
    sys.stdout.write(report.to_tsv())
    if args.tsv_out:
        with open(args.tsv_out, "w") as fh:
            fh.write(report.to_tsv())
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(report.to_json())
    _write_config(args, cfg)
    for key, r in sorted(report.correlations.items()):
        _say(f"correlation {key}: {r:+.4f}")
    if report.failure is not None:
        raise report.failure
    return 0


def cmd_eval(args: argparse.Namespace, cfg: dict) -> int:
    original = load_reads(args.original)
    corrected = load_reads(args.corrected)
    truth = load_reads(args.truth)
    gain = ecsim.ec_gain(original, corrected, truth)
    _emit({"gain": gain})
    return 0


# -- parser ---------------------------------------------------------------


_COMMANDS = {
    "train": (cmd_train, "train a language model on reads"),
    "perplexity": (cmd_perplexity, "score reads with a trained model"),
    "inject": (cmd_inject, "corrupt reads with synthetic errors"),
    "correct": (cmd_correct, "run the built-in or an external corrector"),
    "tune": (cmd_tune, "search for the best correction parameter"),
    "sweep": (cmd_sweep, "evaluate a range of parameter values"),
    "eval": (cmd_eval, "per-base correction gain against truth"),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand.  Given a ``command``, only that
    subcommand gets its options: parsing its argv needs no other, and
    building every subcommand's options takes longer than some commands."""
    parser = argparse.ArgumentParser(
        prog="ectuner",
        description="Tune error-correction parameters with read language models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, summary) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        if command not in (None, name):
            continue
        for key, option in _OPTIONS[name].items():
            text = option.help
            if option.default is not None and not option.ignored:
                text = f"{text} (default {option.default})"
            p.add_argument(_flag(key), dest=key,
                           type=option.type if option.type in (int, float) else None,
                           choices=option.choices, required=option.required, help=text)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the top-level parser has no option of its own, so a command comes first
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        _check_outputs(args)
        return args.func(args, _resolve(args, _OPTIONS[args.command]))
    except FileNotFoundError as exc:
        name = getattr(exc, "filename", None) or exc
        print(f"ectuner: input not found: {name}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"ectuner: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
