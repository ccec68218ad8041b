"""End-to-end checks of the command-line interface.

Commands run in-process through main() so exit codes and stdout JSON can be
asserted cheaply; one subprocess smoke test covers the module entry point.
"""

from __future__ import annotations

import gc
import gzip
import json
import math
import os
import re
import subprocess
import sys
import weakref

import pytest

import ectuner
from ectuner import charrnn, ecsim, ngram
from ectuner.cli import build_parser, main
from ectuner.injector import generate_genome, sample_clean_reads
from ectuner.seqio import Read, load_reads, write_fastq
from injector_oracles import read_ledger


@pytest.fixture(scope="module")
def clean_fastq(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli-data")
    genome = generate_genome(1500, seed=5)
    reads = sample_clean_reads(genome, n=300, read_len=40, seed=6)
    path = str(base / "clean.fastq")
    write_fastq(reads, path)
    return path


def _stdout_json(capsys):
    out = capsys.readouterr().out.strip()
    return json.loads(out.splitlines()[-1])


def test_missing_input_exits_2(tmp_path, capsys):
    rc = main(
        ["perplexity", "--model", str(tmp_path / "no.model"),
         "--reads", str(tmp_path / "no.fastq")]
    )
    assert rc == 2
    assert "input not found" in capsys.readouterr().err


def test_bad_option_value_exits_1(clean_fastq, tmp_path, capsys):
    rc = main(
        ["train", "--reads", clean_fastq, "--out", str(tmp_path / "m.model"),
         "--word-len", "3"]
    )
    assert rc == 1
    assert "--word-len" in capsys.readouterr().err


def test_missing_required_flag_exits_2(clean_fastq):
    with pytest.raises(SystemExit) as exc:
        main(["correct", "--reads", clean_fastq])
    assert exc.value.code == 2


def test_unrecognized_model_file_exits_1(clean_fastq, tmp_path, capsys):
    bogus = tmp_path / "bogus.model"
    bogus.write_bytes(b"XXXX not a model")
    rc = main(["perplexity", "--model", str(bogus), "--reads", clean_fastq])
    assert rc == 1
    assert "not a recognized model file" in capsys.readouterr().err


def test_train_writes_model_and_resolved_config(clean_fastq, tmp_path, capsys):
    out = str(tmp_path / "lm.model")
    rc = main(["train", "--reads", clean_fastq, "--out", out, "--history", "2"])
    assert rc == 0
    summary = _stdout_json(capsys)
    assert summary["lm"] == "ngram"
    assert summary["reads"] == 300
    assert summary["words"] > 0
    with open(out, "rb") as fh:
        assert fh.read(4) == b"ATHN"
    with open(out + ".config.json") as fh:
        cfg = json.load(fh)
    assert cfg["history"] == 2
    assert cfg["word_len"] == 7
    assert cfg["p_floor"] == 1e-7


_SUMMARY_READS = (
    ("long", "ACGTTGCAAGGCTTACCGATAGCTTAGGCAATCGGA"),
    ("short", "ACG"),
    ("six", "ACGTAC"),
    ("gappy", "ACGTANCGTAGGCTTNGCATGCATTTACGGANNTACG"),
    ("all_n", "N" * 24),
    ("repeat", "ACGTACGTAC" * 4),
    ("twelve", "GATTACAGATTA"),
    ("tail_n", "CCGGTTAACCGGTTAN"),
)


@pytest.mark.parametrize(
    "word_len, short_reads, words, skipped_words, vocab_size",
    [(5, 1, 25, 7, 17), (7, 2, 15, 6, 15), (12, 2, 8, 5, 8)],
)
def test_train_summary_counts_short_reads_and_skipped_words(
    tmp_path, capsys, word_len, short_reads, words, skipped_words, vocab_size
):
    # reads shorter than a word, words broken by N, and a read of N only
    reads = str(tmp_path / "reads.fastq")
    write_fastq([Read(rid, seq) for rid, seq in _SUMMARY_READS], reads)
    out = str(tmp_path / "lm.model")
    assert main(["train", "--reads", reads, "--out", out,
                 "--word-len", str(word_len)]) == 0
    summary = _stdout_json(capsys)
    assert summary == {
        "lm": "ngram", "model": out, "reads": len(_SUMMARY_READS),
        "short_reads": short_reads, "words": words,
        "skipped_words": skipped_words, "vocab_size": vocab_size,
    }


def test_flags_beat_config_file_beat_defaults(clean_fastq, tmp_path, capsys):
    cfg_path = tmp_path / "opts.json"
    cfg_path.write_text(json.dumps({"word_len": 5, "history": 1}))
    out = str(tmp_path / "lm.model")
    rc = main(
        ["train", "--reads", clean_fastq, "--out", out,
         "--config", str(cfg_path), "--history", "2"]
    )
    assert rc == 0
    capsys.readouterr()
    with open(out + ".config.json") as fh:
        resolved = json.load(fh)
    assert resolved["word_len"] == 5      # from the config file
    assert resolved["history"] == 2       # flag wins over the file's 1
    assert resolved["p_floor"] == 1e-7    # untouched default


def test_config_file_must_hold_an_object(clean_fastq, tmp_path, capsys):
    cfg_path = tmp_path / "opts.json"
    cfg_path.write_text("[1, 2]")
    rc = main(
        ["train", "--reads", clean_fastq, "--out", str(tmp_path / "m"),
         "--config", str(cfg_path)]
    )
    assert rc == 1
    assert "config must be a JSON object" in capsys.readouterr().err


def test_perplexity_json_is_internally_consistent(clean_fastq, tmp_path, capsys):
    model = str(tmp_path / "lm.model")
    assert main(["train", "--reads", clean_fastq, "--out", model]) == 0
    capsys.readouterr()
    rc = main(["perplexity", "--model", model, "--reads", clean_fastq])
    assert rc == 0
    report = _stdout_json(capsys)
    assert report["scored_words"] > 0
    expected = math.exp(report["sum_neg_log_prob"] / report["scored_words"])
    assert report["avg_perplexity"] == pytest.approx(expected, rel=1e-12)


def test_perplexity_sample_flag_scores_fewer_words(clean_fastq, tmp_path, capsys):
    model = str(tmp_path / "lm.model")
    assert main(["train", "--reads", clean_fastq, "--out", model]) == 0
    capsys.readouterr()
    assert main(["perplexity", "--model", model, "--reads", clean_fastq]) == 0
    full = _stdout_json(capsys)
    assert main(
        ["perplexity", "--model", model, "--reads", clean_fastq,
         "--sample-n", "50", "--seed", "3"]
    ) == 0
    sampled = _stdout_json(capsys)
    assert sampled["scored_words"] < full["scored_words"]


def test_inject_writes_fastq_ledger_and_config(clean_fastq, tmp_path, capsys):
    out = str(tmp_path / "bad.fastq")
    ledger_path = str(tmp_path / "changes.tsv")
    rc = main(
        ["inject", "--reads", clean_fastq, "--out", out,
         "--ledger", ledger_path, "--kind", "substitution",
         "--regime", "low", "--seed", "11"]
    )
    assert rc == 0
    summary = _stdout_json(capsys)
    corrupted = load_reads(out)
    assert len(corrupted) == 300
    ledger = read_ledger(ledger_path)
    assert summary["changes"] == len(ledger)
    assert len(ledger) > 0
    with open(out + ".config.json") as fh:
        cfg = json.load(fh)
    assert cfg["kind"] == "substitution"
    assert cfg["seed"] == 11


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--kind", "deletion", "--regime", "high"],
         r"read 'short' of length 4 is too short for deletion count (6|7|8|9|10)"),
        (["--kind", "insertion", "--regime", "high"],
         r"read 'short' of length 4 is too short for insertion count (6|7|8|9|10)"),
        (["--seed", "-1"], r"--seed must be >= 0, got -1"),
    ],
)
def test_inject_failure_exits_1_and_writes_nothing(tmp_path, capsys, flags, message):
    reads = str(tmp_path / "in.fastq")
    write_fastq(
        [Read("long", "ACGTACGTACGT"), Read("short", "ACGT"), Read("last", "ACGTACGTACGT")],
        reads,
    )
    out = tmp_path / "bad.fastq"
    rc = main(["inject", "--reads", reads, "--out", str(out),
               "--ledger", str(tmp_path / "changes.tsv"), *flags])
    assert rc == 1
    assert re.fullmatch(f"ectuner: {message}\n", capsys.readouterr().err)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.fastq"]


def test_inject_refuses_to_delete_every_base_of_a_read(tmp_path, capsys):
    # seed 0 draws 10 deletions for reads a and c, which would leave them
    # empty: a FASTQ that load_reads refuses
    reads = str(tmp_path / "in.fastq")
    write_fastq([Read(name, "ACGTACGTAC") for name in "abc"], reads)
    rc = main(["inject", "--reads", reads, "--out", str(tmp_path / "bad.fastq"),
               "--kind", "deletion", "--regime", "high", "--seed", "0"])
    assert rc == 1
    message = "ectuner: read 'a' of length 10 is too short for deletion count 10\n"
    assert capsys.readouterr().err == message
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.fastq"]


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("in.fastq", "@r1\nACGT\n+\nIIII\n@  \nACGT\n+\nIIII\n", "line 5: empty read id"),
        ("in.fasta", ">r1\nACGT\n>\t\nACGT\n", "line 3: empty record id"),
    ],
)
def test_blank_read_id_exits_1_and_writes_nothing(tmp_path, capsys, name, text, message):
    (tmp_path / name).write_text(text)
    rc = main(["correct", "--reads", str(tmp_path / name), "--k", "3",
               "--out", str(tmp_path / "fixed.fastq")])
    assert rc == 1
    assert capsys.readouterr().err == f"ectuner: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == [name]


def test_correct_requires_k_for_builtin(clean_fastq, tmp_path, capsys):
    rc = main(["correct", "--reads", clean_fastq, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "--k is required" in capsys.readouterr().err


def test_correct_builtin_round_trip(clean_fastq, tmp_path, capsys):
    corrupted = str(tmp_path / "bad.fastq")
    assert main(
        ["inject", "--reads", clean_fastq, "--out", corrupted,
         "--kind", "substitution", "--regime", "low", "--seed", "11"]
    ) == 0
    capsys.readouterr()
    out = str(tmp_path / "fixed.fastq")
    rc = main(["correct", "--reads", corrupted, "--out", out, "--k", "15"])
    assert rc == 0
    summary = _stdout_json(capsys)
    assert summary["value"] == 15
    assert summary["reads"] == 300
    fixed = load_reads(out)
    assert len(fixed) == 300
    assert all(len(r.sequence) == len(r.quality) for r in fixed)


def test_correct_adapter_needs_param_value(clean_fastq, tmp_path, capsys):
    rc = main(
        ["correct", "--reads", clean_fastq, "--out", str(tmp_path / "o"),
         "--adapter-template", "cp {input} {output} {k}"]
    )
    assert rc == 1
    assert "--param-value" in capsys.readouterr().err


def test_correct_via_external_tool(clean_fastq, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ATHENA_TMPDIR", str(tmp_path))
    script = tmp_path / "tool.py"
    script.write_text(
        "import sys\n"
        "src, dst, k = sys.argv[1], sys.argv[2], int(sys.argv[3])\n"
        "assert k == 21\n"
        "open(dst, 'w').write(open(src).read())\n"
    )
    out = str(tmp_path / "copied.fastq")
    rc = main(
        ["correct", "--reads", clean_fastq, "--out", out,
         "--adapter-template",
         f"{sys.executable} {script} {{input}} {{output}} {{k}}",
         "--param-value", "21"]
    )
    assert rc == 0
    summary = _stdout_json(capsys)
    assert summary["value"] == 21
    assert summary["changed_reads"] == 0
    original = load_reads(clean_fastq)
    copied = load_reads(out)
    assert [r.sequence for r in copied] == [r.sequence for r in original]


def test_sweep_names_the_value_an_external_tool_failed_at(
    clean_fastq, tmp_path, capsys, monkeypatch
):
    monkeypatch.setenv("ATHENA_TMPDIR", str(tmp_path))
    rc = main(["sweep", "--reads", clean_fastq, "--values", "9,11,13",
               "--adapter-template", 'sh -c "test {k} != 11 && cp {input} {output}"'])
    assert rc == 1
    err = capsys.readouterr().err
    (kept,) = [d for d in os.listdir(tmp_path) if d.startswith("ectuner-")]
    assert f"exited with 1 at k=11 (files kept in {tmp_path / kept})" in err


def test_tune_writes_search_trace_and_corrected_reads(tmp_path, capsys):
    genome = generate_genome(2000, seed=21)
    reads = sample_clean_reads(genome, n=600, read_len=40, seed=22)
    clean = str(tmp_path / "clean.fastq")
    write_fastq(reads, clean)
    corrupted = str(tmp_path / "bad.fastq")
    assert main(
        ["inject", "--reads", clean, "--out", corrupted,
         "--kind", "substitution", "--regime", "low", "--seed", "23"]
    ) == 0
    capsys.readouterr()
    out_dir = str(tmp_path / "tuned")
    rc = main(
        ["tune", "--reads", corrupted, "--out-dir", out_dir,
         "--k-min", "9", "--k-max", "13", "--delta", "2",
         "--sample-n", "200", "--seed", "1"]
    )
    assert rc == 0
    summary = _stdout_json(capsys)
    assert 9 <= summary["best_value"] <= 13
    assert summary["evaluations"] >= 1
    assert len(summary["terminations"]) == 1
    corrected = load_reads(os.path.join(out_dir, "corrected.fastq"))
    assert len(corrected) == 600
    with open(os.path.join(out_dir, "search.json")) as fh:
        search = json.load(fh)
    assert search["best_value"] == summary["best_value"]
    assert len(search["searches"]) == 1
    trace = search["searches"][0]["trace"]
    assert all(9 <= value <= 13 for value, _ in trace)
    with open(os.path.join(out_dir, "config.json")) as fh:
        cfg = json.load(fh)
    assert cfg["k_min"] == 9 and cfg["k_max"] == 13 and cfg["delta"] == 2


def test_tune_and_sweep_score_each_value_with_one_objective(tmp_path, capsys):
    # a sample of every read: each perplexity in tune's trace is the one
    # sweep reports for that value
    genome = generate_genome(3000, seed=31)
    clean, noisy = str(tmp_path / "clean.fastq"), str(tmp_path / "noisy.fastq")
    write_fastq(sample_clean_reads(genome, n=1200, read_len=50, seed=32), clean)
    assert main(["inject", "--reads", clean, "--out", noisy,
                 "--kind", "substitution", "--regime", "low", "--seed", "33"]) == 0
    assert main(["tune", "--reads", noisy, "--out-dir", str(tmp_path / "tune"),
                 "--k-min", "9", "--k-max", "17", "--initials", "9,17",
                 "--sample-n", "1200"]) == 0
    with open(tmp_path / "tune" / "search.json") as fh:
        traced = {v: p for s in json.load(fh)["searches"] for v, p in s["trace"]}
    values = ",".join(str(v) for v in sorted(traced))
    assert main(["sweep", "--reads", noisy, "--values", values,
                 "--json-out", str(tmp_path / "sweep.json")]) == 0
    with open(tmp_path / "sweep.json") as fh:
        rows = json.load(fh)["rows"]
    assert {row["value"]: row["perplexity_ngram"] for row in rows} == traced
    assert len(traced) >= 4
    capsys.readouterr()


@pytest.mark.parametrize(
    "k_min, k_max, start, values",
    [("3", "5", 3, {3, 5}), ("9", "23", 15, {9, 11, 13, 15, 17, 19, 21, 23})],
)
def test_tune_starts_on_the_delta_lattice(tmp_path, capsys, k_min, k_max, start, values):
    genome = generate_genome(1200, seed=31)
    reads = sample_clean_reads(genome, n=400, read_len=40, seed=32)
    path = str(tmp_path / "reads.fastq")
    write_fastq(reads, path)
    out_dir = str(tmp_path / "tuned")
    rc = main(
        ["tune", "--reads", path, "--out-dir", out_dir,
         "--k-min", k_min, "--k-max", k_max, "--sample-n", "100"]
    )
    assert rc == 0
    capsys.readouterr()
    with open(os.path.join(out_dir, "search.json")) as fh:
        trace = json.load(fh)["searches"][0]["trace"]
    assert trace[0][0] == start
    assert {value for value, _ in trace} <= values
    if k_max == "5":
        assert {value for value, _ in trace} == values


def test_tune_accepts_explicit_starting_points(tmp_path, capsys):
    genome = generate_genome(1200, seed=31)
    reads = sample_clean_reads(genome, n=400, read_len=40, seed=32)
    path = str(tmp_path / "reads.fastq")
    write_fastq(reads, path)
    out_dir = str(tmp_path / "tuned")
    rc = main(
        ["tune", "--reads", path, "--out-dir", out_dir,
         "--k-min", "9", "--k-max", "13", "--delta", "2",
         "--initials", "9,13", "--sample-n", "100"]
    )
    assert rc == 0
    summary = _stdout_json(capsys)
    assert len(summary["terminations"]) == 2


def test_sweep_prints_tsv_and_writes_reports(clean_fastq, tmp_path, capsys):
    tsv_out = str(tmp_path / "sweep.tsv")
    json_out = str(tmp_path / "sweep.json")
    rc = main(
        ["sweep", "--reads", clean_fastq, "--values", "9,11,13",
         "--tsv-out", tsv_out, "--json-out", json_out]
    )
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0].split("\t")[0] == "value"
    assert len(lines) == 4
    assert [line.split("\t")[0] for line in lines[1:]] == ["9", "11", "13"]
    with open(tsv_out) as fh:
        assert fh.read() == out
    with open(json_out) as fh:
        payload = json.load(fh)
    assert [row["value"] for row in payload["rows"]] == [9, 11, 13]
    assert os.path.exists(tsv_out + ".config.json")


def test_sweep_keeps_rows_when_correlation_is_undefined(clean_fastq, tmp_path, capsys):
    bad = str(tmp_path / "bad.fastq")
    assert main(["inject", "--reads", clean_fastq, "--out", bad, "--seed", "3"]) == 0
    capsys.readouterr()
    tsv_out = str(tmp_path / "sweep.tsv")
    json_out = str(tmp_path / "sweep.json")
    rc = main(
        ["sweep", "--reads", bad, "--truth", clean_fastq, "--values", "9,11",
         "--tsv-out", tsv_out, "--json-out", json_out]
    )
    assert rc == 1
    captured = capsys.readouterr()
    assert "need at least 3 points" in captured.err
    with open(tsv_out) as fh:
        assert fh.read() == captured.out
    assert [line.split("\t")[0] for line in captured.out.splitlines()[1:]] == ["9", "11"]
    with open(json_out) as fh:
        payload = json.load(fh)
    assert [row["value"] for row in payload["rows"]] == [9, 11]
    assert all("gain" in row for row in payload["rows"])
    assert payload["correlations"] == {}
    # the resolved config is written before the failure, beside --tsv-out only
    assert os.path.exists(tsv_out + ".config.json")
    assert not os.path.exists(json_out + ".config.json")


def test_sweep_scores_with_an_rnn_model_file(clean_fastq, tmp_path, capsys):
    bad = str(tmp_path / "bad.fastq")
    assert main(["inject", "--reads", clean_fastq, "--out", bad, "--seed", "3"]) == 0
    rnn = str(tmp_path / "lm.rnn")
    assert main(["train", "--reads", clean_fastq, "--out", rnn, "--lm", "charrnn",
                 "--layers", "1", "--hidden", "4", "--epochs", "1",
                 "--minibatch", "50", "--unroll", "16"]) == 0
    capsys.readouterr()
    json_out = str(tmp_path / "sweep.json")
    rc = main(["sweep", "--reads", bad, "--truth", clean_fastq, "--model", rnn,
               "--values", "9,11,13", "--json-out", json_out])
    assert rc == 0
    captured = capsys.readouterr()
    assert "training n-gram model" not in captured.err
    with open(json_out) as fh:
        payload = json.load(fh)
    for row in payload["rows"]:
        assert set(row) == {"value", "perplexity_rnn", "gain"}
    assert set(payload["correlations"]) == {"rnn_vs_gain"}
    # the RNN column is the --model file's perplexity of each correction
    reads = load_reads(bad)
    model = charrnn.RnnLm.load(rnn)
    for row in payload["rows"]:
        corrected = ecsim.builtin_corrector()(reads, row["value"])
        assert row["perplexity_rnn"] == model.score_reads(corrected).avg_perplexity


@pytest.mark.parametrize(
    "command, flags, flag",
    [
        ("train", ["--out", "{d}/nodir/m.ngram"], "--out"),
        ("correct", ["--k", "9", "--out", "{d}/nodir/c.fastq"], "--out"),
        ("sweep", ["--values", "9,11", "--json-out", "{d}/nodir/s.json"], "--json-out"),
        ("sweep", ["--values", "9,11", "--tsv-out", "{d}/nodir/s.tsv"], "--tsv-out"),
        ("inject", ["--out", "{d}/x.fastq", "--ledger", "{d}/nodir/l.tsv"], "--ledger"),
        ("correct", ["--k", "9", "--out", "{d}/fixed.fa"], "--out"),
        ("inject", ["--out", "{d}/bad.fasta.gz"], "--out"),
    ],
    ids=["train", "correct", "sweep-json", "sweep-tsv", "inject-ledger",
         "correct-fasta", "inject-fasta-gz"],
)
def test_unwritable_output_exits_1_before_any_read_is_loaded(
    clean_fastq, tmp_path, capsys, command, flags, flag
):
    # an output in a missing directory, or a FASTQ output that load_reads
    # would read back as FASTA
    flags = [f.format(d=tmp_path) for f in flags]
    rc = main([command, "--reads", clean_fastq, *flags])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"ectuner: {flag} {tmp_path}")
    assert captured.err.count("\n") == 1  # no note of work before it
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command, flags, message",
    [
        ("tune", ["--out-dir", "{d}/afile"], "--out-dir {d}/afile: not a directory"),
        ("tune", ["--out-dir", "{d}/afile/sub"],
         "--out-dir {d}/afile/sub: {d}/afile is not a directory"),
        ("train", ["--out", "{d}/adir"], "--out {d}/adir: is a directory"),
        ("correct", ["--k", "9", "--out", "{d}/adir"], "--out {d}/adir: is a directory"),
        ("inject", ["--out", "{d}/adir"], "--out {d}/adir: is a directory"),
        ("inject", ["--out", "{d}/x.fastq", "--ledger", "{d}/adir"],
         "--ledger {d}/adir: is a directory"),
        ("sweep", ["--values", "9", "--json-out", "{d}/adir"],
         "--json-out {d}/adir: is a directory"),
        ("sweep", ["--values", "9", "--tsv-out", "{d}/adir"],
         "--tsv-out {d}/adir: is a directory"),
    ],
    ids=["tune-out-dir", "tune-out-dir-below-a-file", "train", "correct", "inject",
         "inject-ledger", "sweep-json", "sweep-tsv"],
)
def test_output_of_the_wrong_kind_exits_1_before_any_read_is_loaded(
    clean_fastq, tmp_path, capsys, command, flags, message
):
    (tmp_path / "afile").write_text("kept\n")
    (tmp_path / "adir").mkdir()
    rc = main([command, "--reads", clean_fastq, *[f.format(d=tmp_path) for f in flags]])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == f"ectuner: {message.format(d=tmp_path)}\n"  # no training note
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "afile"]
    assert list((tmp_path / "adir").iterdir()) == []
    assert (tmp_path / "afile").read_text() == "kept\n"


@pytest.mark.parametrize(
    "command, flags, blocked",
    [
        ("train", ["--out", "{d}/m2"], "--out {d}/m2.config.json"),
        ("inject", ["--out", "{d}/x.fastq"], "--out {d}/x.fastq.config.json"),
        ("correct", ["--k", "9", "--out", "{d}/c.fastq"], "--out {d}/c.fastq.config.json"),
        ("sweep", ["--values", "9", "--tsv-out", "{d}/s.tsv", "--json-out", "{d}/s.json"],
         "--tsv-out {d}/s.tsv.config.json"),
        ("sweep", ["--values", "9", "--json-out", "{d}/s.json"],
         "--json-out {d}/s.json.config.json"),
        ("tune", ["--out-dir", "{d}"], "--out-dir {d}/corrected.fastq"),
        ("tune", ["--out-dir", "{d}"], "--out-dir {d}/search.json"),
        ("tune", ["--out-dir", "{d}"], "--out-dir {d}/config.json"),
    ],
    ids=["train", "inject", "correct", "sweep-tsv", "sweep-json", "tune-corrected",
         "tune-search", "tune-config"],
)
def test_a_file_written_beside_an_output_that_is_a_directory_exits_1_before_any_work(
    clean_fastq, tmp_path, capsys, command, flags, blocked
):
    # the resolved config, or a file of tune's --out-dir, is a directory
    flag, path = blocked.format(d=tmp_path).split(" ")
    os.mkdir(path)
    rc = main([command, "--reads", clean_fastq, *[f.format(d=tmp_path) for f in flags]])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == f"ectuner: {flag} {path}: is a directory\n"  # no training note
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == [os.path.basename(path)]
    assert os.listdir(path) == []


@pytest.mark.parametrize(
    "command, flags",
    [
        ("perplexity", ["--model", "{d}/adir", "--reads", "{reads}"]),
        ("tune", ["--reads", "{d}/adir", "--out-dir", "{d}/tune"]),
    ],
    ids=["perplexity-model", "tune-reads"],
)
def test_an_input_that_is_a_directory_exits_1_with_one_line(
    clean_fastq, tmp_path, capsys, command, flags
):
    (tmp_path / "adir").mkdir()
    rc = main([command, *[f.format(d=tmp_path, reads=clean_fastq) for f in flags]])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == f"ectuner: [Errno 21] Is a directory: '{tmp_path}/adir'\n"
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["adir"]


def test_a_cut_short_gzip_read_file_exits_1_naming_it(clean_fastq, tmp_path, capsys):
    with open(clean_fastq, "rb") as fh:
        blob = gzip.compress(fh.read())
    reads = tmp_path / "cut.fastq.gz"
    reads.write_bytes(blob[: len(blob) // 2])
    rc = main(["tune", "--reads", str(reads), "--out-dir", str(tmp_path / "tune")])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"ectuner: {reads}: broken gzip file: "
        "Compressed file ended before the end-of-stream marker was reached\n"
    )
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["cut.fastq.gz"]


def test_a_read_file_that_is_not_utf8_exits_1_naming_it(tmp_path, capsys):
    reads = tmp_path / "binary.fastq"
    reads.write_bytes(b"@r1\nACGT\n+\nII\xffI\n")
    rc = main(["tune", "--reads", str(reads), "--out-dir", str(tmp_path / "tune")])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == f"ectuner: {reads}: not utf-8 text: invalid start byte\n"
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["binary.fastq"]


@pytest.mark.parametrize(
    "n_truth, message",
    [(50, "read counts differ: original 300, corrected 300, truth 50"),
     (300, "no erroneous bases; gain is undefined")],
    ids=["misaligned", "error-free"],
)
def test_sweep_refuses_a_truth_without_a_gain_before_training(
    clean_fastq, tmp_path, capsys, n_truth, message
):
    truth = tmp_path / "truth.fastq"
    write_fastq(list(load_reads(clean_fastq))[:n_truth], str(truth))
    json_out = tmp_path / "sweep.json"
    rc = main(["sweep", "--reads", clean_fastq, "--truth", str(truth),
               "--values", "9,11", "--json-out", str(json_out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == f"ectuner: {message}\n"
    assert captured.out == ""
    assert not json_out.exists()


def test_tune_and_sweep_write_one_training_note(clean_fastq, tmp_path, capsys):
    note = "training n-gram model on 300 reads\n"
    assert main(["tune", "--reads", clean_fastq, "--out-dir", str(tmp_path / "t"),
                 "--k-min", "9", "--k-max", "11", "--sample-n", "50"]) == 0
    assert capsys.readouterr().err.count(note) == 1
    assert main(["sweep", "--reads", clean_fastq, "--values", "9"]) == 0
    assert capsys.readouterr().err.count(note) == 1


def test_tune_frees_its_model_before_the_full_correction(
    clean_fastq, tmp_path, capsys, monkeypatch
):
    models, alive = [], []
    train_reads, builtin = ngram.train_reads, ecsim.builtin_corrector

    def train(*args, **kwargs):
        model = train_reads(*args, **kwargs)
        models.append(weakref.ref(model))
        return model

    def corrector(*settings):
        correct = builtin(*settings)

        def checked(readset, k):
            if len(readset) == 300:
                gc.collect()
                alive.append(models[0]())
                print("correcting the whole set", file=sys.stderr)
            return correct(readset, k)

        return checked

    monkeypatch.setattr(ngram, "train_reads", train)
    monkeypatch.setattr(ecsim, "builtin_corrector", corrector)
    assert main(["tune", "--reads", clean_fastq, "--out-dir", str(tmp_path / "t"),
                 "--k-min", "9", "--k-max", "11", "--sample-n", "50"]) == 0
    assert alive == [None]
    assert capsys.readouterr().err.splitlines() == [
        "training n-gram model on 300 reads",
        "searching [9, 11] step 2 from (9,)",
        "correcting the whole set",
        "best value 11 after 2 evaluations",
    ]


@pytest.mark.parametrize("given", ["flag", "config"])
def test_adapter_param_is_accepted_and_ignored(
    clean_fastq, tmp_path, capsys, monkeypatch, given
):
    # the template's placeholder is the one the tool takes, whatever the
    # old flag or config key says
    monkeypatch.setenv("ATHENA_TMPDIR", str(tmp_path))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"adapter_param": "GL"}))
    extra = {"flag": ["--adapter-param", "GL"], "config": ["--config", str(cfg_path)]}
    out = str(tmp_path / "copied.fastq")
    rc = main(["correct", "--reads", clean_fastq, "--out", out,
               "--adapter-template", 'sh -c "cp {input} {output} && : {k}"',
               "--param-value", "21", *extra[given]])
    assert rc == 0
    assert _stdout_json(capsys)["value"] == 21
    with open(out + ".config.json") as fh:
        assert "adapter_param" not in json.load(fh)


@pytest.mark.parametrize(
    "command, flags",
    [
        ("correct", ["--k", "41", "--out"]),
        ("tune", ["--k-max", "41", "--out-dir"]),
        ("sweep", ["--values", "9,41", "--json-out"]),
    ],
    ids=["correct", "tune", "sweep"],
)
def test_k_above_every_read_exits_1_before_any_output(
    clean_fastq, tmp_path, capsys, command, flags
):
    out = tmp_path / "out"
    out.mkdir()
    rc = main([command, "--reads", clean_fastq, *flags, str(out / "result")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "k=41" in err and "40 bp" in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "command, flags",
    [
        ("correct", ["--k", "33", "--out"]),
        ("tune", ["--k-max", "33", "--out-dir"]),
        ("sweep", ["--values", "9,33", "--json-out"]),
    ],
    ids=["correct", "tune", "sweep"],
)
def test_k_above_packing_limit_exits_1_before_any_output(
    tmp_path, capsys, command, flags
):
    reads = str(tmp_path / "reads50.fastq")
    genome = generate_genome(1500, seed=7)
    write_fastq(sample_clean_reads(genome, n=300, read_len=50, seed=8), reads)
    out = tmp_path / "out"
    out.mkdir()
    rc = main([command, "--reads", reads, *flags, str(out / "result")])
    assert rc == 1
    captured = capsys.readouterr()
    assert "k=33 exceeds the built-in corrector's limit of 32" in captured.err
    assert captured.out == ""
    assert list(out.iterdir()) == []


_BAD_NGRAM_SETTINGS = pytest.mark.parametrize(
    "bad, message",
    [
        (["--word-len", "13"], "--word-len must be in 4..12, got 13"),
        (["--word-len", "3"], "--word-len must be in 4..12, got 3"),
        (["--history", "7"], "--history must be in 0..5, got 7"),
        (["--p-floor", "2"], "--p-floor must be in [0, 1), got 2.0"),
        (["--p-floor", "nan"], "--p-floor must be in [0, 1), got nan"),
    ],
    ids=["word-len-13", "word-len-3", "history-7", "p-floor-2", "p-floor-nan"],
)
_NGRAM_TRAINING_COMMANDS = pytest.mark.parametrize(
    "command, out_flag",
    [("train", "--out"), ("tune", "--out-dir"), ("sweep", "--json-out")],
    ids=["train", "tune", "sweep"],
)


@_BAD_NGRAM_SETTINGS
@_NGRAM_TRAINING_COMMANDS
def test_ngram_bounds_exit_1_before_any_output(
    clean_fastq, tmp_path, capsys, command, out_flag, bad, message
):
    out = tmp_path / "out"
    out.mkdir()
    rc = main([command, "--reads", clean_fastq, *bad, out_flag, str(out / "result")])
    assert rc == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert list(out.iterdir()) == []


@_BAD_NGRAM_SETTINGS
@_NGRAM_TRAINING_COMMANDS
def test_ngram_bounds_exit_1_before_any_read_is_loaded(
    tmp_path, capsys, command, out_flag, bad, message
):
    out = tmp_path / "out"
    out.mkdir()
    # the reads do not exist, so loading them first would exit 2
    rc = main([command, "--reads", str(tmp_path / "missing.fastq"), *bad,
               out_flag, str(out / "result")])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"ectuner: {message}")
    assert captured.err.count("\n") == 1  # no "training" note before it
    assert captured.out == ""
    assert list(out.iterdir()) == []


def test_ngram_bounds_apply_where_no_ngram_is_trained(clean_fastq, tmp_path, capsys):
    # a char-RNN and a sweep's --model file leave the n-gram settings unused,
    # and they are checked all the same
    out = tmp_path / "out"
    out.mkdir()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"word_len": 13, "history": 7, "p_floor": 2}))
    for argv in (
        ["train", "--reads", clean_fastq, "--out", str(out / "lm.rnn"), "--lm", "charrnn",
         "--epochs", "1", "--hidden", "4", "--word-len", "13"],
        ["sweep", "--reads", clean_fastq, "--model", str(out / "missing.rnn"),
         "--values", "9,11", "--json-out", str(out / "sweep.json"),
         "--config", str(cfg_path)],
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "ectuner: --word-len must be in 4..12, got 13\n"
        assert captured.out == ""
        assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "command, out_flag",
    [("train", "--out"), ("tune", "--out-dir"), ("sweep", "--json-out")],
    ids=["train", "tune", "sweep"],
)
def test_p_floor_from_config_outside_0_1_exits_1_before_any_output(
    clean_fastq, tmp_path, capsys, command, out_flag
):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"p_floor": 1}))
    out = tmp_path / "out"
    out.mkdir()
    rc = main([command, "--reads", clean_fastq, "--config", str(cfg_path),
               out_flag, str(out / "result")])
    assert rc == 1
    captured = capsys.readouterr()
    assert "--p-floor must be in [0, 1), got 1" in captured.err
    assert captured.out == ""
    assert list(out.iterdir()) == []


def test_sweep_config_records_no_seed(clean_fastq, tmp_path, capsys):
    # a sweep draws no random numbers, so --seed is accepted and not recorded
    json_out = str(tmp_path / "sweep.json")
    assert main(["sweep", "--reads", clean_fastq, "--values", "9,11,13",
                 "--json-out", json_out, "--seed", "4"]) == 0
    capsys.readouterr()
    with open(json_out + ".config.json") as fh:
        assert "seed" not in json.load(fh)


def test_sweep_config_under_model_records_no_ngram_settings(
    clean_fastq, tmp_path, capsys
):
    # the model file fixes word length, history and floor; the defaults
    # (word length 7, history 3) were never used
    model = str(tmp_path / "w4h5.ngram")
    assert main(["train", "--reads", clean_fastq, "--out", model,
                 "--word-len", "4", "--history", "5"]) == 0
    json_out = str(tmp_path / "sweep.json")
    assert main(["sweep", "--reads", clean_fastq, "--model", model,
                 "--values", "9,11,13", "--json-out", json_out]) == 0
    capsys.readouterr()
    with open(json_out + ".config.json") as fh:
        cfg = json.load(fh)
    assert not {"word_len", "history", "p_floor"} & set(cfg)
    assert cfg["values"] == "9,11,13"


@pytest.mark.parametrize("flag", ["--word-len", "--history", "--p-floor"])
def test_sweep_under_model_rejects_the_ngram_flags_it_would_ignore(
    clean_fastq, tmp_path, capsys, flag
):
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["sweep", "--reads", clean_fastq, "--values", "9,11",
               "--model", str(out / "missing.ngram"),  # never opened
               "--json-out", str(out / "sweep.json"), flag, "5"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == f"ectuner: {flag} is fixed by the --model file\n"
    assert captured.out == ""
    assert list(out.iterdir()) == []


def test_sweep_under_model_type_checks_the_ngram_keys_of_its_config(
    clean_fastq, tmp_path, capsys
):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"word_len": "x"}))
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["sweep", "--reads", clean_fastq, "--values", "9,11",
               "--model", str(out / "missing.ngram"),  # never opened
               "--json-out", str(out / "sweep.json"), "--config", str(cfg_path)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == f"ectuner: {cfg_path}: word_len must be int, got 'x'\n"
    assert captured.out == ""
    assert list(out.iterdir()) == []


_TOOL = "cp {input} {output} {k}"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--solid-min", "0"], "--solid-min must be >= 1, got 0"),
        (["--max-edits", "-1"], "--max-edits must be >= 0, got -1"),
        (["--adapter-template", "cp {input} {k}"],
         "command template is missing {output}"),
        (["--adapter-template", _TOOL, "--timeout", "0"],
         "--timeout must be > 0, got 0.0"),
        (["--adapter-template", _TOOL, "--timeout", "-1"],
         "--timeout must be > 0, got -1.0"),
    ],
    ids=["solid-min-0", "max-edits-negative", "template-without-output",
         "timeout-0", "timeout-negative"],
)
@pytest.mark.parametrize(
    "command, target",
    [
        ("correct", ["--k", "9", "--param-value", "9", "--out"]),
        ("tune", ["--out-dir"]),
        ("sweep", ["--json-out"]),
    ],
    ids=["correct", "tune", "sweep"],
)
def test_bad_corrector_settings_exit_1_before_any_read_is_loaded(
    tmp_path, capsys, monkeypatch, command, target, flags, message
):
    tool_tmp = tmp_path / "tool-tmp"
    tool_tmp.mkdir()
    monkeypatch.setenv("ATHENA_TMPDIR", str(tool_tmp))
    out = tmp_path / "out"
    out.mkdir()
    # the reads do not exist, so loading them first would exit 2
    rc = main([command, "--reads", str(tmp_path / "missing.fastq"), *flags,
               *target, str(out / "result")])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == f"ectuner: {message}\n"
    assert "training" not in captured.err
    assert captured.out == ""
    assert list(out.iterdir()) == []
    assert list(tool_tmp.iterdir()) == []


@pytest.mark.parametrize(
    "command, flags, message",
    [
        ("perplexity", ["--sample-n", "-3"], "--sample-n must be >= 1, got -3"),
        ("perplexity", ["--sample-n", "0"], "--sample-n must be >= 1, got 0"),
        ("tune", ["--sample-n", "0"], "--sample-n must be >= 1, got 0"),
        ("tune", ["--sample-n", "-3"], "--sample-n must be >= 1, got -3"),
        ("tune", ["--k-min", "25", "--k-max", "9"], "--k-max must be >= 25, got 9"),
        ("tune", ["--delta", "0"], "--delta must be >= 1, got 0"),
        ("tune", ["--iter-max", "-1"], "--iter-max must be >= 0, got -1"),
        ("tune", ["--initials", "5"], "--initials 5 is outside --k-min..--k-max"),
        ("tune", ["--initials", "9,x"], "expected comma-separated integers"),
        ("sweep", ["--k-step", "0"], "--k-step must be >= 1, got 0"),
        ("sweep", ["--k-min", "25", "--k-max", "9"], "--k-max must be >= 25, got 9"),
        ("sweep", ["--values", ","], "--values lists no parameter values"),
        ("tune", ["--k-min", "0"], "k must be positive, got 0"),
        ("sweep", ["--values", "0,9,11"], "k must be positive, got 0"),
    ],
    ids=[
        "perplexity-sample-n-negative", "perplexity-sample-n-0",
        "tune-sample-n-0", "tune-sample-n-negative", "tune-k-range", "tune-delta-0",
        "tune-iter-max-negative", "tune-initials-outside", "tune-initials-not-int",
        "sweep-k-step-0", "sweep-k-range", "sweep-no-values", "tune-k-min-0",
        "sweep-value-0",
    ],
)
def test_bad_search_settings_exit_1_before_any_work(
    clean_fastq, tmp_path, capsys, command, flags, message
):
    out = tmp_path / "out"
    out.mkdir()
    if command == "perplexity":
        target = ["--model", str(out / "missing.model")]  # never opened
    else:
        out_flag = "--out-dir" if command == "tune" else "--json-out"
        target = [out_flag, str(out / "result")]
    rc = main([command, "--reads", clean_fastq, *flags, *target])
    assert rc == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert "training" not in captured.err
    assert captured.out == ""
    assert list(out.iterdir()) == []


def _refuse_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def test_every_resolved_config_is_strict_json(clean_fastq, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    runs = [
        (["train", "--out", str(out / "lm.ngram")], out / "lm.ngram.config.json"),
        (["inject", "--out", str(out / "bad.fastq")], out / "bad.fastq.config.json"),
        (["correct", "--k", "9", "--out", str(out / "fixed.fastq")],
         out / "fixed.fastq.config.json"),
        (["tune", "--out-dir", str(out / "tune"), "--k-min", "9", "--k-max", "11",
          "--sample-n", "50"], out / "tune" / "config.json"),
        (["sweep", "--values", "9", "--json-out", str(out / "sweep.json")],
         out / "sweep.json.config.json"),
    ]
    for argv, config in runs:
        assert main([argv[0], "--reads", clean_fastq, *argv[1:]]) == 0
        cfg = json.loads(config.read_text(), parse_constant=_refuse_constant)
        assert cfg and isinstance(cfg, dict)
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, flags, message",
    [
        ("tune", ["--learning-rate", "nan"],
         "--learning-rate must be finite and > 0, got nan"),
        ("correct", ["--adapter-template", _TOOL, "--param-value", "9", "--timeout", "inf"],
         "--timeout must be finite, got inf"),
        ("correct", ["--adapter-template", _TOOL, "--param-value", "9", "--timeout", "nan"],
         "--timeout must be > 0, got nan"),
        ("correct", ["--k", "9", "--timeout", "0"], "--timeout must be > 0, got 0.0"),
        ("sweep", ["--values", "9,11", "--k-step", "0"], "--k-step must be >= 1, got 0"),
        ("tune", ["--lm", "charrnn", "--p-floor", "1"], "--p-floor must be in [0, 1), got 1.0"),
        ("train", ["--hidden", "0"], "--hidden must be >= 1, got 0"),
    ],
    ids=["tune-ngram-learning-rate-nan", "correct-timeout-inf", "correct-timeout-nan",
         "correct-builtin-timeout-0", "sweep-values-k-step-0", "tune-charrnn-p-floor",
         "train-ngram-hidden-0"],
)
def test_every_value_is_range_checked_before_any_read_is_loaded(
    tmp_path, capsys, command, flags, message
):
    # whether or not the run uses the option; nothing non-finite is written
    out = tmp_path / "out"
    out.mkdir()
    target = {"tune": ["--out-dir", str(out / "tune")],
              "sweep": ["--json-out", str(out / "sweep.json")]}.get(
                  command, ["--out", str(out / "result")])
    # the reads do not exist, so loading them first would exit 2
    rc = main([command, "--reads", str(tmp_path / "missing.fastq"), *flags, *target])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == f"ectuner: {message}\n"
    assert captured.out == ""
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_a_non_finite_config_value_exits_1_before_any_read_is_loaded(
    tmp_path, capsys, value
):
    # json.dumps writes Infinity and NaN, which json.load reads back
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"timeout": value}))
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["correct", "--reads", str(tmp_path / "missing.fastq"), "--k", "9",
               "--out", str(out / "fixed.fastq"), "--config", str(cfg_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("ectuner: --timeout must be ")
    assert err.endswith(f", got {value}\n")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "command, values, message",
    [
        ("perplexity", {"sample_n": "50"}, "sample_n must be int, got '50'"),
        ("train", {"history": 2.5}, "history must be int, got 2.5"),
        ("train", {"seed": True}, "seed must be int, got True"),
        ("train", {"word_len": None}, "word_len must be int, got None"),
        ("train", {"p_floor": "0"}, "p_floor must be int or float, got '0'"),
        ("tune", {"timeout": "5"}, "timeout must be int or float, got '5'"),
        ("sweep", {"values": 9}, "values must be str or list, got 9"),
        ("sweep", {"values": [9.5, 11.9, 13]},
         "values must be a list of int, got [9.5, 11.9, 13]"),
        ("sweep", {"values": [True, 11, 13]},
         "values must be a list of int, got [True, 11, 13]"),
        ("sweep", {"values": ["9", 11]}, "values must be a list of int, got ['9', 11]"),
        ("tune", {"initials": [17.7]}, "initials must be a list of int, got [17.7]"),
        ("inject", {"kind": 1}, "kind must be str, got 1"),
    ],
    ids=["sample-n-str", "history-float", "seed-bool", "word-len-null",
         "p-floor-str", "timeout-str", "values-int", "values-floats",
         "values-bool", "values-str-element", "initials-float", "kind-int"],
)
def test_config_values_are_type_checked_before_any_work(
    clean_fastq, tmp_path, capsys, command, values, message
):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(values))
    out = tmp_path / "out"
    out.mkdir()
    target = {"perplexity": ["--model", str(out / "missing.model")],
              "tune": ["--out-dir", str(out / "tune")],
              "sweep": ["--json-out", str(out / "sweep.json")]}.get(
                  command, ["--out", str(out / "result")])
    rc = main([command, "--reads", clean_fastq, *target, "--config", str(cfg_path)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("ectuner: ")
    assert message in captured.err
    assert captured.out == ""
    assert list(out.iterdir()) == []


def test_config_takes_an_int_for_a_float_and_null_for_a_none_default(
    clean_fastq, tmp_path, capsys
):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"p_floor": 0, "sample_n": None}))
    model = str(tmp_path / "lm.model")
    assert main(["train", "--reads", clean_fastq, "--out", model,
                 "--config", str(cfg_path)]) == 0
    with open(model + ".config.json") as fh:
        assert json.load(fh)["p_floor"] == 0
    capsys.readouterr()
    assert main(["perplexity", "--model", model, "--reads", clean_fastq,
                 "--config", str(cfg_path)]) == 0
    assert _stdout_json(capsys)["scored_words"] > 0


@pytest.mark.parametrize("command", ["train", "tune"])
@pytest.mark.parametrize("flag", ["--layers", "--hidden", "--epochs", "--minibatch",
                                  "--unroll"])
def test_charrnn_settings_below_1_exit_1_before_any_read_is_loaded(
    tmp_path, capsys, command, flag
):
    out = tmp_path / "out"
    out.mkdir()
    target = ["--out-dir", str(out / "tune")] if command == "tune" else [
        "--out", str(out / "lm.rnn")]
    # the reads do not exist, so loading them first would exit 2
    rc = main([command, "--reads", str(tmp_path / "missing.fastq"), *target,
               "--lm", "charrnn", flag, "0"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == f"ectuner: {flag} must be >= 1, got 0\n"
    assert captured.out == ""
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["train", "tune"])
@pytest.mark.parametrize("rate", ["nan", "inf", "0", "-1"])
def test_learning_rate_not_finite_and_positive_exits_1_before_any_read_is_loaded(
    tmp_path, capsys, command, rate
):
    out = tmp_path / "out"
    out.mkdir()
    target = ["--out-dir", str(out / "tune")] if command == "tune" else [
        "--out", str(out / "lm.rnn")]
    # the reads do not exist, so loading them first would exit 2
    rc = main([command, "--reads", str(tmp_path / "missing.fastq"), *target,
               "--lm", "charrnn", "--learning-rate", rate])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"ectuner: --learning-rate must be finite and > 0, got {float(rate)}\n"
    )
    assert captured.out == ""
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["train", "perplexity", "inject", "tune"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_seed_exits_1_before_any_read_is_loaded(tmp_path, capsys, command, source):
    out = tmp_path / "out"
    out.mkdir()
    target = {
        "train": ["--out", str(out / "lm.model")],
        "perplexity": ["--model", str(out / "lm.model"), "--sample-n", "5"],
        "inject": ["--out", str(out / "bad.fastq")],
        "tune": ["--out-dir", str(out / "tune")],
    }[command]
    if source == "flag":
        seed = ["--seed", "-1"]
    else:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": -1}))
        seed = ["--config", str(cfg_path)]
    # the reads do not exist, so loading them first would exit 2
    rc = main([command, "--reads", str(tmp_path / "missing.fastq"), *target, *seed])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == "ectuner: --seed must be >= 0, got -1\n"
    assert captured.out == ""
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["train", "tune"])
def test_config_value_outside_choices_exits_1_before_any_read_is_loaded(
    tmp_path, capsys, command
):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"lm": "foo"}))
    out = tmp_path / "out"
    out.mkdir()
    target = ["--out-dir", str(out / "tune")] if command == "tune" else [
        "--out", str(out / "lm.model")]
    # the reads do not exist, so loading them first would exit 2
    rc = main([command, "--reads", str(tmp_path / "missing.fastq"), *target,
               "--config", str(cfg_path)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"ectuner: {cfg_path}: lm must be one of ngram, charrnn, got 'foo'\n"
    )
    assert "training" not in captured.err
    assert captured.out == ""
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["train", "perplexity"])
def test_config_key_no_subcommand_knows_exits_1(clean_fastq, tmp_path, capsys, command):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"sampel_n": 50, "seed": 1, "hiden": 8}))
    out = tmp_path / "out"
    out.mkdir()
    target = ["--model", str(out / "missing.model")] if command == "perplexity" else [
        "--out", str(out / "lm.model")]
    rc = main([command, "--reads", clean_fastq, *target, "--config", str(cfg_path)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == f"ectuner: {cfg_path}: unknown key hiden, sampel_n\n"
    assert captured.out == ""
    assert list(out.iterdir()) == []


def test_config_takes_another_commands_keys_and_old_threads(clean_fastq, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"threads": 4, "k_min": 11, "kind": "deletion"}))
    model = str(tmp_path / "lm.model")
    assert main(["train", "--reads", clean_fastq, "--out", model,
                 "--config", str(cfg_path)]) == 0
    with open(model + ".config.json") as fh:
        resolved = json.load(fh)
    assert not {"threads", "k_min", "kind"} & set(resolved)


# each subcommand in order, its summary and, for each flag after -h: option
# strings, dest, type, choices, required and the help --help shows
_PARSER_STRUCTURE = [
    ("train", "train a language model on reads", [
        (("--reads",), "reads", None, None, True, None),
        (("--out",), "out", None, None, True, "model file to write"),
        (("--lm",), "lm", None, ("ngram", "charrnn"), False,
         "language model (default ngram)"),
        (("--word-len",), "word_len", int, None, False,
         "segment word length (default 7)"),
        (("--history",), "history", int, None, False, "words of history (default 3)"),
        (("--p-floor",), "p_floor", float, None, False,
         "probability floor (default 1e-07)"),
        (("--layers",), "layers", int, None, False, "recurrent layers (default 2)"),
        (("--hidden",), "hidden", int, None, False, "neurons per layer (default 32)"),
        (("--epochs",), "epochs", int, None, False, "training epochs (default 10)"),
        (("--minibatch",), "minibatch", int, None, False,
         "reads per batch (default 200)"),
        (("--learning-rate",), "learning_rate", float, None, False,
         "SGD learning rate (default 0.002)"),
        (("--unroll",), "unroll", int, None, False, "BPTT unroll length (default 50)"),
        (("--config",), "config", None, None, False,
         "JSON file with default option values"),
        (("--seed",), "seed", int, None, False, "PRNG seed (default 0)"),
        (("--threads",), "threads", int, None, False,
         "ignored; kept so old command lines run"),
    ]),
    ("perplexity", "score reads with a trained model", [
        (("--model",), "model", None, None, True, None),
        (("--reads",), "reads", None, None, True, None),
        (("--sample-n",), "sample_n", int, None, False,
         "score a uniform sample of this many reads"),
        (("--config",), "config", None, None, False,
         "JSON file with default option values"),
        (("--seed",), "seed", int, None, False, "PRNG seed (default 0)"),
        (("--threads",), "threads", int, None, False,
         "ignored; kept so old command lines run"),
    ]),
    ("inject", "corrupt reads with synthetic errors", [
        (("--reads",), "reads", None, None, True, None),
        (("--out",), "out", None, None, True, "corrupted FASTQ to write"),
        (("--ledger",), "ledger", None, None, False, "TSV ledger of applied changes"),
        (("--kind",), "kind", None,
         ("deletion", "insertion", "substitution", "mixture"), False,
         "error kind (default substitution)"),
        (("--regime",), "regime", None, ("low", "high"), False,
         "error rate regime (default low)"),
        (("--config",), "config", None, None, False,
         "JSON file with default option values"),
        (("--seed",), "seed", int, None, False, "PRNG seed (default 0)"),
        (("--threads",), "threads", int, None, False,
         "ignored; kept so old command lines run"),
    ]),
    ("correct", "run the built-in or an external corrector", [
        (("--reads",), "reads", None, None, True, None),
        (("--out",), "out", None, None, True, None),
        (("--k",), "k", int, None, False, "k-mer size for the built-in corrector"),
        (("--param-value",), "param_value", int, None, False,
         "tunable value passed to an external tool"),
        (("--solid-min",), "solid_min", int, None, False,
         "solid k-mer count threshold (default 3)"),
        (("--max-edits",), "max_edits", int, None, False,
         "edit budget per read (default 2)"),
        (("--adapter-template",), "adapter_template", None, None, False,
         "external tool command with {input} {output} and {k} or {GL}"),
        (("--adapter-param",), "adapter_param", None, None, False,
         "ignored; kept so old command lines run"),
        (("--timeout",), "timeout", float, None, False,
         "external tool timeout in seconds"),
        (("--config",), "config", None, None, False,
         "JSON file with default option values"),
        (("--seed",), "seed", int, None, False, "PRNG seed"),
        (("--threads",), "threads", int, None, False,
         "ignored; kept so old command lines run"),
    ]),
    ("tune", "search for the best correction parameter", [
        (("--reads",), "reads", None, None, True, None),
        (("--out-dir",), "out_dir", None, None, True, None),
        (("--lm",), "lm", None, ("ngram", "charrnn"), False,
         "language model (default ngram)"),
        (("--k-min",), "k_min", int, None, False, "smallest value (default 9)"),
        (("--k-max",), "k_max", int, None, False, "largest value (default 25)"),
        (("--delta",), "delta", int, None, False, "neighbor step size (default 2)"),
        (("--iter-max",), "iter_max", int, None, False,
         "move budget per restart (default 30)"),
        (("--initials",), "initials", None, None, False,
         "comma-separated starting values"),
        (("--sample-n",), "sample_n", int, None, False,
         "search sample size (default 2000)"),
        (("--word-len",), "word_len", int, None, False,
         "segment word length (default 7)"),
        (("--history",), "history", int, None, False, "words of history (default 3)"),
        (("--p-floor",), "p_floor", float, None, False,
         "probability floor (default 1e-07)"),
        (("--layers",), "layers", int, None, False, "recurrent layers (default 2)"),
        (("--hidden",), "hidden", int, None, False, "neurons per layer (default 32)"),
        (("--epochs",), "epochs", int, None, False, "training epochs (default 10)"),
        (("--minibatch",), "minibatch", int, None, False,
         "reads per batch (default 200)"),
        (("--learning-rate",), "learning_rate", float, None, False,
         "SGD learning rate (default 0.002)"),
        (("--unroll",), "unroll", int, None, False, "BPTT unroll length (default 50)"),
        (("--solid-min",), "solid_min", int, None, False,
         "solid k-mer count threshold (default 3)"),
        (("--max-edits",), "max_edits", int, None, False,
         "edit budget per read (default 2)"),
        (("--adapter-template",), "adapter_template", None, None, False,
         "external tool command with {input} {output} and {k} or {GL}"),
        (("--adapter-param",), "adapter_param", None, None, False,
         "ignored; kept so old command lines run"),
        (("--timeout",), "timeout", float, None, False,
         "external tool timeout in seconds"),
        (("--config",), "config", None, None, False,
         "JSON file with default option values"),
        (("--seed",), "seed", int, None, False, "PRNG seed (default 0)"),
        (("--threads",), "threads", int, None, False,
         "ignored; kept so old command lines run"),
    ]),
    ("sweep", "evaluate a range of parameter values", [
        (("--reads",), "reads", None, None, True, None),
        (("--truth",), "truth", None, None, False, "clean reads for gain computation"),
        (("--model",), "model", None, None, False,
         "trained model file (default: train n-gram)"),
        (("--values",), "values", None, None, False,
         "comma-separated parameter values"),
        (("--k-min",), "k_min", int, None, False, "smallest grid value (default 9)"),
        (("--k-max",), "k_max", int, None, False, "largest grid value (default 25)"),
        (("--k-step",), "k_step", int, None, False, "grid step (default 2)"),
        (("--tsv-out",), "tsv_out", None, None, False, None),
        (("--json-out",), "json_out", None, None, False, None),
        (("--word-len",), "word_len", int, None, False,
         "segment word length (default 7)"),
        (("--history",), "history", int, None, False, "words of history (default 3)"),
        (("--p-floor",), "p_floor", float, None, False,
         "probability floor (default 1e-07)"),
        (("--solid-min",), "solid_min", int, None, False,
         "solid k-mer count threshold (default 3)"),
        (("--max-edits",), "max_edits", int, None, False,
         "edit budget per read (default 2)"),
        (("--adapter-template",), "adapter_template", None, None, False,
         "external tool command with {input} {output} and {k} or {GL}"),
        (("--adapter-param",), "adapter_param", None, None, False,
         "ignored; kept so old command lines run"),
        (("--timeout",), "timeout", float, None, False,
         "external tool timeout in seconds"),
        (("--config",), "config", None, None, False,
         "JSON file with default option values"),
        (("--seed",), "seed", int, None, False, "PRNG seed"),
        (("--threads",), "threads", int, None, False,
         "ignored; kept so old command lines run"),
    ]),
    ("eval", "per-base correction gain against truth", [
        (("--original",), "original", None, None, True, "uncorrected reads"),
        (("--corrected",), "corrected", None, None, True, None),
        (("--truth",), "truth", None, None, True, None),
        (("--config",), "config", None, None, False,
         "JSON file with default option values"),
        (("--seed",), "seed", int, None, False, "PRNG seed"),
        (("--threads",), "threads", int, None, False,
         "ignored; kept so old command lines run"),
    ]),
]


def test_parser_structure_is_as_recorded():
    # a structural check, not a --help comparison, so that argparse's
    # layout, which differs between Python versions, cannot break it
    parser = build_parser()
    assert parser.prog == "ectuner"
    assert parser.description == (
        "Tune error-correction parameters with read language models"
    )
    sub = next(a for a in parser._actions if a.dest == "command")
    summaries = {a.dest: a.help for a in sub._choices_actions}
    found = []
    for name, p in sub.choices.items():
        assert p._actions[0].dest == "help"
        flags = p._actions[1:]
        found.append((name, summaries[name], [
            (tuple(a.option_strings), a.dest, a.type, a.choices, a.required, a.help)
            for a in flags
        ]))
        # every default comes from the option tables, none from argparse
        assert all(a.default is None for a in flags), name
    assert found == _PARSER_STRUCTURE


def _subparser(command):
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    return sub.choices[command]


@pytest.mark.parametrize("command", [name for name, _, _ in _PARSER_STRUCTURE])
def test_one_command_parser_parses_and_helps_as_the_full_one(command, capsys):
    # main() builds only the named subcommand's options
    full = _subparser(command)
    argv = [command]
    for action in full._actions[1:]:
        value = {int: "7", float: "0.5"}.get(action.type, "v")
        argv += [action.option_strings[0], action.choices[0] if action.choices else value]
    assert vars(build_parser(command).parse_args(argv)) == vars(
        build_parser().parse_args(argv)
    )
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == full.format_help()


def _help_defaults(command):
    """(dest, text) for every "(default X)" in a subcommand's --help."""
    parser = _subparser(command)
    text = parser.format_help()
    found = []
    for action in parser._actions:
        if action.help and "(default " in action.help:
            value = action.help.split("(default ", 1)[1].rstrip(")")
            found.append((action.dest, value))
            assert f"(default {value})" in " ".join(text.split())
    return found


@pytest.mark.parametrize("command", ["train", "tune", "sweep"])
def test_help_defaults_match_resolved_defaults(clean_fastq, tmp_path, capsys, command):
    out = str(tmp_path / "result")
    argv = {
        "train": ["--out", out],
        "tune": ["--out-dir", out],
        "sweep": ["--json-out", out],
    }[command]
    assert main([command, "--reads", clean_fastq, *argv]) == 0
    capsys.readouterr()
    config = out + "/config.json" if command == "tune" else out + ".config.json"
    with open(config) as fh:
        resolved = json.load(fh)
    shown = _help_defaults(command)
    assert len(shown) >= {"train": 10, "tune": 18, "sweep": 8}[command]
    for dest, value in shown:
        assert dest in resolved, dest
        assert value == str(resolved[dest]), (dest, value, resolved[dest])
    # and every resolved default with a flag is shown
    flags = {action.dest for action in _subparser(command)._actions}
    for key, value in resolved.items():
        if key in flags and value is not None:
            assert (key, str(value)) in shown, key


def test_eval_reports_gain(tmp_path, capsys):
    from ectuner.seqio import Read, ReadSet

    truth = ReadSet((Read("r0", "AAAA"), Read("r1", "CCCC")))
    original = ReadSet((Read("r0", "AATA"), Read("r1", "CCCC")))
    corrected = ReadSet((Read("r0", "AAAA"), Read("r1", "CCCC")))
    paths = {}
    for name, rs in [("truth", truth), ("original", original),
                     ("corrected", corrected)]:
        paths[name] = str(tmp_path / f"{name}.fastq")
        write_fastq(rs, paths[name])
    rc = main(
        ["eval", "--original", paths["original"],
         "--corrected", paths["corrected"], "--truth", paths["truth"]]
    )
    assert rc == 0
    assert _stdout_json(capsys) == {"gain": 1.0}


@pytest.mark.parametrize(
    "config, code, message",
    [(None, 2, "input not found: {cfg}"), ({"sampel_n": 5}, 1, "{cfg}: unknown key sampel_n")],
    ids=["missing", "unknown-key"],
)
def test_eval_checks_its_config_before_any_read_is_loaded(
    tmp_path, capsys, config, code, message
):
    cfg_path = tmp_path / "cfg.json"
    if config is not None:
        cfg_path.write_text(json.dumps(config))
    # none of the read files exists, so loading any would exit 2 naming it
    rc = main(["eval", "--original", str(tmp_path / "o.fastq"),
               "--corrected", str(tmp_path / "c.fastq"), "--truth", str(tmp_path / "t.fastq"),
               "--config", str(cfg_path)])
    assert rc == code
    captured = capsys.readouterr()
    assert captured.err == f"ectuner: {message.format(cfg=cfg_path)}\n"
    assert captured.out == ""


def test_thread_count_does_not_change_model_bytes(clean_fastq, tmp_path, capsys):
    one = str(tmp_path / "t1.model")
    many = str(tmp_path / "t8.model")
    assert main(["train", "--reads", clean_fastq, "--out", one,
                 "--threads", "1"]) == 0
    assert main(["train", "--reads", clean_fastq, "--out", many,
                 "--threads", "8"]) == 0
    capsys.readouterr()
    with open(one, "rb") as fa, open(many, "rb") as fb:
        assert fa.read() == fb.read()


def test_train_charrnn_then_score_through_magic_sniffing(tmp_path, capsys):
    genome = generate_genome(800, seed=41)
    reads = sample_clean_reads(genome, n=40, read_len=30, seed=42)
    path = str(tmp_path / "reads.fastq")
    write_fastq(reads, path)
    model = str(tmp_path / "rnn.model")
    rc = main(
        ["train", "--reads", path, "--out", model, "--lm", "charrnn",
         "--layers", "1", "--hidden", "4", "--epochs", "1",
         "--minibatch", "8", "--unroll", "16", "--seed", "2"]
    )
    assert rc == 0
    summary = _stdout_json(capsys)
    assert summary["lm"] == "charrnn"
    assert summary["epochs"] == 1
    with open(model, "rb") as fh:
        assert fh.read(4) == b"ATHR"
    rc = main(["perplexity", "--model", model, "--reads", path])
    assert rc == 0
    report = _stdout_json(capsys)
    assert report["avg_perplexity"] > 1.0


def test_train_charrnn_without_acgt_transitions_exits_1_and_writes_nothing(
    tmp_path, capsys
):
    path = str(tmp_path / "all-n.fastq")
    write_fastq([Read(f"n{i}", "N" * 30) for i in range(300)], path)
    model = tmp_path / "rnn.model"
    rc = main(
        ["train", "--reads", path, "--out", str(model), "--lm", "charrnn",
         "--layers", "1", "--hidden", "2", "--epochs", "2"]
    )
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ectuner: no scoreable character transitions\n"
    assert sorted(os.listdir(tmp_path)) == ["all-n.fastq"]


def _run_python(*argv: str, cwd: str | None = None) -> subprocess.CompletedProcess:
    # the child must import the same ectuner as this process, installed or not
    src = os.path.dirname(os.path.dirname(ectuner.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path}, cwd=cwd,
    )


def test_module_entry_point_runs(clean_fastq):
    proc = _run_python("-m", "ectuner.cli", "--help")
    assert proc.returncode == 0
    for name in ("train", "perplexity", "inject", "correct",
                 "tune", "sweep", "eval"):
        assert name in proc.stdout


# numpy.random, hashlib (OpenSSL) and subprocess each raise a process's peak
# memory; no command draws through numpy.random, only a command that reads or
# writes a model file hashes, and only an external tool needs subprocess
_HEAVY = ("numpy.random", "hashlib", "subprocess")


def test_importing_the_cli_loads_no_numpy_random():
    proc = _run_python("-c", "import sys, ectuner.cli; "
                       f"print([m for m in {_HEAVY!r} if m in sys.modules])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


_RNN = ["--lm", "charrnn", "--layers", "1", "--hidden", "4", "--epochs", "1"]
# each command, in an order where every input exists when it runs, with the
# heavy modules it may load
_RUNS = [
    (["train", "--reads", "clean.fq", "--out", "m.ngram"], ["hashlib"]),
    (["train", "--reads", "clean.fq", "--out", "m.rnn", *_RNN], ["hashlib"]),
    (["inject", "--reads", "clean.fq", "--out", "noisy.fq", "--ledger", "l.tsv",
      "--kind", "substitution", "--regime", "low", "--seed", "1"], []),
    (["correct", "--reads", "noisy.fq", "--out", "fixed.fq", "--k", "11"], []),
    (["correct", "--reads", "noisy.fq", "--out", "tool.fq", "--adapter-template",
      'sh -c "cp {input} {output}; : {k}"', "--param-value", "11"], ["subprocess"]),
    (["perplexity", "--model", "m.ngram", "--reads", "noisy.fq"], ["hashlib"]),
    (["perplexity", "--model", "m.ngram", "--reads", "noisy.fq", "--sample-n", "50"],
     ["hashlib"]),
    (["perplexity", "--model", "m.rnn", "--reads", "noisy.fq"], ["hashlib"]),
    (["perplexity", "--model", "m.rnn", "--reads", "noisy.fq", "--sample-n", "50"],
     ["hashlib"]),
    (["tune", "--reads", "noisy.fq", "--out-dir", "t1", "--sample-n", "100"], []),
    (["tune", "--reads", "noisy.fq", "--out-dir", "t2", "--sample-n", "100", *_RNN], []),
    (["sweep", "--reads", "noisy.fq", "--truth", "clean.fq", "--values", "11,13,15",
      "--json-out", "s1.json"], []),
    (["sweep", "--reads", "noisy.fq", "--model", "m.rnn", "--values", "11,13,15",
      "--json-out", "s2.json"], ["hashlib"]),
    (["eval", "--original", "noisy.fq", "--corrected", "fixed.fq", "--truth", "clean.fq"],
     []),
]


def test_each_command_loads_only_what_it_uses(clean_fastq, tmp_path):
    # a fresh interpreter per command, so each one's imports are its own
    os.symlink(clean_fastq, tmp_path / "clean.fq")
    code = ("import sys; from ectuner.cli import main; rc = main(sys.argv[1:]); "
            f"print(rc, [m for m in {_HEAVY!r} if m in sys.modules])")
    got, want = [], []
    for i, (argv, loads) in enumerate(_RUNS):
        proc = _run_python("-c", code, *argv, cwd=str(tmp_path))
        got.append((i, argv[0], proc.stdout.splitlines()[-1:]))
        want.append((i, argv[0], [f"0 {loads!r}"]))
    assert got == want
