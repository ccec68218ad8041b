"""Parser, writer, and sampler checks for the sequence I/O layer."""

from __future__ import annotations

import gzip
import tracemalloc

import numpy as np
import pytest

from ectuner import seqio
from ectuner.seqio import (
    FastaParseError,
    FastqParseError,
    Read,
    ReadSet,
    base_codes,
    encode_word,
    iter_fasta,
    load_reads,
    read_fastq,
    sample_reads,
    write_fasta,
    write_fastq,
)

from seqio_oracles import decode_words


def _fastq_text(records):
    lines = []
    for rid, seq, qual in records:
        lines += [f"@{rid}", seq, "+", qual]
    return "\n".join(lines) + "\n"


def test_read_validates_quality_length():
    Read("r1", "ACGT", "IIII")
    with pytest.raises(ValueError):
        Read("r1", "ACGT", "III")


def test_read_allows_empty_sequence_in_memory():
    # A read fully consumed by deletions must stay representable.
    r = Read("gone", "")
    assert len(r) == 0


def test_fastq_round_trip(tmp_path):
    records = [("r1", "ACGTN", "IJKLM"), ("r2", "TTTT", "!!!!")]
    path = str(tmp_path / "reads.fastq")
    (tmp_path / "reads.fastq").write_text(_fastq_text(records))
    rs = read_fastq(path)
    assert [(r.id, r.sequence, r.quality) for r in rs] == records

    out = str(tmp_path / "out.fastq")
    write_fastq(rs, out)
    assert (tmp_path / "out.fastq").read_text() == _fastq_text(records)


def test_fastq_lower_case_is_normalized(tmp_path):
    path = tmp_path / "lc.fastq"
    path.write_text("@r1\nacgt\n+\nIIII\n")
    (read,) = read_fastq(str(path)).reads
    assert read.sequence == "ACGT"


def test_fastq_header_id_stops_at_whitespace(tmp_path):
    path = tmp_path / "hdr.fastq"
    path.write_text("@r1 extra metadata\nACGT\n+\nIIII\n")
    (read,) = read_fastq(str(path)).reads
    assert read.id == "r1"


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("ACGT\n+\nIIII\n", "header"),
        ("@r1\nACGT\n+\n", "truncated"),
        ("@r1\nACGT\nIIII\nIIII\n", "separator"),
        ("@r1\nACXT\n+\nIIII\n", "invalid characters"),
        ("@r1\nACGT\n+\nIII\n", "quality length"),
        ("@r1\n\n+\n\n", "empty sequence"),
        ("@\nACGT\n+\nIIII\n", "empty read id"),
        ("@  \nACGT\n+\nIIII\n", "empty read id"),
        ("@\t \nACGT\n+\nIIII\n", "empty read id"),
    ],
)
def test_fastq_malformed_records_raise(tmp_path, text, fragment):
    path = tmp_path / "bad.fastq"
    path.write_text(text)
    with pytest.raises(FastqParseError) as err:
        read_fastq(str(path))
    assert fragment in str(err.value)


def test_fastq_error_reports_line_number(tmp_path):
    good = _fastq_text([("r1", "ACGT", "IIII")])
    path = tmp_path / "mixed.fastq"
    path.write_text(good + "@r2\nACZT\n+\nIIII\n")
    with pytest.raises(FastqParseError) as err:
        read_fastq(str(path))
    assert "line 6" in str(err.value)


def test_fasta_multi_line_records_join(tmp_path):
    path = tmp_path / "ref.fasta"
    path.write_text(">chr1 descr\nACGT\nACGT\n>chr2\nTT\n")
    reads = list(iter_fasta(str(path)))
    assert [(r.id, r.sequence) for r in reads] == [
        ("chr1", "ACGTACGT"),
        ("chr2", "TT"),
    ]
    assert all(r.quality is None for r in reads)


def test_fasta_rejects_data_before_header(tmp_path):
    path = tmp_path / "bad.fasta"
    path.write_text("ACGT\n>late\nACGT\n")
    with pytest.raises(FastaParseError):
        list(iter_fasta(str(path)))


def test_blank_header_ids_raise_with_their_line(tmp_path):
    fastq = tmp_path / "blank.fastq"
    fastq.write_text(_fastq_text([("r1", "ACGT", "IIII")]) + "@  \nACGT\n+\nIIII\n")
    with pytest.raises(FastqParseError, match=r"^line 5: empty read id$"):
        read_fastq(str(fastq))
    for header in (">", ">  ", ">\t"):
        fasta = tmp_path / "blank.fasta"
        fasta.write_text(f">r1\nACGT\n{header}\nGG\n")
        with pytest.raises(FastaParseError, match=r"^line 3: empty record id$"):
            list(iter_fasta(str(fasta)))


def test_fasta_write_wraps_lines(tmp_path):
    path = str(tmp_path / "out.fasta")
    write_fasta([Read("long", "A" * 150)], path, width=70)
    lines = (tmp_path / "out.fasta").read_text().splitlines()
    assert lines[0] == ">long"
    assert [len(x) for x in lines[1:]] == [70, 70, 10]
    (back,) = list(iter_fasta(path))
    assert back.sequence == "A" * 150


def test_gzip_round_trip_and_byte_determinism(tmp_path):
    rs = ReadSet((Read("r1", "ACGT", "IIII"),))
    p1 = str(tmp_path / "a.fastq.gz")
    p2 = str(tmp_path / "b.fastq.gz")
    write_fastq(rs, p1)
    write_fastq(rs, p2)
    assert (tmp_path / "a.fastq.gz").read_bytes() == (tmp_path / "b.fastq.gz").read_bytes()
    with gzip.open(p1, "rt") as fh:
        assert fh.read() == "@r1\nACGT\n+\nIIII\n"
    assert [r.sequence for r in read_fastq(p1)] == ["ACGT"]


def test_load_reads_picks_format_from_extension(tmp_path):
    fq = tmp_path / "x.fastq"
    fq.write_text("@r1\nACGT\n+\nIIII\n")
    fa = tmp_path / "x.fa"
    fa.write_text(">r1\nACGT\n")
    assert load_reads(str(fq))[0].quality == "IIII"
    assert load_reads(str(fa))[0].quality is None


def test_write_fastq_synthesizes_quality(tmp_path):
    path = tmp_path / "noqual.fastq"
    write_fastq([Read("r1", "ACGTA")], str(path))
    assert path.read_text() == "@r1\nACGTA\n+\nIIIII\n"


def test_sample_reads_is_deterministic_and_order_preserving():
    rs = ReadSet(tuple(Read(f"r{i}", "ACGT") for i in range(100)))
    s1 = sample_reads(rs, 10, seed=7)
    s2 = sample_reads(rs, 10, seed=7)
    assert [r.id for r in s1] == [r.id for r in s2]
    assert len(s1) == 10
    ids = [int(r.id[1:]) for r in s1]
    assert ids == sorted(ids)
    assert len(set(ids)) == 10


def test_sample_reads_differs_across_seeds():
    rs = ReadSet(tuple(Read(f"r{i}", "ACGT") for i in range(200)))
    a = [r.id for r in sample_reads(rs, 20, seed=1)]
    b = [r.id for r in sample_reads(rs, 20, seed=2)]
    assert a != b


def test_sample_reads_oversized_request_returns_whole_set():
    rs = ReadSet(tuple(Read(f"r{i}", "ACGT") for i in range(5)))
    assert sample_reads(rs, 5, seed=0) is rs
    assert sample_reads(rs, 50, seed=0) is rs


def test_sample_reads_rejects_negative_sizes():
    rs = ReadSet(tuple(Read(f"r{i}", "ACGT") for i in range(5)))
    with pytest.raises(ValueError, match="sample size must be >= 0, got -3"):
        sample_reads(rs, -3, seed=0)
    assert len(sample_reads(rs, 0, seed=0)) == 0


def test_sample_reads_is_roughly_uniform():
    rs = ReadSet(tuple(Read(f"r{i}", "ACGT") for i in range(20)))
    hits = [0] * 20
    for seed in range(400):
        for r in sample_reads(rs, 5, seed=seed):
            hits[int(r.id[1:])] += 1
    # each read should be picked about 400 * 5/20 = 100 times
    assert min(hits) > 60
    assert max(hits) < 140


def test_fastq_iterator_streams_many_records(tmp_path):
    path = tmp_path / "big.fastq"
    n = 1000
    path.write_text(_fastq_text([(f"r{i}", "ACGT", "IIII") for i in range(n)]))
    count = sum(1 for _ in read_fastq(str(path)))
    assert count == n


def test_pack_unpack_round_trip():
    for word in ("A", "ACGT", "TTTTTTT", "GCGCGCA", "TGCA" * 8):
        assert list(decode_words([encode_word(word)], len(word))) == [word]
    assert encode_word("ACGT") == 0b00011011
    assert encode_word("") == 0
    # int() would read these as base-4 digits, spaces or separators
    for bad in ("ACN", "acgt", "A_C", " AC", "A3", "A\u0663"):
        with pytest.raises(ValueError, match="outside ACGT"):
            encode_word(bad)


def test_code_order_is_string_order():
    words = ["".join(p) for p in __import__("itertools").product("ACGT", repeat=3)]
    codes = [encode_word(w) for w in words]
    assert codes == sorted(codes) == list(range(64))
    assert list(decode_words(codes, 3)) == words
    # more than one decoding block
    many = [encode_word(w) for w in words] * 200
    assert list(decode_words(many, 3)) == words * 200


def test_readset_packs_codes_with_a_separator_after_each_read():
    reads = ReadSet((Read("a", "ACN"), Read("b", ""), Read("c", "TG")))
    assert reads.codes.tolist() == [0, 1, 4, 4, 4, 3, 2, 4]
    assert reads.starts.tolist() == [0, 4, 5]
    assert reads.lengths.tolist() == [3, 0, 2]
    assert (reads.codes.dtype, reads.starts.dtype, reads.lengths.dtype) == (
        np.uint8, np.int64, np.int64)
    assert reads.ids == ("a", "b", "c")
    empty = ReadSet(())
    assert len(empty.codes) == len(empty.starts) == len(empty.lengths) == 0
    assert empty.reads == () and empty.ids == empty.qualities == ()


def test_packed_takes_flat_codes_or_one_row_per_read():
    reads = ReadSet((Read("a", "ACN", "!!#"), Read("b", ""), Read("c", "TG")))
    flat = ReadSet.packed(reads.codes, reads.lengths, reads.ids, reads.qualities)
    assert flat.reads == reads.reads
    assert flat.starts.tolist() == reads.starts.tolist()
    rows = ReadSet.packed(np.array([[0, 1, 4], [3, 2, 4]]), [2, 2], ["x", "y"])
    assert rows.reads == (Read("x", "AC"), Read("y", "TG"))
    assert ReadSet.packed([], [], []).reads == ()


@pytest.mark.parametrize(
    "codes, lengths, ids",
    [([0, 1, 4], [2, 1], ["x"]), ([0, 1, 2], [2], ["x"]), ([0, 4, 1, 4], [1], ["x"]),
     ([0, 5, 4], [2], ["x"])],
    ids=["ids-short", "no-separator", "wrong-total", "not-a-code"],
)
def test_packed_refuses_codes_that_are_not_packed_reads(codes, lengths, ids):
    with pytest.raises(ValueError, match="do not describe packed reads"):
        ReadSet.packed(codes, lengths, ids)


def test_base_codes_send_everything_but_acgt_to_4():
    for seq in (b"ACGTNacgt-", b"\x00\xc3\xa9TGCA\xff\n"):
        codes = base_codes(np.frombuffer(seq, np.uint8))
        assert codes.dtype == np.uint8
        want = [b"ACGT".find(ch) if ch in b"ACGT" else 4 for ch in seq]
        assert codes.tolist() == want


@pytest.mark.parametrize(
    "reads",
    [
        (),
        (Read("empty", ""),),
        (Read("n", "N"), Read("all-n", "NNNN", "!!!!")),
        (Read("q", "ACGT", "IJKL"), Read("none", "TTGA"), Read("gone", "", "")),
        (Read("e", ""), Read("mid", "ANCGN", "#$%&'"), Read("e2", "")),
    ],
)
def test_reads_round_trip_through_a_readset(reads):
    rs = ReadSet(reads)
    assert rs.reads == tuple(rs) == reads
    assert tuple(rs[i] for i in range(len(rs))) == reads
    if reads:
        assert rs[-1] == reads[-1]
    assert rs.qualities == tuple(r.quality for r in reads)
    assert ReadSet(rs).reads == reads


def test_readset_iterates_across_decoding_blocks(monkeypatch):
    monkeypatch.setattr(seqio, "_ROW_BLOCK", 3)
    reads = tuple(Read(f"r{i}", "ACGTN"[: i % 6], "IIIII"[: i % 6]) for i in range(11))
    assert ReadSet(reads).reads == reads


@pytest.mark.parametrize(
    "seq,chars",
    [("acgt", "['a', 'c', 'g', 't']"), ("ACXT", "['X']"), ("ACé", "['é']"),
     ("A☃\U0001f600C", "['☃', '\U0001f600']"), ("NA C\n", "['\\n', ' ']")],
)
def test_readset_refuses_characters_outside_acgtn_naming_the_read(seq, chars):
    with pytest.raises(ValueError) as err:
        ReadSet((Read("fine", "ACGTN"), Read("bad", seq), Read("worse", "x")))
    assert str(err.value) == f"read 'bad' contains characters outside ACGTN: {chars}"


def test_take_and_with_codes_share_ids_and_qualities():
    reads = ReadSet((Read("a", "ACG", "III"), Read("b", ""), Read("c", "TTNA")))
    taken = reads.take([2, 0, 2])
    assert taken.reads == (reads[2], reads[0], reads[2])
    assert taken.starts.tolist() == [0, 5, 9]
    assert reads.take([]).reads == ()
    edited = reads.codes.copy()
    edited[0] = 3
    changed = reads.with_codes(edited)
    assert changed.reads == (Read("a", "TCG", "III"), reads[1], reads[2])
    assert changed.ids is reads.ids and changed.qualities is reads.qualities
    assert reads.changed_reads(changed) == 1
    assert reads.changed_reads(reads) == 0
    # sets of other shapes compare the reads at shared positions; a read of
    # another length has changed
    longer = ReadSet((Read("a", "ACGT"), Read("b", ""), Read("c", "TTNC"), Read("d", "A")))
    assert reads.changed_reads(longer) == 2
    assert longer.changed_reads(reads.take([0])) == 1
    assert longer.changed_reads(reads.take([0, 1, 2])) == 2
    with pytest.raises(ValueError):
        reads.codes[0] = 1


def test_take_of_every_row_peaks_under_four_times_the_codes():
    n, length = 60_000, 50
    codes = np.random.default_rng(5).integers(0, 4, n * length)
    text = np.frombuffer(b"ACGT", np.uint8)[codes].tobytes().decode("ascii")
    reads = ReadSet(Read(f"r{i}", text[i * length : (i + 1) * length])
                    for i in range(n))
    rows = np.arange(n)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        taken = reads.take(rows)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 4 * reads.codes.nbytes
    assert np.array_equal(taken.codes, reads.codes)
    assert np.array_equal(taken.starts, reads.starts)
    assert taken.ids == reads.ids and taken.qualities == reads.qualities


def test_changed_reads_counts_what_comparing_sequences_counts():
    rng = np.random.default_rng(3)

    def reads(n):
        return ReadSet(tuple(
            Read(f"r{i}", "".join(rng.choice(list("ACGTN"), rng.integers(0, 6))))
            for i in range(n)
        ))

    for _ in range(50):
        a, b = reads(rng.integers(0, 12)), reads(rng.integers(0, 12))
        for x, y in ((a, b), (a, a.take(rng.permutation(len(a)))), (b, a)):
            want = sum(r.sequence != s.sequence for r, s in zip(x, y))
            assert x.changed_reads(y) == want
