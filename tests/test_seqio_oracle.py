"""Chunked FASTQ parsing against the record-by-record oracle.

Every comparison is exact: ``read_fastq`` must give the oracle's ids,
sequences and qualities, and for a malformed file the oracle's exception
type and message, line number included.  The chunk size is cut to a few
characters so that records, and a ``\\r\\n``, straddle chunk boundaries.
"""

from __future__ import annotations

import gzip
import sys

import numpy as np
import pytest

from ectuner import seqio
from ectuner.seqio import ReadSet, read_fastq
from seqio_oracles import iter_fastq

CHUNKS = (1, 2, 3, 7, 64, 1 << 18)
# (kind, what the oracle's message says)
MALFORMED = (
    ("header", "expected '@' header"),
    ("empty id", "empty read id"),
    ("plus", "expected '+' separator"),
    ("truncated", "truncated record"),
    ("invalid", "invalid characters"),
    ("non-ascii", "invalid characters"),
    ("empty sequence", "empty sequence"),
    ("quality length", "quality length"),
    ("quality", "quality characters outside"),
)


def _records(rng, n):
    """``n`` valid records as (header, sequence, plus, quality) lines."""
    records = []
    for i in range(n):
        length = int(rng.integers(1, 30))
        seq = "".join(rng.choice(list("ACGTNacgtn"), length))
        qual = "".join(map(chr, rng.integers(33, 127, length)))  # '@' and '+' too
        tail = ("", " extra", "\tmeta data", "  ")[int(rng.integers(4))]
        plus = ("+", f"+r{i}")[int(rng.integers(2))]
        records.append([f"@r{i}{tail}", seq, plus, qual])
    return records


def _corrupt(rng, records, kind):
    """Make a random record malformed in the way ``kind`` names."""
    i = int(rng.integers(len(records)))
    rec = records[i]
    at = int(rng.integers(len(rec[1]) + 1))
    if kind == "header":
        rec[0] = ("", "r1", ">r1", " @r1")[int(rng.integers(4))]
    elif kind == "empty id":
        rec[0] = ("@", "@  ", "@\t", "@\u3000\xa0")[int(rng.integers(4))]
    elif kind == "plus":
        rec[2] = ("", "-", " +", "@r1")[int(rng.integers(4))]
    elif kind == "truncated":
        del records[i + 1 :]
        del rec[int(rng.integers(1, 4)) :]
    elif kind in ("invalid", "non-ascii"):
        bad = "XU- .0\t" if kind == "invalid" else "éßıſ☃\U0001f600"
        ch = bad[int(rng.integers(len(bad)))]
        rec[1] = rec[1][:at] + ch + rec[1][at:]
        rec[3] += "I"
    elif kind == "empty sequence":
        rec[1] = rec[3] = ""
    elif kind == "quality":
        bad = " \t\x7fé☃\x00"
        at = int(rng.integers(len(rec[3])))
        rec[3] = rec[3][:at] + bad[int(rng.integers(len(bad)))] + rec[3][at + 1 :]
    else:
        rec[3] = rec[3][:-1] if rng.integers(2) else rec[3] + "I"
    return records


def _write(tmp_path, rng, records, name="reads"):
    """Write ``records`` with a random line end, maybe without the final
    one, maybe gzipped; returns the path."""
    lines = [line for rec in records for line in rec]
    style = int(rng.integers(4))
    if style < 3:  # one line end for the whole file
        ends = [("\n", "\r\n", "\r")[style]] * len(lines)
    else:  # mixed; a "\r" before an empty "\n" line would join the two
        ends = [("\n", "\r\n")[int(e)] for e in rng.integers(0, 2, len(lines))]
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and lines[-1] and rng.integers(3) == 0:  # an empty last line would go
        text = text[: -len(ends[-1])]
    if rng.integers(2):
        path = tmp_path / f"{name}.fastq.gz"
        path.write_bytes(gzip.compress(text.encode("utf-8"), mtime=0))
    else:
        path = tmp_path / f"{name}.fastq"
        path.write_bytes(text.encode("utf-8"))
    return str(path)


@pytest.mark.parametrize("chunk", CHUNKS)
def test_read_fastq_gives_the_oracles_reads(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(seqio, "_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    for case in range(40):
        records = _records(rng, int(rng.integers(0, 12)))
        path = _write(tmp_path, rng, records, f"c{case}")
        want = tuple(iter_fastq(path))
        got = read_fastq(path)
        assert got.reads == want
        packed = ReadSet(want)
        for name in ("codes", "starts", "lengths"):
            assert np.array_equal(getattr(got, name), getattr(packed, name))
            assert getattr(got, name).dtype == getattr(packed, name).dtype
        assert got.names == packed.names and np.array_equal(got.quals, packed.quals)


@pytest.mark.parametrize("chunk", (1, 5, 64, 1 << 18))
@pytest.mark.parametrize("kind,fragment", MALFORMED)
def test_read_fastq_raises_the_oracles_error(
    tmp_path, monkeypatch, chunk, kind, fragment
):
    monkeypatch.setattr(seqio, "_CHUNK", chunk)
    rng = np.random.default_rng([chunk, MALFORMED.index((kind, fragment))])
    for case in range(10):
        records = _corrupt(rng, _records(rng, int(rng.integers(1, 10))), kind)
        if kind != "truncated" and rng.integers(2):  # a later error must not win
            records += _corrupt(rng, _records(rng, 3), "quality length")
        path = _write(tmp_path, rng, records, f"c{case}")
        with pytest.raises(seqio.FastqParseError) as want:
            list(iter_fastq(path))
        assert fragment in str(want.value)
        with pytest.raises(seqio.FastqParseError) as got:
            read_fastq(path)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)


def test_only_lowercase_acgtn_upper_case_into_acgtn():
    # The chunk checks refuse every letter outside ACGTNacgtn, so they refuse
    # only records that upper-casing would not make valid either.
    valid = set("ACGTN")
    assert [
        c for c in map(chr, range(sys.maxunicode + 1)) if set(c.upper()) <= valid
    ] == list("ACGNTacgnt")
