"""Packed ids and qualities: round trips, the operations that carry them,
what FASTQ cannot carry, and what a loaded set holds.

A set holds a quality for every read or for none, and ``ReadSet.packed`` is
its one constructor from packed arrays.  Every case here compares the
``Read`` objects a set gives back with those it was built from, each read
without a quality given the 'I's it is written with when another read has
one (``as_packed``), and its packed ids with theirs.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ectuner import seqio
from ectuner._rng import Pcg64, sample_indices
from ectuner.injector import (
    KINDS,
    InjectionSpec,
    generate_genome,
    inject_readset,
    sample_clean_reads,
)
from ectuner.seqio import (
    FastqParseError,
    Ids,
    Read,
    ReadSet,
    read_fastq,
    sample_reads,
    write_fastq,
)
from seqio_oracles import as_packed, iter_fastq, write_fasta
import injector_oracles as oracle

# ids FASTQ carries whole: no whitespace, so no comment is cut off them
_ID = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"), min_size=1
).filter(lambda s: not any(c.isspace() for c in s))
_SEQ = st.text("ACGTN", min_size=1, max_size=30)
_PHRED = "".join(map(chr, range(33, 127)))


@st.composite
def _fastq_reads(draw, max_size=12):
    """Reads FASTQ round-trips: non-empty, each with a quality."""
    reads = []
    for read_id, seq in draw(st.lists(st.tuples(_ID, _SEQ), max_size=max_size)):
        qual = draw(st.text(_PHRED, min_size=len(seq), max_size=len(seq)))
        reads.append(Read(read_id, seq, qual))
    return tuple(reads)


@st.composite
def _any_reads(draw, max_size=12):
    """Reads a ``ReadSet`` holds: empty ones too, ids with blanks, and a
    quality or none, so most sets mix the two."""
    reads = []
    ids = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"))
    for read_id, seq, has in draw(st.lists(
        st.tuples(ids, st.text("ACGTN", max_size=12), st.booleans()), max_size=max_size
    )):
        qual = draw(st.text(_PHRED, min_size=len(seq), max_size=len(seq))) if has else None
        reads.append(Read(read_id, seq, qual))
    return tuple(reads)


def _same(readset: ReadSet, reads) -> None:
    assert readset.reads == as_packed(reads)
    assert readset.names == Ids.of([r.id for r in reads])


@settings(max_examples=60, deadline=None)
@given(_fastq_reads())
def test_fastq_round_trips_ids_and_qualities(tmp_path_factory, reads):
    path = str(tmp_path_factory.mktemp("rt") / "reads.fastq")
    write_fastq(ReadSet(reads), path)
    assert tuple(iter_fastq(path)) == reads
    loaded = read_fastq(path)
    _same(loaded, reads)
    again = str(tmp_path_factory.mktemp("rt") / "again.fastq")
    write_fastq(loaded, again)
    with open(path, "rb") as a, open(again, "rb") as b:
        assert a.read() == b.read()


def test_non_ascii_ids_round_trip(tmp_path):
    reads = (Read("réad-1", "ACGT", "IIII"), Read("読み☃", "GG", "#!"),
             Read("\U0001f600", "N", "~"))
    path = str(tmp_path / "r.fastq")
    write_fastq(reads, path)
    _same(read_fastq(path), reads)
    assert ReadSet(reads).names.text.tobytes() == "réad-1\n読み☃\n\U0001f600\n".encode()


def test_header_comments_and_plus_text_are_dropped(tmp_path):
    path = tmp_path / "r.fastq"
    path.write_text(
        "@r1 first comment\nACGT\n+r1 first comment\nIIII\n"
        "@  r2\tsecond\nGG\n+anything\n#!\n"
        "@r3　x y\nN\n+\n~\n"
        "@r4 \nT\n+ \n5\n"
    )
    reads = (Read("r1", "ACGT", "IIII"), Read("r2", "GG", "#!"), Read("r3", "N", "~"),
             Read("r4", "T", "5"))
    _same(read_fastq(str(path)), reads)
    out = tmp_path / "out.fastq"
    write_fastq(read_fastq(str(path)), str(out))
    assert out.read_text() == "".join(
        f"@{r.id}\n{r.sequence}\n+\n{r.quality}\n" for r in reads
    )


@settings(max_examples=80, deadline=None)
@given(_any_reads())
def test_readsets_of_any_reads_keep_ids_and_qualities(reads):
    readset = ReadSet(reads)
    _same(readset, reads)
    assert (readset.quals is None) == all(r.quality is None for r in reads)


def _written(readset: ReadSet, path) -> bytes | str:
    """The FASTQ bytes ``readset`` writes to ``path``, or the refusal."""
    try:
        write_fastq(readset, str(path))
    except ValueError as err:
        return str(err)
    return path.read_bytes()


@settings(max_examples=80, deadline=None)
@given(_any_reads())
def test_packed_of_a_sets_own_arrays_is_that_set(tmp_path_factory, reads):
    readset = ReadSet(reads)
    again = ReadSet.packed(readset.codes, readset.lengths, readset.names, readset.quals)
    assert again.reads == readset.reads
    assert again.names == readset.names
    assert np.array_equal(again.starts, readset.starts)
    path = tmp_path_factory.mktemp("packed")
    assert _written(again, path / "again.fastq") == _written(readset, path / "set.fastq")


def test_empty_reads_and_the_empty_set(tmp_path):
    reads = (Read("e", ""), Read("q", "", ""), Read("x", "AC", "!!"), Read("e2", ""))
    _same(ReadSet(reads), reads)
    _same(ReadSet(reads).take([3, 1, 0]), (reads[3], reads[1], reads[0]))
    empty = ReadSet()
    _same(empty, ())
    _same(empty.take([]), ())
    path = tmp_path / "empty.fastq"
    write_fastq(empty, str(path))
    assert path.read_bytes() == b""
    _same(read_fastq(str(path)), ())


def test_mixed_qualities_write_i_for_the_reads_without_one(tmp_path):
    reads = (Read("a", "ACG", "!#%"), Read("b", "TT"), Read("c", "N", "~"))
    readset = ReadSet(reads)
    assert readset[1] == Read("b", "TT", "II")
    path = tmp_path / "mixed.fastq"
    write_fastq(readset, str(path))
    assert path.read_text() == "@a\nACG\n+\n!#%\n@b\nTT\n+\nII\n@c\nN\n+\n~\n"
    # a subset keeps the 'I's
    assert readset.take([1]).reads == (Read("b", "TT", "II"),)


@settings(max_examples=60, deadline=None)
@given(_any_reads(max_size=20), st.data())
def test_take_with_codes_sample_and_changed_reads_keep_ids_and_qualities(reads, data):
    readset, reads = ReadSet(reads), as_packed(reads)
    rows = data.draw(st.lists(st.integers(0, max(len(reads) - 1, 0)),
                              max_size=25 if reads else 0))
    taken = readset.take(rows)
    _same(taken, [reads[r] for r in rows])
    _same(readset.with_codes(readset.codes.copy()), reads)
    n, seed = data.draw(st.integers(0, len(reads))), data.draw(st.integers(0, 2**32))
    picked = sample_indices(Pcg64(seed), len(reads), n) if n < len(reads) else range(n)
    _same(sample_reads(readset, n, seed), [reads[i] for i in picked])
    assert readset.changed_reads(taken) == sum(
        a.sequence != b.sequence for a, b in zip(reads, [reads[r] for r in rows])
    )
    _same(readset, reads)


def _mixed_quality_reads() -> ReadSet:
    genome = generate_genome(3000, seed=60)
    quals = "".join(map(chr, range(33, 127))) * 2
    return ReadSet(tuple(
        Read(f"m{i}-é" if i % 7 == 0 else f"m{i}", genome[9 * i : 9 * i + 12 + i % 40],
             quals[i % 90 : i % 90 + 12 + i % 40] if i % 3 else None)
        for i in range(300)
    ))


@pytest.mark.parametrize("kind", KINDS + ("mixture",))
@pytest.mark.parametrize("regime", ["low", "high"])
def test_injection_keeps_ids_and_qualities_of_every_kind(kind, regime):
    readset = _mixed_quality_reads()
    spec = InjectionSpec(kind, regime, seed=61)
    corrupted, ledger = inject_readset(readset, spec)
    want, entries = oracle.inject_readset(readset, spec)
    _same(corrupted, want)
    assert corrupted.names is readset.names
    assert [e.read_id for e in ledger.entries] == [e.read_id for e in entries]


# -- what FASTQ cannot carry ---------------------------------------------------


@pytest.mark.parametrize("read_id", ["a\nb", "a\rb", "ab\n"])
def test_an_id_holding_a_line_break_is_refused(tmp_path, read_id):
    with pytest.raises(ValueError, match="holds a line break") as err:
        write_fastq(ReadSet([Read("ok", "ACGT", "IIII"), Read(read_id, "ACGT", "IIII")]),
                    str(tmp_path / "out.fastq"))
    assert repr(read_id) in str(err.value)
    with pytest.raises(ValueError, match="holds a line break"):
        Ids.of([read_id])
    assert not (tmp_path / "out.fastq").exists()


@pytest.mark.parametrize("quality, bad", [("IIÉI", "['É']"), ("II I", "[' ']"),
                                          ("I\x7fII", "['\\x7f']"), ("I\x00II", "['\\x00']")])
def test_a_quality_outside_phred33_is_refused_naming_the_read(quality, bad):
    reads = [Read("fine", "ACGT", "IIII"), Read("bad", "ACGT", quality)]
    with pytest.raises(ValueError, match="quality characters outside '!'..'~'") as err:
        ReadSet(reads)
    assert str(err.value).startswith("read 'bad' has quality")
    assert str(err.value).endswith(bad)
    # packed, each character one byte
    quals = np.frombuffer(quality.encode("latin-1") + b"\n", np.uint8)
    with pytest.raises(ValueError) as packed:
        ReadSet.packed([0, 1, 2, 3, 4], [4], Ids.of(["bad"]), quals)
    assert str(packed.value) == str(err.value)


@pytest.mark.parametrize("block", [3, 4096])
@pytest.mark.parametrize(
    "edit, message",
    [("quality", "read 'r7' has quality characters outside '!'..'~': [' ']"),
     ("quality-break", "read 'r7' is not followed by a separator"),
     ("separator", "read 'r7' is not followed by a separator"),
     ("code", "read 'r7' holds codes above 4: [6]"),
     ("names", "read 9 has no id")],
    ids=["quality", "quality-break", "separator", "code", "names"],
)
def test_packed_refuses_arrays_that_are_not_packed_reads_naming_the_read(
    monkeypatch, block, edit, message
):
    monkeypatch.setattr(seqio, "_ROW_BLOCK", block)
    readset = ReadSet(Read(f"r{i}", "ACGT"[: i % 4 + 1], "!5I~"[: i % 4 + 1]) for i in range(10))
    ReadSet.packed(readset.codes, readset.lengths, readset.names, readset.quals)
    codes, quals, names = readset.codes.copy(), readset.quals.copy(), readset.names
    end = readset.starts[7] + readset.lengths[7]
    if edit == "quality":
        quals[end - 1] = ord(" ")
    elif edit == "quality-break":
        quals[end] = ord("I")
    elif edit == "separator":  # one base early
        codes[end - 1], codes[end] = 4, 0
    elif edit == "code":
        codes[end - 1] = 6
    else:
        names = names.take(slice(0, 9))
    with pytest.raises(ValueError) as err:
        ReadSet.packed(codes, readset.lengths, names, quals)
    assert str(err.value) == message


@pytest.mark.parametrize("quality", ["IIÉI", "II I", "I\x01II"])
def test_the_parser_refuses_a_quality_outside_phred33_naming_the_line(tmp_path, quality):
    path = tmp_path / "bad.fastq"
    path.write_text(f"@r1\nACGT\n+\nIIII\n@r2\nACGT\n+\n{quality}\n")
    with pytest.raises(FastqParseError, match=r"^line 8: read 'r2' has quality characters"):
        read_fastq(str(path))
    with pytest.raises(FastqParseError, match=r"^line 8: read 'r2' has quality characters"):
        list(iter_fastq(str(path)))


# each writer wrote the reads below whole, and the readers then refused them
# or read them back otherwise
_WRITERS = pytest.mark.parametrize(
    "write, name", [(write_fastq, "out.fastq"), (write_fasta, "out.fa")], ids=["fastq", "fasta"]
)


@_WRITERS
def test_a_writer_refuses_an_empty_id(tmp_path, write, name):
    with pytest.raises(ValueError, match=r"^read 1 has an empty id$"):
        write([Read("ok", "ACGT", "IIII"), Read("", "ACGT", "IIII")], str(tmp_path / name))
    assert not (tmp_path / name).exists()


@_WRITERS
@pytest.mark.parametrize("read_id", ["a b", "a\tb", " a", "a ", "a\x1cb", "a\xa0b", "a\u3000b"])
def test_a_writer_refuses_an_id_holding_whitespace(tmp_path, write, name, read_id):
    # the readers keep only an id's first word
    with pytest.raises(ValueError, match="holds whitespace") as err:
        write(ReadSet([Read("ok", "ACGT", "IIII"), Read(read_id, "ACGT", "IIII")]),
              str(tmp_path / name))
    assert str(err.value) == f"read id {read_id!r} holds whitespace"
    assert not (tmp_path / name).exists()


@_WRITERS
def test_a_writer_refuses_a_read_without_bases(tmp_path, write, name):
    with pytest.raises(ValueError, match=r"^read 'a' has an empty sequence$"):
        write([Read("ok", "ACGT", "IIII"), Read("a", "", "")], str(tmp_path / name))
    assert not (tmp_path / name).exists()


def test_ids_compare_by_their_text():
    assert Ids.of(["a", "b"]) == Ids.of(["a", "b"]) != Ids.of(["a", "c"])
    assert Ids.of(["ab"]) != Ids.of(["a", "b"])
    assert Ids.of([]) == Ids() and len(Ids()) == 0
    assert Ids.of(["x", "", "ÿ"]).strs() == ["x", "", "ÿ"]
    assert Ids.of(["x", "", "ÿ"])[2] == "ÿ"


# -- memory --------------------------------------------------------------------


def test_a_loaded_set_holds_its_packed_arrays_only(tmp_path):
    # 12 000 x 50 bp reads, the tune-default benchmark's input.  With ids and
    # qualities kept as tuples of str a loaded set held 2.91 MB (4.19 MB
    # peak); packed, it holds 1.75 MB (3.49 MB peak): 0.61 MB each of codes
    # and qualities, 0.08 MB of ids and 8 bytes a read for each of the ids'
    # offsets, the starts and the lengths
    clean = sample_clean_reads(generate_genome(10_000, seed=1), 12_000, 50, seed=2)
    noisy = inject_readset(clean, InjectionSpec("substitution", "low", seed=3))[0]
    path = str(tmp_path / "reads.fastq")
    write_fastq(noisy, path)
    tracemalloc.start()
    try:
        loaded = read_fastq(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 1.85e6
    assert peak <= 3.7e6
    assert loaded.names == noisy.names
    assert np.array_equal(loaded.codes, noisy.codes)
