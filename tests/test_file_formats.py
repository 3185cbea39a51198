"""Text-format parity corpus and writer golden bytes.

Each reader case pins either the parsed result or the exact exception class
and message (with its line number) on an edge-case file: line endings,
whitespace, characters `str.split` treats as whitespace but the file
iterator does not treat as line breaks, undecodable bytes, near-miss
labels and numbers, and CSV rows that are short, long, quoted or empty.
Each writer case pins the exact bytes written."""

import os
import subprocess
import sys

import numpy as np
import pytest

import oracles
import svkit
from svkit import (
    EmbeddingSet,
    TrialList,
    UttMeta,
    read_metadata,
    read_scores,
    read_trials,
    write_embeddings,
    write_metadata,
    write_scores,
    write_trials,
)
from svkit.calibration import read_qmf_cache
from svkit.clustering import read_labels, write_labels
from svkit.embeddings import _DECODE_CHUNK, _RECORD_BLOCK
from svkit.errors import DuplicateId, MisalignedTrials, SvkitError
from svkit.scoring import _TEXT_BLOCK, ScoreSet


def _trial_result(t):
    return t.enroll_ids, t.test_ids, t.labels.tolist()


def _score_result(s):
    return s.trials.enroll_ids, s.trials.test_ids, s.scores.tolist()


def _check(reader, tmp_path, raw, expected, result=lambda r: r):
    """`reader` on a file holding `raw` returns `expected` (through
    `result`), or, for an (exception class, message) pair, raises exactly
    that class with exactly that message ("{path}" stands for the file)."""
    path = tmp_path / "f.txt"
    path.write_bytes(raw)
    if isinstance(expected, tuple) and isinstance(expected[0], type):
        cls, msg = expected
        with pytest.raises(SvkitError) as err:
            reader(path)
        assert type(err.value) is cls
        assert str(err.value) == msg.replace("{path}", str(path))
    else:
        assert result(reader(path)) == expected


def _bad(msg, cls=SvkitError):
    return cls, msg


_UNDECODABLE = ("{path}: unreadable text ('utf-8' codec can't decode byte "
                "0xff in position 6: invalid start byte)")
_AB_CD = ["a", "c"], ["b", "d"]

TRIAL_CASES = {
    "crlf": (b"a b 1\r\nc d 0\r\n", (*_AB_CD, [1, 0])),
    "lone cr": (b"a b 1\rc d 0\r", (*_AB_CD, [1, 0])),
    "no final newline": (b"a b 1\nc d 0", (*_AB_CD, [1, 0])),
    "tabs and runs of spaces": (b"a\tb\t1\n  c   d  0  \n",
                                (*_AB_CD, [1, 0])),
    "whitespace-only line": (b"a b 1\n   \t \nc d\n", (*_AB_CD, [1, -1])),
    "blank lines only": (b"\n\n", ([], [], [])),
    "empty file": (b"", ([], [], [])),
    "form feed inside a line": (b"a\x0cb 1\n", (["a"], ["b"], [1])),
    "u2028 inside a line": ("a b\u2028 1\n".encode(), (["a"], ["b"], [1])),
    "x1c inside a line": (b"a b \x1c1\n", (["a"], ["b"], [1])),
    "non-utf-8 byte": (b"a b 1\n\xff c 0\n", _bad(_UNDECODABLE)),
    "label 01": (b"a b 01\n", _bad("{path}:1: malformed trial line")),
    "label +1": (b"a b +1\n", _bad("{path}:1: malformed trial line")),
    "label 1.0": (b"a b 1.0\n", _bad("{path}:1: malformed trial line")),
    "label -0": (b"a b -0\n", _bad("{path}:1: malformed trial line")),
    "label -1": (b"a b 1\nc d -1\n", _bad("{path}:2: malformed trial line")),
    "non-ascii digit label": ("a b \u0661\n".encode(),
                              _bad("{path}:1: malformed trial line")),
    "mixed 2- and 3-field lines": (b"a b\nc d 1\ne f\n",
                                   (["a", "c", "e"], ["b", "d", "f"],
                                    [-1, 1, -1])),
    "fields do not run across lines": (b"x y\n1 z w 0\n",
                                       _bad("{path}:2: malformed trial line")),
    "one field": (b"a b 1\n\nc\n", _bad("{path}:3: malformed trial line")),
    "first bad line wins": (b"a b 1\nc d 2\ne\n",
                            _bad("{path}:2: malformed trial line")),
}


@pytest.mark.parametrize("case", list(TRIAL_CASES))
def test_read_trials_parity(tmp_path, case):
    raw, expected = TRIAL_CASES[case]
    _check(read_trials, tmp_path, raw, expected, _trial_result)


SCORE_CASES = {
    "crlf": (b"a b 0.5\r\nc d -1\r\n", (*_AB_CD, [0.5, -1.0])),
    "lone cr": (b"a b 0.5\rc d 1", (*_AB_CD, [0.5, 1.0])),
    "no final newline": (b"a b 0.5\nc d 1e-3", (*_AB_CD, [0.5, 0.001])),
    "tabs and runs of spaces": (b"a\tb\t0.5\n  c   d  1  \n",
                                (*_AB_CD, [0.5, 1.0])),
    "whitespace-only line": (b"a b 0.5\n  \t\nc d 2\n", (*_AB_CD, [0.5, 2.0])),
    "empty file": (b"", ([], [], [])),
    "form feed inside a line": (b"a\x0cb 0.5\n", (["a"], ["b"], [0.5])),
    "u2028 inside a line": ("a b\u2028 0.5\n".encode(),
                            (["a"], ["b"], [0.5])),
    "non-utf-8 byte": (b"a b 1\n\xff c 0\n", _bad(_UNDECODABLE)),
    "float spellings": (b"a b 01\nc d +1\ne f 1.0\ng h 1_0\n",
                        (["a", "c", "e", "g"], ["b", "d", "f", "h"],
                         [1.0, 1.0, 1.0, 10.0])),
    "non-ascii digit": ("a b \u0661\n".encode(), (["a"], ["b"], [1.0])),
    "hex is not a float": (b"a b 0x1\n", _bad("{path}:1: malformed score line")),
    "two fields": (b"a b 0.5\nc d\n", _bad("{path}:2: malformed score line")),
    "four fields": (b"a b 0.5\nc d e f\n",
                    _bad("{path}:2: malformed score line")),
    "not a number": (b"a b 0.5\nc d x\n",
                     _bad("{path}:2: malformed score line")),
    "malformed line beats an earlier overflow": (
        b"a b 1e400\nc d x\n", _bad("{path}:2: malformed score line")),
    "first bad line wins": (b"a b 0.5\nc d x\n\ne\n",
                            _bad("{path}:2: malformed score line")),
    "bad number beats a later bad field count": (
        b"\na b x\nc d\n", _bad("{path}:2: malformed score line")),
    "malformed line beats an earlier nan": (
        b"a b nan\nc d\n", _bad("{path}:2: malformed score line")),
}


def _well_formed_trials(raw):
    """The trial list of the three-field lines of a score file (universal
    newlines, fields split by `str.split`), so that each case reads
    aligned up to its first malformed line."""
    text = raw.decode("utf-8", "replace")
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    parts = [p for p in map(str.split, lines) if len(p) == 3]
    return TrialList([p[0] for p in parts], [p[1] for p in parts])


@pytest.mark.parametrize("case", list(SCORE_CASES))
def test_read_scores_parity(tmp_path, case):
    raw, expected = SCORE_CASES[case]
    trials = _well_formed_trials(raw)
    _check(lambda p: read_scores(p, trials), tmp_path, raw, expected,
           _score_result)


@pytest.mark.parametrize("raw, expected", [
    (b"a b 0.5\nc d 1\n", (*_AB_CD, [0.5, 1.0])),
    (b"a b 0.5\n\nc d 1", (*_AB_CD, [0.5, 1.0])),
    (b"a b 0.5\nc e 1\n", _bad("{path} does not match the trial list",
                               MisalignedTrials)),
    (b"a b 0.5\nc d 1\ne f 2\n", _bad("{path} does not match the trial list",
                                      MisalignedTrials)),
    (b"a b 0.5\n", _bad("{path} does not match the trial list",
                        MisalignedTrials)),
    (b"a b 0.5\nc e x\n", _bad("{path}:2: malformed score line")),
    (b"a e 0.5\nc d\n", _bad("{path}:2: malformed score line")),
    (b"a b 0.5\nc d nan\ne f\n", _bad("{path}:3: malformed score line")),
    (b"a b nan\n", _bad("{path} does not match the trial list",
                        MisalignedTrials)),
    (b"a b 0.5\nc d 1\ne f inf\n", _bad(
        "{path} does not match the trial list", MisalignedTrials)),
    (b"a b inf\nc e 1\n", _bad("{path} does not match the trial list",
                               MisalignedTrials)),
    (b"a b 0.5\nc d -inf\n", _bad("{path}:2: score '-inf' is not finite")),
])
def test_read_scores_against_a_trial_list_parity(tmp_path, raw, expected):
    trials = TrialList(["a", "c"], ["b", "d"], [1, 0])
    _check(lambda p: read_scores(p, trials), tmp_path, raw, expected,
           _score_result)


_META_HEAD = b"utt_id,speech_frames,duration_s\n"


def _meta(frames, duration, speaker=None):
    return UttMeta(frames, duration, speaker)


METADATA_CASES = {
    "crlf": (b"utt_id,speech_frames,duration_s\r\na,300,3.5\r\n",
             {"a": _meta(300, 3.5)}),
    "lone cr": (b"utt_id,speech_frames,duration_s\ra,300,3.5\rb,1,1\r",
                {"a": _meta(300, 3.5), "b": _meta(1, 1.0)}),
    "no final newline": (_META_HEAD + b"a,300,3.5", {"a": _meta(300, 3.5)}),
    "short row": (_META_HEAD + b"a,300\n", _bad(
        "{path}:2: malformed row (could not convert string to float: '')")),
    "one-field row": (_META_HEAD + b"a\n", _bad(
        "{path}:2: malformed row (invalid literal for int() with base 10: "
        "'')")),
    "long row": (_META_HEAD + b"a,300,3.5,x,y\n", {"a": _meta(300, 3.5)}),
    "trailing comma": (_META_HEAD + b"a,1,1,\n", {"a": _meta(1, 1.0)}),
    "quoted fields": (_META_HEAD + b'"a,b",300,"3.5"\n',
                      {"a,b": _meta(300, 3.5)}),
    "quote inside a field": (_META_HEAD + b'"a"b,1,1\n', {"ab": _meta(1, 1.0)}),
    "unterminated quote": (_META_HEAD + b'"a,1,1\n', _bad(
        "{path}:2: malformed row (invalid literal for int() with base 10: "
        "'')")),
    "quoted newline counts its lines": (
        _META_HEAD + b'"a\nb",300,3.5\nc,1,x\n',
        _bad("{path}:4: malformed row (could not convert string to float: "
             "'x')")),
    "all commas": (_META_HEAD + b",,\n", _bad(
        "{path}:2: malformed row (invalid literal for int() with base 10: "
        "'')")),
    "all commas with speaker": (
        b"utt_id,speech_frames,duration_s,speaker\n,,,\n",
        _bad("{path}:2: malformed row (invalid literal for int() with base "
             "10: '')")),
    "empty id": (_META_HEAD + b",1,1\n", {"": _meta(1, 1.0)}),
    "blank rows": (_META_HEAD + b"\na,300,3.5\n\n", {"a": _meta(300, 3.5)}),
    "blank rows count their lines": (_META_HEAD + b"\n\na,x,3.5\n", _bad(
        "{path}:4: malformed row (invalid literal for int() with base 10: "
        "'x')")),
    "whitespace is kept in ids": (_META_HEAD + b"  a , 300 , 3.5 \n",
                                  {"  a ": _meta(300, 3.5)}),
    "short row with a speaker column": (
        b"utt_id,speech_frames,duration_s,speaker\na,300,3.5\n"
        b"b,200,2.5,s\nc,100,1,\n",
        {"a": _meta(300, 3.5), "b": _meta(200, 2.5, "s"),
         "c": _meta(100, 1.0)}),
    "columns in any order": (b"speech_frames,utt_id,duration_s\n300,a,3.5\n",
                             {"a": _meta(300, 3.5)}),
    "repeated header column takes the last": (
        b"utt_id,speech_frames,duration_s,utt_id\na,300,3.5,b\n",
        {"b": _meta(300, 3.5)}),
    "missing column": (b"utt_id,speech_frames\na,300\n",
                       _bad("{path}: bad header ['utt_id', 'speech_frames']")),
    "blank first line": (b"\n" + _META_HEAD + b"a,1,1\n",
                         _bad("{path}: bad header []")),
    "empty file": (b"", _bad("{path}: bad header None")),
    "duplicate id": (_META_HEAD + b"a,300,3.5\na,1,1\n",
                     _bad("{path}:3: duplicate id 'a'", DuplicateId)),
    "non-utf-8 byte": (_META_HEAD + b"a,300,3.5\n\xff,1,1\n", _bad(
        "{path}: unreadable text ('utf-8' codec can't decode byte 0xff in "
        "position 42: invalid start byte)")),
    "invalid frame count": (_META_HEAD + b"a,601,6\n", _bad(
        "{path}:2: malformed row (speech_frames=601 inconsistent with "
        "duration_s=6.0 at 100.0 fps)")),
    "negative frame count": (_META_HEAD + b"a,300,3.5\nb,-1,1\n", _bad(
        "{path}:3: malformed row (speech_frames=-1 must be a non-negative "
        "integer)")),
    # the first failing row, and in one row a duplicate before a bad field
    "malformed row before a duplicate id": (
        _META_HEAD + b"a,300,3.5\nb,x,1\na,1,1\n",
        _bad("{path}:3: malformed row (invalid literal for int() with base "
             "10: 'x')")),
    "duplicate id before a malformed row": (
        _META_HEAD + b"a,300,3.5\na,1,1\nb,x,1\n",
        _bad("{path}:3: duplicate id 'a'", DuplicateId)),
    "duplicate id on a malformed row": (
        _META_HEAD + b"a,300,3.5\na,x,1\n",
        _bad("{path}:3: duplicate id 'a'", DuplicateId)),
    # frame counts are int64
    "frame count of 2**63 - 1": (
        _META_HEAD + b"a,9223372036854775807,1e17\n",
        {"a": _meta(2**63 - 1, 1e17)}),
    "frame count of 2**63": (_META_HEAD + b"a,9223372036854775808,1e17\n",
                             _bad("{path}:2: malformed row (speech_frames="
                                  "9223372036854775808 must be below "
                                  "2**63)")),
    # 90071992547409.92 * 100 + 0.5 is 2**53 exactly; 2**53 + 1 exceeds it,
    # though as a float64 it would round to 2**53
    "frame count one above a bound of 2**53": (
        _META_HEAD + b"a,9007199254740992,90071992547409.92\n"
        b"b,9007199254740993,90071992547409.92\n",
        _bad("{path}:3: malformed row (speech_frames=9007199254740993 "
             "inconsistent with duration_s=90071992547409.92 at 100.0 "
             "fps)")),
}


@pytest.mark.parametrize("case", list(METADATA_CASES))
def test_read_metadata_parity(tmp_path, case):
    raw, expected = METADATA_CASES[case]
    _check(read_metadata, tmp_path, raw, expected)


_QMF_HEAD = b"utt_id,dur_q,imp_q\n"

QMF_CASES = {
    "crlf": (b"utt_id,dur_q,imp_q\r\na,1.5,0.25\r\n", {"a": (1.5, 0.25)}),
    "short row": (_QMF_HEAD + b"a,1.5", _bad(
        "{path}:2: malformed row (could not convert string to float: '')")),
    "long row": (_QMF_HEAD + b"a,1.5,0.25,9\n", {"a": (1.5, 0.25)}),
    "all commas": (_QMF_HEAD + b",,\n", _bad(
        "{path}:2: malformed row (could not convert string to float: '')")),
    "quoted fields": (_QMF_HEAD + b'"a",1.5,"0.25"\n', {"a": (1.5, 0.25)}),
    "blank rows": (_QMF_HEAD + b"\na,1,2\n\n", {"a": (1.0, 2.0)}),
    "spaces around numbers": (_QMF_HEAD + b"a, 1 ,2\n", {"a": (1.0, 2.0)}),
    "extra column": (b"utt_id,dur_q,imp_q,x\na,1,2,3\n", _bad(
        "{path}: bad header ['utt_id', 'dur_q', 'imp_q', 'x']")),
    "duplicate id": (_QMF_HEAD + b"a,1,2\na,3,4\n",
                     _bad("{path}:3: duplicate id 'a'", DuplicateId)),
    "non-finite": (_QMF_HEAD + b"a,1,nan\n",
                   _bad("{path}:2: malformed row (qmf values must be finite)")),
}


@pytest.mark.parametrize("case", list(QMF_CASES))
def test_read_qmf_cache_parity(tmp_path, case):
    raw, expected = QMF_CASES[case]
    _check(read_qmf_cache, tmp_path, raw, expected)


LABEL_CASES = {
    "crlf, no final newline": (b"a 1\r\nb 2", {"a": 1, "b": 2}),
    "whitespace and leading zero": (b"  a\t01 \n", {"a": 1}),
    "not a number": (b"a 1\nb x\n", _bad(
        "{path}:2: malformed row (invalid literal for int() with base 10: "
        "'x')")),
    "duplicate id": (b"a 1\na 2\n",
                     _bad("{path}:2: duplicate id 'a'", DuplicateId)),
    "three fields": (b"a 1 2\n", _bad(
        "{path}:1: malformed row (expected `utt_id cluster_index`)")),
    "negative": (b"a -1\n",
                 _bad("{path}:1: malformed row (negative cluster index -1)")),
}


@pytest.mark.parametrize("case", list(LABEL_CASES))
def test_read_labels_parity(tmp_path, case):
    raw, expected = LABEL_CASES[case]
    _check(read_labels, tmp_path, raw, expected)


# ---------------------------------------------------------------------------
# writer golden bytes

def test_write_scores_golden_bytes(tmp_path):
    values = [-0.0, 5e-324, 1e-5, 1e-4, 123456789.5, 1e16, 0.123456789123]
    trials = TrialList(list("abcdefg"), list("tuvwxyz"))
    path = tmp_path / "s.txt"
    write_scores(ScoreSet(trials, values), path)
    assert path.read_bytes() == (
        b"a t -0\nb u 4.94065646e-324\nc v 1e-05\nd w 0.0001\n"
        b"e x 123456790\nf y 1e+16\ng z 0.123456789\n")


def test_write_scores_empty(tmp_path):
    path = tmp_path / "s.txt"
    write_scores(ScoreSet(TrialList([], []), []), path)
    assert path.read_bytes() == b""


def test_write_trials_golden_bytes(tmp_path):
    path = tmp_path / "t.txt"
    write_trials(TrialList(["a", "b", "c", "d"], ["x", "y", "z", "w"],
                           [1, -1, 0, 1]), path)
    assert path.read_bytes() == b"a x 1\nb y\nc z 0\nd w 1\n"
    write_trials(TrialList([], []), path)
    assert path.read_bytes() == b""


@pytest.mark.parametrize("bad", ["b 1", "", " b", "b\t", "b\r", "b\x0c",
                                 "b\u2028"])
@pytest.mark.parametrize("writer", ["trials", "scores", "labels"])
def test_text_writers_name_the_first_id_that_is_not_one_field(
        tmp_path, writer, bad):
    # an id must be one field of `str.split` (written, the trial "x b 1"
    # would read back as the target trial (x, b)); the error names the
    # first bad id in line order, and no file is opened
    path = tmp_path / "out.txt"
    trials = TrialList(["a", "c", "a", "y "], ["x", bad, bad, "z"])
    write = {
        "trials": lambda: write_trials(trials, path),
        "scores": lambda: write_scores(ScoreSet(trials, [0.0] * 4), path),
        "labels": lambda: write_labels({"a": 0, bad: 1, "y ": 2}, path),
    }[writer]
    with pytest.raises(SvkitError) as info:
        write()
    assert str(info.value).startswith(
        f"{path}: id {bad!r} is empty or contains whitespace")
    assert not path.exists()


@pytest.mark.parametrize("order", ["C", "F"])
def test_write_embeddings_golden_bytes(tmp_path, order):
    path = tmp_path / "e.svb"
    vectors = np.array([[1.5, -0.25, 3.0], [0.1, 0.0, -2.0]], order=order)
    write_embeddings(EmbeddingSet(["a", "bb"], vectors), path)
    assert path.read_bytes().hex() == (
        "53564542" "01000000" "03000000" "0200000000000000"
        "0100" "61" "0000c03f" "000080be" "00004040"
        "0200" "6262" "cdcccc3d" "00000000" "000000c0")


def test_write_metadata_golden_bytes(tmp_path):
    path = tmp_path / "m.csv"
    write_metadata({"a": UttMeta(300, 3.5, "s1"), "b": UttMeta(0, 2.0)}, path)
    assert path.read_bytes() == (b"utt_id,speech_frames,duration_s,speaker\r\n"
                                 b"a,300,3.5,s1\r\nb,0,2.0,\r\n")
    write_metadata({"a": UttMeta(300, 3.5), "b,c": UttMeta(0, 0.1)}, path)
    assert path.read_bytes() == (b"utt_id,speech_frames,duration_s\r\n"
                                 b'a,300,3.5\r\n"b,c",0,0.1\r\n')


def test_written_scores_read_back_bit_exact_at_nine_digits(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.standard_normal(1000) * 10.0 ** rng.integers(-6, 6, 1000)
    trials = TrialList([f"e{i}" for i in range(1000)],
                       [f"t{i}" for i in range(1000)])
    path = tmp_path / "s.txt"
    write_scores(ScoreSet(trials, values), path)
    back = read_scores(path, trials).scores
    assert np.array_equal(back, [float(f"{v:.9g}") for v in values])


# ---------------------------------------------------------------------------
# block writes, one string per id, UTF-8 under any locale

B = _RECORD_BLOCK


@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 2 * B + 3])
def test_writers_match_one_shot_format_at_block_edges(tmp_path, n):
    # labels 1, 0 and unknown mixed in every block, scores across the
    # %.9g range
    rng = np.random.default_rng(n)
    enroll = [f"e{i % 97}" for i in range(n)]
    test = [f"t{i % 89}" for i in range(n)]
    labels = rng.integers(-1, 2, size=n)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
    trials = TrialList(enroll, test, labels)
    tail = {1: " 1", 0: " 0", -1: ""}

    path = tmp_path / "t.txt"
    write_trials(trials, path)
    assert path.read_bytes() == "".join(
        f"{e} {t}{tail[lab]}\n"
        for e, t, lab in zip(enroll, test, labels.tolist())).encode()
    path = tmp_path / "s.txt"
    write_scores(ScoreSet(trials, values), path)
    assert path.read_bytes() == (("%s %s %.9g\n" * n) % tuple(
        x for row in zip(enroll, test, values.tolist()) for x in row)
    ).encode()


def test_readers_keep_one_string_per_distinct_id(tmp_path):
    rng = np.random.default_rng(3)
    ids = [f"spk{i:04d}_utt000" for i in range(40)]
    e, t = rng.integers(0, 40, (2, 500))
    trials = TrialList([ids[i] for i in e], [ids[i] for i in t],
                       rng.integers(0, 2, 500))
    write_trials(trials, tmp_path / "t.txt")
    write_scores(ScoreSet(trials, rng.standard_normal(500)),
                 tmp_path / "s.txt")
    got = read_trials(tmp_path / "t.txt")
    assert got.enroll_ids == trials.enroll_ids
    assert got.test_ids == trials.test_ids
    both = got.enroll_ids + got.test_ids
    assert len({id(u) for u in both}) == len(set(both))
    # a score file keeps no ids of its own: it is read against the list
    assert read_scores(tmp_path / "s.txt", trials).trials is trials


_ROUND_TRIP = r"""
import os, sys
from svkit import (TrialList, UttMeta, read_metadata, read_scores,
                   read_trials, write_metadata, write_scores, write_trials)
from svkit.calibration import read_qmf_cache, write_qmf_cache
from svkit.clustering import read_labels, write_labels
from svkit.scoring import ScoreSet

u, v = "caf\u00e9", "\u8a71\u8005"
path = lambda name: os.path.join(sys.argv[1], name)
trials = TrialList([u], [v], [1])
write_trials(trials, path("t.txt"))
back = read_trials(path("t.txt"))
assert (back.enroll_ids, back.test_ids) == ([u], [v])
write_scores(ScoreSet(trials, [0.5]), path("s.txt"))
assert read_scores(path("s.txt"), trials).scores.tolist() == [0.5]
write_metadata({u: UttMeta(300, 3.5, v)}, path("m.csv"))
assert read_metadata(path("m.csv")) == {u: UttMeta(300, 3.5, v)}
write_qmf_cache({u: (1.0, 2.0)}, path("q.csv"))
assert read_qmf_cache(path("q.csv")) == {u: (1.0, 2.0)}
write_labels({u: 3}, path("l.txt"))
assert read_labels(path("l.txt")) == {u: 3}
with open(path("t.txt"), "rb") as f:
    sys.stdout.buffer.write(f.read())
"""


def test_text_files_are_utf8_under_an_ascii_locale(tmp_path):
    # the C locale without UTF-8 coercion makes ASCII the default encoding
    src = os.path.dirname(os.path.dirname(svkit.__file__))
    env = {**os.environ, "PYTHONPATH": src, "LC_ALL": "C",
           "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    out = subprocess.run([sys.executable, "-c", _ROUND_TRIP, str(tmp_path)],
                         capture_output=True, env=env)
    assert out.returncode == 0, out.stderr.decode()
    assert out.stdout.decode("utf-8") == "caf\u00e9 \u8a71\u8005 1\n"


# ---------------------------------------------------------------------------
# block reads: files of several text blocks, each read with C-level calls
# when in the writers' layout and line by line otherwise, give the results
# and errors of a line-by-line reader (`oracles.read_*_oracle`)

N_LINES = 2000  # about nine text blocks of the lines below


def _block_trials(seed=5):
    rng = np.random.default_rng(seed)
    ids = [f"spk{i:04d}_utt{i % 7:03d}" for i in range(300)]
    e, t = rng.integers(0, len(ids), (2, N_LINES))
    return TrialList([ids[i] for i in e], [ids[i] for i in t],
                     rng.integers(0, 2, N_LINES))


def _written_lines(tmp_path, write, obj):
    path = tmp_path / "written.txt"
    write(obj, path)
    return path.read_text(encoding="utf-8").splitlines(keepends=True)


def _replace(j, old, new):
    return lambda lines: (lines[:j] + [lines[j].replace(old, new)]
                          + lines[j + 1:])


def _insert(j, line):
    return lambda lines: lines[:j] + [line] + lines[j:]


def _last_field(j, text):
    """Line j's last field replaced by `text`."""
    return lambda lines: (lines[:j] + [lines[j].rsplit(" ", 1)[0]
                                       + f" {text}\n"] + lines[j + 1:])


def _each(*edits):
    def edit(lines):
        for one in edits:
            lines = one(lines)
        return lines
    return edit


def _crlf_from(j):
    return lambda lines: (lines[:j]
                          + [u.replace("\n", "\r\n") for u in lines[j:]])


def _drop_last_newline(lines):
    return lines[:-1] + [lines[-1].rstrip("\n")]


# edits after the first block that every line-by-line reader reads as the
# writers' layout
LAYOUT_EDITS = {
    "crlf from a later line on": _crlf_from(700),
    "lone cr": _replace(900, "\n", "\r"),
    "tabs": _replace(777, " ", "\t"),
    "runs of spaces": _replace(1200, " ", "   "),
    "trailing spaces": _replace(450, "\n", "  \n"),
    "leading spaces": _replace(451, "spk", "  spk"),
    "blank line": _insert(640, "\n"),
    "whitespace-only line": _insert(1500, " \t \n"),
    "u2028 inside a line": _replace(333, " ", "\u2028 "),
    "x1c inside a line": _replace(1999, " ", " \x1c"),
    "no final newline": _drop_last_newline,
    "a line longer than a block": _replace(1000, " ", " " * 2 * _TEXT_BLOCK),
    "all at once": _each(_crlf_from(1700), _replace(777, " ", "\t"),
                         _insert(640, "\n"), _replace(333, " ", "\u2028 ")),
}

TRIAL_EDITS = {
    **LAYOUT_EDITS,
    "an id longer than a block": _replace(
        1000, "spk", "x" * (2 * _TEXT_BLOCK) + "spk"),
    "unlabeled line among labeled ones": lambda lines: (
        lines[:800] + [lines[800].rsplit(" ", 1)[0] + "\n"] + lines[801:]),
    "label 2": _last_field(1300, "2"),
    "label 01": _last_field(1300, "01"),
    "one field": _replace(1300, " ", "_"),
    "four fields": _replace(1300, "\n", " x\n"),
    "first bad line wins": _each(_replace(600, "\n", " x\n"),
                                 _replace(1300, " ", "_")),
    "bad line in the last block": _replace(1999, "\n", " x\n"),
}


def _outcome(reader, path):
    try:
        return reader(path)
    except SvkitError as e:
        return type(e), str(e)


@pytest.mark.parametrize("case", list(TRIAL_EDITS))
def test_read_trials_of_several_blocks_equals_line_by_line(tmp_path, case):
    lines = _written_lines(tmp_path, write_trials, _block_trials())
    edited = TRIAL_EDITS[case](lines)
    assert edited != lines
    path = tmp_path / "t.txt"
    path.write_text("".join(edited), encoding="utf-8", newline="")
    assert len(path.read_bytes()) > 4 * _TEXT_BLOCK
    want = _outcome(oracles.read_trials_oracle, path)
    got = _outcome(read_trials, path)
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
    else:
        assert _trial_result(got) == want


SCORE_EDITS = {
    **LAYOUT_EDITS,
    "float spellings": _each(_last_field(500, "+1"), _last_field(501, "1_0"),
                             _last_field(502, "1E3"), _last_field(503, "01")),
    "bad number": _last_field(1300, "0.5x"),
    "two fields": _replace(1300, " ", "_"),
    "nan": _last_field(1100, "nan"),
    "first non-finite line wins": _each(_last_field(1100, "-inf"),
                                        _last_field(1600, "nan")),
    "misaligned id": _replace(1200, "spk", "spq"),
    "a line too many": lambda lines: lines + [lines[0]],
    "a line too few": lambda lines: lines[:-1],
    "malformed beats an earlier misaligned line": _each(
        _replace(500, "spk", "spq"), _last_field(1500, "0.5x")),
    "misaligned beats an earlier non-finite score": _each(
        _last_field(500, "1e400"), _replace(1500, "spk", "spq")),
}


@pytest.mark.parametrize("case", list(SCORE_EDITS))
def test_read_scores_of_several_blocks_equals_line_by_line(tmp_path, case):
    trials = _block_trials()
    values = np.random.default_rng(6).standard_normal(N_LINES)
    lines = _written_lines(tmp_path, write_scores, ScoreSet(trials, values))
    edited = SCORE_EDITS[case](lines)
    assert edited != lines
    path = tmp_path / "s.txt"
    path.write_text("".join(edited), encoding="utf-8", newline="")
    want = _outcome(lambda p: oracles.read_scores_oracle(
        p, trials.enroll_ids, trials.test_ids), path)
    got = _outcome(lambda p: read_scores(p, trials), path)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got.scores.tolist() == want


def test_non_ascii_ids_past_the_first_block_read_back(tmp_path):
    # a block holding a non-ASCII id is read line by line
    trials = _block_trials()
    enroll = list(trials.enroll_ids)
    enroll[1500] = "caf\u00e9"
    trials = TrialList(enroll, trials.test_ids, trials.labels)
    values = np.random.default_rng(7).standard_normal(N_LINES)
    write_trials(trials, tmp_path / "t.txt")
    write_scores(ScoreSet(trials, values), tmp_path / "s.txt")
    back = read_trials(tmp_path / "t.txt")
    assert _trial_result(back) == oracles.read_trials_oracle(
        tmp_path / "t.txt")
    assert back.enroll_ids[1500] == "caf\u00e9"
    scores = read_scores(tmp_path / "s.txt", back).scores
    assert scores.tolist() == [float(f"{v:.9g}") for v in values]


# ids that look like labels or numbers, hold characters beyond ASCII or
# control characters that are not whitespace
_RANDOM_IDS = ["a", "spk0001_utt002", "0", "1", "1e3", "caf\u00e9",
               "\u30ab\u30ca", "x\x00y", "z\x7f", "id" * 20]
_RANDOM_SEPARATORS = {"space": [" "],
                      "any": [" ", "\t", "\x0b", "\x0c", "\x1c", "\x1f",
                              "\x85", "\xa0", "\u2028", "\u3000"]}


def _random_line(rng, fields, separators, odd, bad):
    """`fields` parted by separators drawn from `separators`. With chance
    `odd` each: a run of separators, whitespace at either end, a blank or
    whitespace-only line before it; with chance `bad`, a field dropped or
    added."""
    fields = list(fields)
    if rng.random() < bad:
        fields.pop()
    if rng.random() < bad:
        fields.append("x")

    def gap():
        return "".join(rng.choice(separators, 1 + (rng.random() < odd)))

    line = gap().join(fields)
    if rng.random() < odd:
        line = gap() + line
    if rng.random() < odd:
        line += gap()
    if rng.random() < odd:
        line = ["\n", " \t\n"][rng.integers(2)] + line
    return line + "\n"


@pytest.mark.parametrize("odd, bad", [(0.0, 0.0), (0.01, 0.0), (0.3, 0.0),
                                      (0.01, 0.001)])
@pytest.mark.parametrize("separators", list(_RANDOM_SEPARATORS))
@pytest.mark.parametrize("labels", ["all", "some", "none"])
def test_random_layouts_read_as_line_by_line(tmp_path, odd, bad, separators,
                                             labels):
    # blocks of every kind the readers take apart: the writers' layout,
    # other single separators, labeled and unlabeled lines together, lines
    # off that layout at several rates, and malformed lines; each file is
    # read as the line-by-line oracles read it
    rng = np.random.default_rng([int(odd * 1000), int(bad * 1000),
                                 len(separators), len(labels)])
    seps = _RANDOM_SEPARATORS[separators]
    pairs = [[str(u) for u in rng.choice(_RANDOM_IDS, 2)]
             for _ in range(1500)]
    label = {"all": lambda: [str(rng.integers(2))],
             "some": lambda: [str(rng.integers(2))] * rng.integers(2),
             "none": lambda: []}[labels]
    path = tmp_path / "t.txt"
    path.write_text("".join(_random_line(rng, p + label(), seps, odd, bad)
                            for p in pairs), encoding="utf-8", newline="")
    assert len(path.read_bytes()) > 3 * _TEXT_BLOCK
    want = _outcome(oracles.read_trials_oracle, path)
    got = _outcome(read_trials, path)
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
    else:
        assert _trial_result(got) == want
    if labels != "all":
        return
    scores = rng.standard_normal(len(pairs))
    path = tmp_path / "s.txt"
    path.write_text("".join(_random_line(rng, p + [f"{v:.9g}"], seps, odd,
                                         bad)
                            for p, v in zip(pairs, scores)),
                    encoding="utf-8", newline="")
    trials = TrialList(*zip(*pairs))
    want = _outcome(lambda p: oracles.read_scores_oracle(
        p, trials.enroll_ids, trials.test_ids), path)
    got = _outcome(lambda p: read_scores(p, trials), path)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got.scores.tolist() == want


def test_score_lines_of_two_fields_are_malformed_where_fields_regroup(
        tmp_path):
    # the six fields would regroup into two aligned triples that parse
    path = tmp_path / "s.txt"
    path.write_text("0 1\n0 1\n0 1\n")
    with pytest.raises(SvkitError) as err:
        read_scores(path, TrialList(["0", "1"], ["1", "0"]))
    assert str(err.value) == f"{path}:1: malformed score line"


def test_the_wide_spaces_are_those_str_split_splits_on():
    # the readers make these spaces before telling a block's fields apart
    from svkit.scoring import _WIDE_SPACE
    assert _WIDE_SPACE == "".join(c for c in map(chr, range(128, 0x110000))
                                  if c.isspace())


@pytest.mark.parametrize("name, head", [
    ("trials", b"a b 1\n"),
    ("scores", b"a b 0.5\n"),
    ("metadata", b"utt_id,speech_frames,duration_s\n"),
])
@pytest.mark.parametrize("offset", [20000, 30000])
def test_undecodable_byte_past_the_first_chunk_names_its_file_offset(
        tmp_path, name, head, offset):
    # the text is decoded a chunk at a time; the error names the byte's
    # offset in the file, not in its chunk
    body = {"trials": b"a b 1\n", "scores": b"a b 0.5\n",
            "metadata": b"a,300,3.5\n"}[name]
    raw = bytearray(head + body * (offset // len(body)))
    raw[offset] = 0xFF
    path = tmp_path / "f.txt"
    path.write_bytes(bytes(raw))
    reader = {"trials": read_trials,
              "scores": lambda p: read_scores(p, TrialList(["a"], ["b"])),
              "metadata": read_metadata}[name]
    with pytest.raises(SvkitError) as err:
        reader(path)
    assert str(err.value) == (
        f"{path}: unreadable text ('utf-8' codec can't decode byte 0xff in "
        f"position {offset}: invalid start byte)")


@pytest.mark.parametrize("bad", [b"\xff", b"\xe2\x41", b"\xe2\x82",
                                 b"\xf0\x9f\x98", b"\xc3"])
@pytest.mark.parametrize("shift", [-3, -2, -1, 0, 1, 2])
def test_undecodable_bytes_near_a_decode_chunk_edge(tmp_path, bad, shift):
    # multibyte ids straddle the edges of the chunks the file is decoded
    # again in; a bad byte or a character cut short (at the file's end
    # too) is named as a decode of the whole file names it
    good = "caf\u00e9 \u20ac\U0001f600 1\n".encode()
    for at in (3 * _DECODE_CHUNK + shift, 3 * _DECODE_CHUNK + 2 + shift):
        head = (good * (at // len(good) + 1))[:at]
        for raw in (head + bad + good * 3, head + bad):
            path = tmp_path / "t.txt"
            path.write_bytes(raw)
            with pytest.raises(UnicodeDecodeError) as want:
                raw.decode("utf-8")
            with pytest.raises(SvkitError) as err:
                read_trials(path)
            assert str(err.value) == f"{path}: unreadable text ({want.value})"
