"""Text-format parity corpus and writer golden bytes.

Each reader case pins either the parsed result or the exact exception class
and message (with its line number) on an edge-case file: line endings,
whitespace, characters `str.split` treats as whitespace but the file
iterator does not treat as line breaks, undecodable bytes, near-miss
labels and numbers, and CSV rows that are short, long, quoted or empty.
Each writer case pins the exact bytes written."""

import numpy as np
import pytest

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
from svkit.clustering import read_labels
from svkit.errors import DuplicateId, MisalignedTrials, SvkitError
from svkit.scoring import ScoreSet


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


@pytest.mark.parametrize("case", list(SCORE_CASES))
def test_read_scores_parity(tmp_path, case):
    raw, expected = SCORE_CASES[case]
    _check(read_scores, tmp_path, raw, expected, _score_result)


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
