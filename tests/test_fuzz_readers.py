"""Truncated and corrupted files: every reader either parses them or raises
SvkitError, never another exception. Derandomized, so runs repeat."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from svkit import (
    CalibrationModel,
    EmbeddingSet,
    KMeansModel,
    TrialList,
    UttMeta,
    read_embeddings,
    read_kmeans,
    read_metadata,
    read_model,
    read_scores,
    read_trials,
    write_embeddings,
    write_kmeans,
    write_metadata,
    write_model,
    write_scores,
    write_trials,
)
from svkit.calibration import read_qmf_cache, write_qmf_cache
from svkit.clustering import read_labels, write_labels
from svkit.errors import SvkitError
from svkit.scoring import ScoreSet

_TRIALS = TrialList(["a", "b", "c"], ["b", "c", "a"], [1, 0, 1])


def _writers():
    """(writer, reader) per file format, each writer taking a path."""
    rng = np.random.default_rng(0)
    emb = EmbeddingSet(["a", "bb", "ccc"], rng.standard_normal((3, 4)))
    return {
        "svb": (lambda p: write_embeddings(emb, p), read_embeddings),
        "svkm": (lambda p: write_kmeans(
            KMeansModel(rng.standard_normal((3, 2)), [4, 0, 2]), p),
            read_kmeans),
        "trials": (lambda p: write_trials(_TRIALS, p), read_trials),
        "scores": (lambda p: write_scores(
            ScoreSet(_TRIALS, [0.5, -1.25, 3e-3]), p),
            lambda p: read_scores(p, _TRIALS)),
        "labels": (lambda p: write_labels({"a": 0, "bb": 12}, p),
                   read_labels),
        "metadata": (lambda p: write_metadata(
            {"a": UttMeta(300, 3.5, "s1"), "b": UttMeta(0, 2.0)}, p),
            read_metadata),
        "qmf": (lambda p: write_qmf_cache(
            {"a": (5.7, 0.25), "b": (6.25, -0.125)}, p), read_qmf_cache),
        "model": (lambda p: write_model(CalibrationModel(
            np.array([1.5, -0.5]), 0.25, ("score", "min_dur_q")), p),
            read_model),
    }


FORMATS = sorted(_writers())


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """format -> (reader, valid bytes, scratch path)."""
    d = tmp_path_factory.mktemp("fuzz")
    out = {}
    for name, (write, read) in _writers().items():
        path = d / name
        write(path)
        read(path)  # the unmodified file parses
        out[name] = (read, path.read_bytes(), d / f"{name}.bad")
    return out


def _parses_or_rejects(reader, path, raw):
    path.write_bytes(raw)
    try:
        reader(path)
    except SvkitError:
        pass


@pytest.mark.parametrize("name", FORMATS)
def test_every_truncation(files, name):
    reader, raw, path = files[name]
    for cut in range(len(raw)):
        _parses_or_rejects(reader, path, raw[:cut])


@pytest.mark.parametrize("name", FORMATS)
@settings(derandomize=True, max_examples=80, deadline=None,
          database=None)
@given(data=st.data())
def test_byte_flips(files, name, data):
    reader, raw, path = files[name]
    flips = data.draw(st.lists(
        st.tuples(st.integers(0, len(raw) - 1), st.integers(0, 255)),
        min_size=1, max_size=4))
    corrupt = bytearray(raw)
    for pos, value in flips:
        corrupt[pos] = value
    _parses_or_rejects(reader, path, bytes(corrupt))
