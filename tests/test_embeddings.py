import re

import numpy as np
import pytest

from oracles import lloyd_kmeans

from svkit import (
    EmbeddingSet,
    UttMeta,
    length_normalize,
    read_embeddings,
    read_metadata,
    synth_dataset,
    write_embeddings,
    write_metadata,
)
from svkit.errors import (
    BadMagic,
    DuplicateId,
    SvkitError,
    TruncatedFile,
    UnknownId,
    ZeroVector,
)
from svkit.metrics import adjusted_rand_index


def test_length_normalize_3_4_5():
    s = EmbeddingSet(["a"], [[3.0, 4.0]])
    out = length_normalize(s)
    assert np.allclose(out.vectors[0], [0.6, 0.8])


def test_length_normalize_idempotent():
    s = EmbeddingSet(["a"], [[1.0, 0.0]])
    out = length_normalize(length_normalize(s))
    assert np.array_equal(out.vectors, length_normalize(s).vectors)


def test_length_normalize_random_norms():
    rng = np.random.default_rng(0)
    vecs = rng.standard_normal((50, 64)) * 3.0
    out = length_normalize(EmbeddingSet([f"u{i}" for i in range(50)], vecs))
    # independent norm computation
    norms = [sum(v * v for v in row) ** 0.5 for row in out.vectors]
    assert max(abs(n - 1.0) for n in norms) < 1e-9


def test_length_normalize_preserves_cosine():
    rng = np.random.default_rng(1)
    vecs = rng.standard_normal((10, 8)) * rng.uniform(0.1, 5.0, (10, 1))
    s = EmbeddingSet([f"u{i}" for i in range(10)], vecs)
    out = length_normalize(s)
    for i in range(10):
        for j in range(i + 1, 10):
            orig = vecs[i] @ vecs[j] / (
                np.linalg.norm(vecs[i]) * np.linalg.norm(vecs[j]))
            assert abs(out.vectors[i] @ out.vectors[j] - orig) < 1e-12


def test_length_normalize_zero_vector():
    s = EmbeddingSet(["a", "b"], [[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ZeroVector):
        length_normalize(s)


def test_duplicate_id_rejected():
    with pytest.raises(DuplicateId):
        EmbeddingSet(["a", "a"], [[1.0], [2.0]])


@pytest.mark.parametrize("lookup", ["index", "vector"])
def test_unknown_id_lookup_raises_unknown_id(lookup):
    s = EmbeddingSet(["a"], [[1.0]])
    with pytest.raises(UnknownId, match="^unknown utterance id 'b'$"):
        getattr(s, lookup)("b")


def test_meta_keys_subset():
    with pytest.raises(SvkitError):
        EmbeddingSet(["a"], [[1.0]], {"b": UttMeta(0, 0.0)})


def test_uttmeta_frame_consistency():
    UttMeta(speech_frames=600, duration_s=6.0)
    with pytest.raises(SvkitError):
        UttMeta(speech_frames=601, duration_s=6.0)


def test_binary_empty_set(tmp_path):
    path = tmp_path / "e.svb"
    write_embeddings(EmbeddingSet([], np.empty((0, 16))), path)
    assert path.stat().st_size == 20
    back = read_embeddings(path)
    assert len(back) == 0 and back.dim == 16


def test_binary_round_trip_bit_exact(tmp_path):
    vecs = np.array([[1.5, -2.25, 0.125, 3.0],
                     [0.1, 0.2, 0.3, 0.4]], dtype=np.float32)
    s = EmbeddingSet(["utt_a", "utt_b"], vecs.astype(np.float64))
    p1, p2 = tmp_path / "a.svb", tmp_path / "b.svb"
    write_embeddings(s, p1)
    back = read_embeddings(p1)
    write_embeddings(back, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert back.ids == s.ids
    assert np.array_equal(back.vectors, s.vectors)


def test_binary_bad_magic(tmp_path):
    path = tmp_path / "bad.svb"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(BadMagic):
        read_embeddings(path)


def test_binary_truncated(tmp_path):
    good = tmp_path / "g.svb"
    write_embeddings(EmbeddingSet(["a"], [[1.0, 2.0]]), good)
    bad = tmp_path / "t.svb"
    bad.write_bytes(good.read_bytes()[:-3])
    with pytest.raises(TruncatedFile):
        read_embeddings(bad)


def test_binary_header_count_beyond_file_size(tmp_path):
    good = tmp_path / "g.svb"
    write_embeddings(EmbeddingSet(["a"], [[1.0, 2.0]]), good)
    raw = good.read_bytes()
    bad = tmp_path / "h.svb"
    # header claims 2**40 records: rejected before anything is allocated
    bad.write_bytes(raw[:12] + (2**40).to_bytes(8, "little") + raw[20:])
    with pytest.raises(TruncatedFile, match="1099511627776 records"):
        read_embeddings(bad)


def test_metadata_round_trip(tmp_path):
    meta = {
        "a": UttMeta(300, 3.5, "spk1"),
        "b": UttMeta(0, 2.0, None),
    }
    path = tmp_path / "m.csv"
    write_metadata(meta, path)
    back = read_metadata(path)
    assert back["a"] == meta["a"]
    assert back["b"].speech_frames == 0
    assert back["b"].speaker is None


def test_metadata_duplicate_id(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("utt_id,speech_frames,duration_s\n"
                    "a,300,3.5\nb,200,2.5\na,100,1.5\n")
    with pytest.raises(DuplicateId, match=re.escape(f"{path}:4: ") + ".*'a'"):
        read_metadata(path)


def test_synth_noise_free_limit():
    s = synth_dataset(3, 4, 16, concentration=1e9, seed=0)
    for spk in range(3):
        base = s.vector(f"spk{spk:04d}_utt000")
        for u in range(1, 4):
            assert np.abs(s.vector(f"spk{spk:04d}_utt{u:03d}") - base).max() < 1e-6


def test_synth_deterministic():
    a = synth_dataset(5, 3, 8, 4.0, (2.0, 9.0), seed=42)
    b = synth_dataset(5, 3, 8, 4.0, (2.0, 9.0), seed=42)
    assert a.ids == b.ids
    assert np.array_equal(a.vectors, b.vectors)
    assert a.meta == b.meta


def test_synth_distinct_seeds_differ():
    a = synth_dataset(4, 2, 8, 4.0, seed=1)
    b = synth_dataset(4, 2, 8, 4.0, seed=2)
    assert np.abs(a.vectors - b.vectors).max() > 1e-3


def test_synth_kmeans_recovers_partition():
    s = synth_dataset(20, 10, 32, concentration=10.0, seed=3)
    # farthest-first seeding avoids Lloyd's random-init local minima
    chosen = [0]
    d2 = ((s.vectors - s.vectors[0]) ** 2).sum(axis=1)
    for _ in range(19):
        nxt = int(np.argmax(d2))
        chosen.append(nxt)
        d2 = np.minimum(d2, ((s.vectors - s.vectors[nxt]) ** 2).sum(axis=1))
    model = lloyd_kmeans(s, 20, init_centers=s.vectors[chosen])
    nearest = np.argmin(
        ((s.vectors[:, None, :] - model.centers[None, :, :]) ** 2).sum(-1),
        axis=1,
    )
    found = {u: int(nearest[i]) for i, u in enumerate(s.ids)}
    truth = {u: s.meta[u].speaker for u in s.ids}
    assert adjusted_rand_index(found, truth) > 0.95


def test_synth_durations_in_range():
    s = synth_dataset(5, 5, 8, 4.0, (3.0, 7.0), seed=6)
    for m in s.meta.values():
        assert 3.0 <= m.duration_s <= 7.0
        assert m.speech_frames <= m.duration_s * 100


@pytest.mark.parametrize("row, bad", [
    ("b,ten,2.5", "ten"),
    ("b,200", "''"),
    ("b,200,x", "x"),
])
def test_metadata_malformed_row_names_path_and_line(tmp_path, row, bad):
    path = tmp_path / "m.csv"
    path.write_text(f"utt_id,speech_frames,duration_s\na,300,3.5\n{row}\n")
    with pytest.raises(SvkitError, match=re.escape(f"{path}:3: ") + ".*"
                       + re.escape(bad)):
        read_metadata(path)


@pytest.mark.parametrize("duration", ["nan", "inf"])
def test_metadata_non_finite_duration(tmp_path, duration):
    path = tmp_path / "m.csv"
    path.write_text(f"utt_id,speech_frames,duration_s\na,0,{duration}\n")
    with pytest.raises(SvkitError, match=re.escape(f"{path}:2: ")):
        read_metadata(path)
    with pytest.raises(SvkitError, match="finite"):
        UttMeta(0, float(duration))


def test_binary_id_not_utf8(tmp_path):
    path = tmp_path / "e.svb"
    write_embeddings(EmbeddingSet(["a"], [[1.0, 2.0]]), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:22] + b"\xff" + raw[23:])  # the id byte
    with pytest.raises(SvkitError, match=re.escape(f"{path}: record 0")):
        read_embeddings(path)


@pytest.mark.parametrize("offset, patch, cls, msg", [
    (33, b"a", DuplicateId, "duplicate utterance id 'a'"),
    (38, np.float32(np.nan).tobytes(), SvkitError,
     "embedding 'b' is not finite"),
    (34, np.float32(np.inf).tobytes(), SvkitError,
     "embedding 'b' is not finite"),
], ids=["duplicate id", "nan", "inf"])
def test_binary_set_errors_name_the_file(tmp_path, offset, patch, cls, msg):
    path = tmp_path / "e.svb"
    write_embeddings(EmbeddingSet(["a", "b"], [[1.0, 2.0], [3.0, 4.0]]), path)
    # record 1 starts at byte 31: u16 id length, id "b" at 33, f32s at 34, 38
    raw = bytearray(path.read_bytes())
    raw[offset:offset + len(patch)] = patch
    path.write_bytes(bytes(raw))
    with pytest.raises(cls) as err:
        read_embeddings(path)
    assert type(err.value) is cls
    assert str(err.value) == f"{path}: {msg}"


def _text_readers():
    from svkit.calibration import read_model, read_qmf_cache
    from svkit.clustering import read_labels
    from svkit.scoring import read_scores, read_trials
    return {
        "trials": (read_trials, b"a b 1\n"),
        "scores": (read_scores, b"a b 0.5\n"),
        "labels": (read_labels, b"a 1\n"),
        "metadata": (read_metadata,
                     b"utt_id,speech_frames,duration_s\na,300,3.5\n"),
        "qmf cache": (read_qmf_cache, b"utt_id,dur_q,imp_q\na,1.5,0.25\n"),
        "model": (read_model, b'{"version": 1, "weights": [1.0], '
                              b'"bias": 0.0}\n'),
    }


@pytest.mark.parametrize("name", list(_text_readers()))
def test_text_readers_reject_undecodable_bytes(tmp_path, name):
    reader, good = _text_readers()[name]
    path = tmp_path / "f.txt"
    path.write_bytes(good)
    reader(path)
    path.write_bytes(good[:1] + b"\xff\xfe" + good[1:])
    with pytest.raises(SvkitError, match=re.escape(f"{path}: ")):
        reader(path)
