import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from oracles import lloyd_kmeans

from svkit import (
    EmbeddingSet,
    UttMeta,
    gen_calibration_trials,
    identity_refresher,
    iterate,
    length_normalize,
    min_overlap_crop_pair,
    minibatch_kmeans,
    read_embeddings,
    read_metadata,
    synth_dataset,
    write_embeddings,
    write_metadata,
)
from svkit.embeddings import _RECORD_BLOCK, _ROW_BLOCK, _TEXT_BLOCK
from svkit.errors import (
    BadMagic,
    DuplicateId,
    SvkitError,
    TruncatedFile,
    UnknownId,
    ZeroVector,
)
from svkit.gradcheck import run_suite
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


def test_length_normalize_and_with_vectors_copy_the_id_list():
    # the new set shares the source's id index, but not its public list
    s = EmbeddingSet(["a", "b"], [[3.0, 4.0], [1.0, 0.0]])
    for out in (length_normalize(s), s.with_vectors([[1.0, 2.0], [3.0, 4.0]])):
        assert out.ids == ["a", "b"] and out.ids is not s.ids
        out.ids.append("c")
        assert s.ids == ["a", "b"]
        assert s.index("b") == 1 and out.index("b") == 1


def test_length_normalize_zero_vector():
    s = EmbeddingSet(["a", "b"], [[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ZeroVector):
        length_normalize(s)


def test_length_normalize_names_zero_vector_past_first_block():
    # rows are normalized in blocks; the id is found from the block offset
    vecs = np.ones((2 * _ROW_BLOCK + 9, 3))
    vecs[_ROW_BLOCK + 5] = 0.0
    s = EmbeddingSet([f"u{i}" for i in range(len(vecs))], vecs.copy())
    with pytest.raises(ZeroVector, match=f"'u{_ROW_BLOCK + 5}'"):
        length_normalize(s)
    assert np.array_equal(s.vectors, vecs)


def test_normalize_rows_one_pass_keeps_the_bits_of_two_passes():
    # each block is divided right after its norms are taken; the bits are
    # those of the norms of the whole matrix and one whole division
    from svkit.embeddings import _normalize_rows, _row_norms
    rng = np.random.default_rng(4)
    vecs = rng.standard_normal((3 * _ROW_BLOCK + 7, 5)) * 1e3
    ids = [f"u{i}" for i in range(len(vecs))]
    want = vecs / _row_norms(vecs)[:, None]
    assert np.array_equal(_normalize_rows(vecs, ids), want)
    assert _normalize_rows(vecs, ids, out=vecs) is vecs
    assert np.array_equal(vecs, want)


def test_duplicate_id_rejected():
    with pytest.raises(DuplicateId):
        EmbeddingSet(["a", "a"], [[1.0], [2.0]])


@pytest.mark.parametrize("lookup", ["index", "vector"])
def test_unknown_id_lookup_raises_unknown_id(lookup):
    s = EmbeddingSet(["a"], [[1.0]])
    with pytest.raises(UnknownId, match="^unknown utterance id 'b'$"):
        getattr(s, lookup)("b")


def test_set_copies_only_a_view_of_a_writable_array():
    ids = ["a", "b", "c"]
    base = np.ones((3, 2))
    held = EmbeddingSet(ids, base[:])
    base[0, 0] = 5.0  # through the writable base
    assert held.vectors[0, 0] == 1.0 and not held.vectors.flags.writeable
    owned = np.ones((3, 2))
    assert EmbeddingSet(ids, owned).vectors is owned
    assert not owned.flags.writeable
    frozen_view = owned[:]  # of a read-only base: kept, no copy
    assert EmbeddingSet(ids, frozen_view).vectors is frozen_view


def test_meta_keys_subset():
    with pytest.raises(SvkitError):
        EmbeddingSet(["a"], [[1.0]], {"b": UttMeta(0, 0.0)})


@pytest.mark.parametrize("meta, named", [
    ({"a": (1, 2.0, "s"), "b": None}, "a"),
    ({"a": UttMeta(1, 2.0, "s"), "b": None}, "b"),
])
def test_meta_values_must_be_uttmeta(meta, named):
    # a tuple was accepted, and build_cohort then died on its .speaker
    with pytest.raises(SvkitError, match=f"^metadata of '{named}' is not a "
                       "UttMeta: "):
        EmbeddingSet(["a", "b"], np.eye(2), meta)


def test_set_metadata_cannot_be_written():
    s = synth_dataset(2, 2, 4, 9.0, seed=0)
    a, b = s.ids[:2]
    with pytest.raises(TypeError):
        s.meta[a] = s.meta[b]
    with pytest.raises(TypeError):
        del s.meta[a]
    with pytest.raises(AttributeError):
        s.meta = {}
    with pytest.raises(ValueError, match="read-only"):
        s.meta.speech_frames[0] = 0


def test_metadata_table_is_a_mapping_of_uttmeta():
    meta = {"a": UttMeta(300, 3.5, "s1"), "b": UttMeta(0, 2.0),
            "c": UttMeta(7, 1.0, "")}
    s = EmbeddingSet(["c", "b", "a"], np.eye(3), meta)
    assert s.meta == meta and meta == s.meta
    assert list(s.meta) == ["a", "b", "c"] and len(s.meta) == 3
    assert {**s.meta} == meta and list(s.meta.values()) == list(meta.values())
    assert "a" in s.meta and "x" not in s.meta
    assert dataclasses.replace(s.meta["a"], speaker="s2") == UttMeta(
        300, 3.5, "s2")
    # length_normalize and with_vectors share the table
    assert length_normalize(s).meta is s.meta
    assert EmbeddingSet(s.ids, s.vectors, s.meta).meta is s.meta


def test_speaker_table_is_sorted_for_every_builder(tmp_path):
    # the table of distinct speakers is sorted, None (no speaker) first,
    # by each builder, and each row keeps its speaker
    meta = {f"u{i}": UttMeta(1, 1.0, spk) for i, spk in enumerate(
        ["s9", None, "s10", "", "s1", "s9", None, "a"])}
    table = EmbeddingSet(list(meta), np.eye(8), meta).meta
    assert table.speakers == (None, "", "a", "s1", "s10", "s9")
    assert dict(table) == meta
    path = tmp_path / "m.csv"
    write_metadata(meta, path)
    back = read_metadata(path)  # an empty speaker reads as none
    assert back.speakers == (None, "a", "s1", "s10", "s9")
    assert [m.speaker for m in back.values()] == [
        m.speaker or None for m in meta.values()]
    # spk10000 sorts between spk1000 and spk1001
    synth = synth_dataset(10001, 1, 1, 1.0).meta
    assert list(synth.speakers) == sorted(synth.speakers)
    assert synth.speakers[1000:1003] == ("spk1000", "spk10000", "spk1001")
    assert all(m.speaker == u.split("_")[0] for u, m in synth.items())


def test_uttmeta_speech_frames_below_2_63():
    UttMeta(2**63 - 1, 1e17)
    with pytest.raises(SvkitError, match=r"^speech_frames=9223372036854775808"
                       r" must be below 2\*\*63$"):
        UttMeta(2**63, 1e17)


@pytest.mark.parametrize("power", [40, 52, 53, 54, 60, 62])
def test_bulk_frame_check_compares_int_and_float_exactly(power):
    # UttMeta compares a Python int with a float exactly; a cast of the
    # frames to float64 would round them above 2**53 and accept 2**53 + 1
    # against a bound of 2**53
    from svkit.embeddings import _keeps_meta_rules
    duration = 2.0**power / 100
    bound = math.floor(duration * 100 + 0.5)
    for frames in range(bound - 2, min(bound + 3, 2**63)):
        try:
            UttMeta(frames, duration)
            keeps = True
        except SvkitError:
            keeps = False
        assert _keeps_meta_rules(np.array([frames]),
                                 np.array([duration])) == keeps, frames


def test_uttmeta_frame_consistency():
    UttMeta(speech_frames=600, duration_s=6.0)
    with pytest.raises(SvkitError):
        UttMeta(speech_frames=601, duration_s=6.0)


@pytest.mark.parametrize("frames", [float("nan"), 2.5, 3.0, True, -1,
                                    np.int64(-1), "3", None])
def test_uttmeta_speech_frames_must_be_a_non_negative_integer(frames):
    # a NaN passed both comparisons, 2.5 was written as a row that
    # read_metadata rejects, and True was written as "True"
    with pytest.raises(SvkitError, match=rf"^speech_frames={frames} must be "
                       "a non-negative integer$"):
        UttMeta(frames, 1.0, "s")


@pytest.mark.parametrize("frames", [0, 7, np.int64(7), np.uint16(7)])
def test_uttmeta_accepts_python_and_numpy_integers(frames, tmp_path):
    path = tmp_path / "m.csv"
    write_metadata({"a": UttMeta(frames, 1.0, "s")}, path)
    assert read_metadata(path) == {"a": UttMeta(int(frames), 1.0, "s")}


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


def test_read_metadata_memory_per_row(tmp_path):
    # one UttMeta object per row held about 300 B a row; the columns and
    # their id index about 200 (12k ids of 14 characters)
    path = tmp_path / "m.csv"
    write_metadata(synth_dataset(6000, 2, 4, 9.0, seed=0).meta, path)
    tracemalloc.start()
    try:
        meta = read_metadata(path)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(meta) == 12000
    assert held / len(meta) < 240


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


@pytest.mark.parametrize("concentration", [4.0, 0.0, math.inf])
def test_synth_equals_per_speaker_reference(concentration):
    # reference loop with one array per speaker, stacked at the end; the
    # draw order is the means, then per speaker its noise rows and then
    # its durations. 90 x 3 rows cross a _ROW_BLOCK edge of the bulk
    # normalization; inf concentration is the noise-free limit.
    assert 90 * 3 > _ROW_BLOCK
    for num_speakers, utts in [(6, 3), (90, 3), (7, 1)]:
        dim = 8
        rng = np.random.default_rng(5)
        means = rng.standard_normal((num_speakers, dim))
        means /= np.linalg.norm(means, axis=1, keepdims=True)
        rows, metas = [], []
        for s in range(num_speakers):
            noise = rng.standard_normal((utts, dim))
            raw = means[s] + noise / concentration if concentration else noise
            rows.extend(raw / np.linalg.norm(raw, axis=1, keepdims=True))
            metas.extend((int(d * 100), d, f"spk{s:04d}")
                         for d in rng.uniform(2.0, 12.0, size=utts).tolist())
        got = synth_dataset(num_speakers, utts, dim, concentration, seed=5)
        assert got.vectors.tobytes() == np.array(rows).tobytes()
        assert [(m.speech_frames, m.duration_s, m.speaker)
                for m in map(got.meta.__getitem__, got.ids)] == metas


def test_synth_memory_is_its_output():
    # rows are written into the output matrix; per-speaker arrays stacked
    # into a copy would need a second matrix
    n_spk, utts, dim = 6000, 2, 256
    tracemalloc.start()
    try:
        synth_dataset(n_spk, utts, dim, 9.0, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * (n_spk * utts + n_spk) * dim * 8


def test_set_finiteness_check_memory_is_one_row_block():
    # the check runs one _ROW_BLOCK of rows at a time; a whole-matrix
    # mask took n x dim bytes (5.3 MB traced peak here)
    rng = np.random.default_rng(8)
    n, dim = 20000, 256
    vecs = rng.standard_normal((n, dim))
    ids = [f"utt{i:05d}" for i in range(n)]
    tracemalloc.start()
    try:
        EmbeddingSet(ids, vecs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= n * dim / 2


def test_set_names_the_first_non_finite_row_past_the_first_block():
    vecs = np.ones((2 * _ROW_BLOCK + 9, 3))
    vecs[2 * _ROW_BLOCK + 3, 1] = np.inf
    vecs[_ROW_BLOCK + 5, 2] = np.nan
    ids = [f"u{i}" for i in range(len(vecs))]
    with pytest.raises(SvkitError,
                       match=f"^embedding 'u{_ROW_BLOCK + 5}' is not finite$"):
        EmbeddingSet(ids, vecs)


def test_write_embeddings_memory_is_one_record_block(tmp_path):
    # vectors are cast to f32 and ids encoded one block of records at a
    # time; a cast of the whole set took n x dim x 4 B (12.3 MB here)
    rng = np.random.default_rng(6)
    n, dim = 12000, 256
    emb = EmbeddingSet([f"utt{i:05d}" for i in range(n)],
                       rng.standard_normal((n, dim)))
    tracemalloc.start()
    try:
        write_embeddings(emb, tmp_path / "e.svb")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * _RECORD_BLOCK * dim * 4
    back = read_embeddings(tmp_path / "e.svb")
    assert back.ids == emb.ids
    assert np.array_equal(back.vectors, emb.vectors.astype("<f4"))


def _mixed_length_ids(n):
    """n distinct ids of 1 to 300 UTF-8 bytes, of one- to four-byte
    characters; the first `_RECORD_BLOCK` are 6 bytes each."""
    ids = [f"u{i:05d}" for i in range(min(n, _RECORD_BLOCK))]
    for i in range(len(ids), n):
        ch = "aé語😀"[i % 4]
        ids.append(ch * (i * 7 % (296 // len(ch.encode()))) + str(i))
    for letter, i in zip("bcdefg", range(_RECORD_BLOCK + 5, n, 300)):
        ids[i] = letter
    return ids


@pytest.mark.parametrize("dim", [3, 64])
def test_read_embeddings_ids_of_any_length_across_blocks(tmp_path, dim):
    # a block of equal-length ids, then blocks whose ids grow and shrink
    # from record to record, so reads are both too short and too long
    n = 3 * _RECORD_BLOCK + 5
    ids = _mixed_length_ids(n)
    lengths = [len(u.encode()) for u in ids]
    assert min(lengths) == 1 and 290 <= max(lengths) <= 300
    assert any(len(u.encode()) > len(u) + 2 for u in ids)
    vecs = np.random.default_rng(3).standard_normal((n, dim))
    path = tmp_path / "e.svb"
    write_embeddings(EmbeddingSet(ids, vecs), path)
    back = read_embeddings(path)
    assert back.ids == ids
    assert np.array_equal(back.vectors, vecs.astype("<f4"))


def test_read_embeddings_ids_that_shrink_after_long_ones(tmp_path):
    # reads sized by 290-byte ids reach the file's end while more than a
    # block of short records is still to be walked: the file is whole
    n_long, dim = 50, 3
    n = n_long + 2 * _RECORD_BLOCK + 100
    ids = ([f"{i:0290d}" for i in range(n_long)]
           + [f"{i:x}" for i in range(n_long, n)])
    vecs = np.arange(n * dim, dtype=float).reshape(n, dim)
    path = tmp_path / "e.svb"
    write_embeddings(EmbeddingSet(ids, vecs), path)
    back = read_embeddings(path)
    assert back.ids == ids
    assert np.array_equal(back.vectors, vecs)


def _record_offsets(ids, dim):
    """The byte offset of each record of an .svb file of `ids`."""
    sizes = [2 + len(u.encode()) + 4 * dim for u in ids]
    return 20 + np.concatenate([[0], np.cumsum(sizes)[:-1]])


@pytest.mark.parametrize("into", [1, 2 + 3 + 8])
def test_read_embeddings_truncation_in_a_later_block_names_its_record(
        tmp_path, into):
    # cut 1 byte into record r's length field, or into its vector
    n, dim = 3 * _RECORD_BLOCK + 10, 4
    ids = [f"u{i:04d}" for i in range(n)]
    good = tmp_path / "g.svb"
    write_embeddings(EmbeddingSet(ids, np.ones((n, dim))), good)
    r = n - 5
    bad = tmp_path / "t.svb"
    bad.write_bytes(good.read_bytes()[:_record_offsets(ids, dim)[r] + into])
    with pytest.raises(TruncatedFile,
                       match=re.escape(f"{bad}: record {r} truncated")):
        read_embeddings(bad)


@pytest.mark.parametrize("r", [_RECORD_BLOCK + 1, 2 * _RECORD_BLOCK + 500])
def test_read_embeddings_non_utf8_id_in_a_later_block_names_its_record(
        tmp_path, r):
    n, dim = 3 * _RECORD_BLOCK, 4
    ids = _mixed_length_ids(n)
    path = tmp_path / "e.svb"
    write_embeddings(EmbeddingSet(ids, np.ones((n, dim))), path)
    raw = bytearray(path.read_bytes())
    at = _record_offsets(ids, dim)[r] + 2
    raw[at] = 0xFF  # never a byte of UTF-8
    path.write_bytes(raw)
    with pytest.raises(SvkitError, match=re.escape(
            f"{path}: record {r} id is not UTF-8")):
        read_embeddings(path)


@pytest.mark.parametrize("mixed", [False, True])
def test_read_embeddings_memory_is_one_record_block(tmp_path, mixed):
    # a read holds one block of the file's records, read with one call,
    # beyond the set it returns; three reads per record held a bytes
    # object per vector and their join, and reading the whole file at once
    # would hold all n records (12.4 MB here)
    n, dim = 12000, 256
    ids = (_mixed_length_ids(n) if mixed
           else [f"utt{i:05d}" for i in range(n)])
    path = tmp_path / "e.svb"
    write_embeddings(EmbeddingSet(
        ids, np.random.default_rng(6).standard_normal((n, dim))), path)
    block = _RECORD_BLOCK * (path.stat().st_size - 20) / n
    tracemalloc.start()
    try:
        back = read_embeddings(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.ids == ids
    assert peak - held <= 1.5 * block


def _write_raw(path, ids, vecs):
    """An .svb file of `ids` (str or raw bytes) and `vecs`, written byte by
    byte, so that ids need not be valid or distinct."""
    vecs = np.asarray(vecs, dtype="<f4")
    raw = [b"SVEB", np.array([1, vecs.shape[1]], "<u4").tobytes(),
           np.array([len(ids)], "<u8").tobytes()]
    for u, v in zip(ids, vecs):
        u = u.encode() if isinstance(u, str) else u
        raw += [np.array([len(u)], "<u2").tobytes(), u, v.tobytes()]
    path.write_bytes(b"".join(raw))


@pytest.mark.parametrize("before, after", [(5, 6), (6, 5), (5, 200)])
def test_read_embeddings_id_length_changes_around_a_block_edge(
        tmp_path, before, after):
    # ids of one length before record c and of another from c on, or only
    # at c, for every c around the first block's edge: runs of equal
    # length end at every offset from the edge
    n, dim = 2 * _RECORD_BLOCK + 8, 3
    vecs = np.arange(n * dim, dtype=float).reshape(n, dim)
    path = tmp_path / "e.svb"
    for c in range(_RECORD_BLOCK - 6, _RECORD_BLOCK + 7):
        for switch in (lambda i: i >= c, lambda i: i == c):
            ids = [f"{i:0{after if switch(i) else before}d}"
                   for i in range(n)]
            _write_raw(path, ids, vecs)
            back = read_embeddings(path)
            assert back.ids == ids
            assert np.array_equal(back.vectors, vecs)


def test_read_embeddings_non_ascii_ids_inside_a_run(tmp_path):
    # ids of one byte length, some ASCII and some not, in one run
    n, dim = _RECORD_BLOCK + 300, 4
    ids = [f"é{i:05d}" if i % 3 else f"ab{i:05d}" for i in range(n)]
    ids[700] = "語" + "x" * 4
    assert len({len(u.encode()) for u in ids}) == 1
    vecs = np.random.default_rng(4).standard_normal((n, dim))
    path = tmp_path / "e.svb"
    write_embeddings(EmbeddingSet(ids, vecs), path)
    back = read_embeddings(path)
    assert back.ids == ids
    assert np.array_equal(back.vectors, vecs.astype("<f4"))


@pytest.mark.parametrize("r", [5, _RECORD_BLOCK - 1, _RECORD_BLOCK + 37])
@pytest.mark.parametrize("ascii_run", [True, False])
def test_read_embeddings_undecodable_id_inside_a_run_names_its_record(
        tmp_path, r, ascii_run):
    n, dim = 2 * _RECORD_BLOCK, 2
    ids = [(f"u{i:05d}" if ascii_run else f"é{i:04d}").encode()
           for i in range(n)]
    ids[r] = ids[r][:-1] + b"\xff"
    path = tmp_path / "e.svb"
    _write_raw(path, ids, np.ones((n, dim)))
    with pytest.raises(SvkitError) as err:
        read_embeddings(path)
    assert type(err.value) is SvkitError
    assert str(err.value) == f"{path}: record {r} id is not UTF-8"


def test_read_embeddings_non_finite_row_comes_before_an_earlier_duplicate(
        tmp_path):
    # the repeated id is in the first block, the NaN in the third: the set's
    # checks come in the constructor's order, not in the file's
    n, dim = 3 * _RECORD_BLOCK, 4
    ids = [f"u{i:05d}" for i in range(n)]
    ids[10] = ids[3]
    ids[20] = ""
    vecs = np.ones((n, dim))
    vecs[2 * _RECORD_BLOCK + 9, 2] = np.nan
    vecs[2 * _RECORD_BLOCK + 50, 0] = np.inf
    path = tmp_path / "e.svb"
    _write_raw(path, ids, vecs)
    with pytest.raises(SvkitError) as err:
        read_embeddings(path)
    assert type(err.value) is SvkitError
    assert str(err.value) == (f"{path}: embedding "
                              f"'u{2 * _RECORD_BLOCK + 9:05d}' is not finite")
    vecs[2 * _RECORD_BLOCK + 9, 2] = vecs[2 * _RECORD_BLOCK + 50, 0] = 0
    _write_raw(path, ids, vecs)
    with pytest.raises(SvkitError) as err:
        read_embeddings(path)
    assert str(err.value) == f"{path}: utterance id must be non-empty"
    ids[20] = "x"
    _write_raw(path, ids, vecs)
    with pytest.raises(DuplicateId) as err:
        read_embeddings(path)
    assert str(err.value) == f"{path}: duplicate utterance id 'u00003'"


def test_read_metadata_memory_is_the_table_and_some_text_blocks(tmp_path):
    # the rows are parsed a block of text at a time into the table's
    # columns. Beyond the table, a read holds a block's text and fields
    # (about 20 blocks of text as Python strings, two blocks in turn) and
    # the id index's old table as it grows (about 22 blocks at this size).
    # A reader holding every row as a tuple of strings first took 3.3 MB
    # here, 405 blocks, above a 2.0 MB table.
    meta = synth_dataset(600, 20, 4, 6.0, seed=1).meta
    path = tmp_path / "m.csv"
    write_metadata(meta, path)
    tracemalloc.start()
    try:
        back = read_metadata(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(back) == 12000
    assert back.speakers == meta.speakers
    assert peak - held <= 64 * _TEXT_BLOCK


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


@pytest.mark.parametrize("bounds", [
    (0.0, 1e308),            # hi * 100 frames overflows
    (-5.0, -1.0),            # negative durations
    (-1.0, 4.0),
    (float("nan"), 4.0),
    (2.0, float("inf")),
    (5.0, 3.0),
    (0.0, 1e17),             # hi * 100 frames exceeds int64
])
def test_synth_duration_range_outside_its_domain_is_named(bounds):
    with pytest.raises(SvkitError, match=r"duration range \["):
        synth_dataset(2, 2, 4, 4.0, bounds, seed=0)


@pytest.mark.parametrize("dim", [0, -1])
def test_synth_dimension_below_one_is_named(dim):
    # named before numpy sees the shape
    with pytest.raises(SvkitError, match=rf"^dim={dim} must be >= 1$"):
        synth_dataset(2, 2, dim, 4.0, seed=0)


_LABELED = synth_dataset(4, 6, 8, 8.0, seed=0)
_SEEDED = {
    "synth_dataset": lambda seed: synth_dataset(2, 2, 4, 4.0, seed=seed),
    "gen_calibration_trials": lambda seed: gen_calibration_trials(
        _LABELED, 2, seed),
    "minibatch_kmeans": lambda seed: minibatch_kmeans(
        _LABELED, 3, 6, 2, seed),
    "iterate": lambda seed: iterate(_LABELED, identity_refresher, 6, 3, 6,
                                    max_iters=1, seed=seed),
    "min_overlap_crop_pair": lambda seed: min_overlap_crop_pair(
        50, 10, seed=seed),
    "run_suite": lambda seed: run_suite(1, seed),
}


@pytest.mark.parametrize("name", list(_SEEDED))
def test_every_seeded_function_names_a_seed_outside_its_domain(name):
    # one rule for every seed, checked before numpy sees it
    _SEEDED[name](np.uint32(3))  # a numpy integer is a valid seed
    for seed in (-1, np.int64(-1), 1.5, None):
        with pytest.raises(SvkitError, match=rf"^seed={seed} must be a "
                           "non-negative integer$"):
            _SEEDED[name](seed)


def test_synth_zero_length_duration_range_is_valid():
    s = synth_dataset(2, 2, 4, 4.0, (0.0, 0.0), seed=0)
    assert {(m.speech_frames, m.duration_s) for m in s.meta.values()} == {
        (0, 0.0)}


@pytest.mark.parametrize("ids, vectors", [
    (["a", "b"], np.zeros((2, 2, 2))),
    (["a"], [1.0, 2.0]),
    ([], []),
])
def test_vectors_that_are_not_a_matrix_are_rejected(ids, vectors):
    with pytest.raises(SvkitError, match=r"\(n, dim\) matrix"):
        EmbeddingSet(ids, vectors)


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
    from svkit.scoring import TrialList, read_scores, read_trials
    return {
        "trials": (read_trials, b"a b 1\n"),
        "scores": (lambda p: read_scores(p, TrialList(["a"], ["b"])),
                   b"a b 0.5\n"),
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
