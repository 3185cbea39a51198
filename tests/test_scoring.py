import gc
import hashlib
import re
import tracemalloc
import weakref

import numpy as np
import pytest

import oracles
from svkit import (
    EmbeddingSet,
    TrialList,
    UttMeta,
    build_cohort,
    cosine_score,
    length_normalize,
    mean_fuse,
    read_scores,
    read_trials,
    snorm,
    synth_dataset,
    write_scores,
    write_trials,
)
from svkit.embeddings import _RECORD_BLOCK
from svkit.errors import (
    DegenerateCohort,
    DimMismatch,
    MisalignedTrials,
    MissingLabel,
    SvkitError,
    UnknownId,
    ZeroVector,
)
from svkit import scoring
from svkit.calibration import (
    build_features,
    trial_qmfs,
    utterance_qmfs,
)
from svkit.scoring import (
    _ROW_BLOCK,
    ScoreSet,
    _cohort_stats,
)


def _labeled_set(vectors, speakers):
    ids = [f"u{i}" for i in range(len(vectors))]
    meta = {u: UttMeta(100, 1.0, spk) for u, spk in zip(ids, speakers)}
    return EmbeddingSet(ids, vectors, meta)


def test_cohort_identical_embeddings():
    v = np.array([0.6, 0.8])
    s = _labeled_set([v, v], ["a", "a"])
    cohort = build_cohort(s)
    assert cohort.ids == ["a"]
    assert np.allclose(cohort.vectors[0], v)


def test_cohort_orthogonal_mean_norm():
    s = _labeled_set([[1.0, 0.0], [0.0, 1.0]], ["a", "a"])
    cohort = build_cohort(s)
    assert abs(np.linalg.norm(cohort.vectors[0]) - np.sqrt(2) / 2) < 1e-12


def test_cohort_one_vector_per_speaker_sorted():
    s = length_normalize(synth_dataset(30, 4, 16, 8.0, seed=0))
    cohort = build_cohort(s)
    assert len(cohort) == 30
    assert cohort.ids == sorted(cohort.ids)


def test_cohort_means_equal_per_speaker_means():
    # speakers interleaved and of uneven size; each mean must equal numpy's
    # mean over that speaker's rows in set order, bit for bit
    rng = np.random.default_rng(3)
    speakers = rng.choice(["b", "a", "c", "dd"], size=40).tolist()
    s = _labeled_set(rng.standard_normal((40, 7)), speakers)
    cohort = build_cohort(s)
    assert cohort.ids == sorted(set(speakers))
    for spk, mean in zip(cohort.ids, cohort.vectors):
        rows = [i for i, x in enumerate(speakers) if x == spk]
        assert np.array_equal(mean, s.vectors[rows].mean(axis=0))


def test_cohort_rejects_a_zero_mean_speaker():
    # the two utterances of s2 cancel, so no cosine against its mean exists
    v, w = np.array([0.6, 0.8]), np.array([1.0, 0.0])
    s = _labeled_set([w, v, -v, w], ["s1", "s2", "s2", "s3"])
    with pytest.raises(DegenerateCohort, match="cohort speaker 's2'"):
        build_cohort(s)


def test_cohort_missing_label():
    s = EmbeddingSet(["a"], [[1.0]], {"a": UttMeta(1, 1.0, None)})
    with pytest.raises(MissingLabel):
        build_cohort(s)


def test_cosine_score_trivial_values():
    s = EmbeddingSet(
        ["i", "j", "k"], [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]
    )
    trials = TrialList(["i", "i", "i"], ["i", "j", "k"])
    out = cosine_score(trials, s)
    assert np.allclose(out.scores, [1.0, 0.0, -1.0])


def test_cosine_score_unknown_id():
    s = EmbeddingSet(["i"], [[1.0]])
    with pytest.raises(UnknownId):
        cosine_score(TrialList(["i"], ["nope"]), s)


def _random_trials(n_ids, n_trials, dim, seed):
    rng = np.random.default_rng(seed)
    ids = [f"u{i}" for i in range(n_ids)]
    s = length_normalize(EmbeddingSet(ids, rng.standard_normal((n_ids, dim))))
    e, t = rng.integers(0, n_ids, (2, n_trials))
    return s, e, t, TrialList([ids[i] for i in e], [ids[i] for i in t])


def test_cosine_score_across_row_blocks_equals_full_gather():
    s, e, t, trials = _random_trials(300, 3 * _ROW_BLOCK + 7, 37, seed=9)
    want = np.einsum("ij,ij->i", s.vectors[e], s.vectors[t])
    assert np.array_equal(cosine_score(trials, s).scores, want)


def test_cosine_score_memory_is_bounded():
    # a full gather of both sides would need 2 x 100k x 64 x 8 B = 102 MB
    s, _, _, trials = _random_trials(2000, 100_000, 64, seed=10)
    tracemalloc.start()
    try:
        cosine_score(trials, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_cosine_score_symmetric_bounded():
    s = length_normalize(synth_dataset(10, 3, 12, 2.0, seed=1))
    ids = s.ids
    fwd = cosine_score(TrialList(ids[:10], ids[10:20]), s)
    rev = cosine_score(TrialList(ids[10:20], ids[:10]), s)
    assert np.abs(fwd.scores - rev.scores).max() < 1e-12
    assert np.all(np.abs(fwd.scores) <= 1.0 + 1e-12)


def test_snorm_hand_example():
    # raw 0.8; enroll top-2 {0.1, 0.3}; test top-2 {0.0, 0.2} -> 6.5
    val = oracles.snorm_oracle(0.8, [0.1, 0.3], [0.0, 0.2], 2)
    assert abs(val - 6.5) < 1e-12


def _snorm_setup(seed=0, n_speakers=50, n_trials=100, dim=16):
    rng = np.random.default_rng(seed)
    cohort_set = length_normalize(
        synth_dataset(n_speakers, 3, dim, 4.0, seed=seed))
    emb = length_normalize(synth_dataset(20, 5, dim, 4.0, seed=seed + 1))
    cohort = build_cohort(cohort_set)
    ids = emb.ids
    pick = rng.choice(len(ids), size=(n_trials, 2))
    trials = TrialList([ids[i] for i, _ in pick], [ids[j] for _, j in pick])
    raw = cosine_score(trials, emb)
    return emb, cohort, trials, raw


@pytest.mark.parametrize("top_n", [5, None])
def test_snorm_matches_oracle(top_n):
    emb, cohort, trials, raw = _snorm_setup()
    out = snorm(raw, emb, emb, cohort, top_n)
    eff_top = len(cohort) if top_n is None else top_n
    for i, (e, t, _) in enumerate(trials):
        e_scores = [oracles.cosine_oracle(emb.vector(e), c)
                    for c in cohort.vectors]
        t_scores = [oracles.cosine_oracle(emb.vector(t), c)
                    for c in cohort.vectors]
        want = oracles.snorm_oracle(raw.scores[i], e_scores, t_scores,
                                    eff_top)
        assert abs(out.scores[i] - want) < 1e-10


@pytest.mark.parametrize("shared", [True, False])
def test_snorm_tied_cohort_over_several_row_blocks(shared):
    # every cohort mean appears twice, so top_n=5 splits a tied pair; both
    # sides hold more unique utterances than one statistics block
    cohort_set = length_normalize(synth_dataset(15, 3, 8, 4.0, seed=7))
    base = build_cohort(cohort_set)
    cohort = EmbeddingSet(base.ids + [f"{s}-dup" for s in base.ids],
                          np.vstack([base.vectors, base.vectors]))
    emb = length_normalize(synth_dataset(300, 4, 8, 4.0, seed=8))
    test = emb if shared else emb.with_vectors(emb.vectors)
    rng = np.random.default_rng(9)
    ids = emb.ids
    assert len(ids) > 1024
    trials = TrialList([ids[i] for i in rng.permutation(len(ids))],
                       [ids[i] for i in rng.permutation(len(ids))])
    raw = cosine_score(trials, emb, test)
    out = snorm(raw, emb, test, cohort, 5)
    cohort_scores = {
        u: [oracles.cosine_oracle(emb.vector(u), c) for c in cohort.vectors]
        for u in ids
    }
    for i, (e, t, _) in enumerate(trials):
        want = oracles.snorm_oracle(raw.scores[i], cohort_scores[e],
                                    cohort_scores[t], 5)
        assert abs(out.scores[i] - want) <= 1e-10


def test_snorm_symmetric():
    emb, cohort, trials, raw = _snorm_setup(seed=3)
    out = snorm(raw, emb, emb, cohort, 10)
    swapped = TrialList(trials.test_ids, trials.enroll_ids)
    out_sw = snorm(ScoreSet(swapped, raw.scores), emb, emb, cohort, 10)
    assert np.abs(out.scores - out_sw.scores).max() < 1e-12


def test_snorm_affine_invariance(monkeypatch):
    # every cohort score goes through s -> a*s + b just before its top-n
    # partition, sort, mean and std, as the raw trial score does
    emb, cohort, trials, raw = _snorm_setup(seed=4, n_trials=20)
    base = snorm(raw, emb, emb, cohort, 10)
    topn = scoring._topn_desc
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.uniform(0.1, 5.0)
        b = rng.uniform(-2.0, 2.0)

        def affine_topn(sims, n, a=a, b=b):
            sims *= a
            sims += b
            return topn(sims, n)

        monkeypatch.setattr(scoring, "_topn_desc", affine_topn)
        shifted = raw.with_scores(a * raw.scores + b)
        out = snorm(shifted, emb, emb, cohort, 10)
        assert np.abs(out.scores - base.scores).max() < 1e-8


def test_snorm_degenerate_cohort():
    v = np.array([1.0, 0.0])
    emb = EmbeddingSet(["a", "b"], [v, v])
    cohort_set = _labeled_set([v, v, v], ["s1", "s2", "s3"])
    cohort = build_cohort(cohort_set)
    raw = cosine_score(TrialList(["a"], ["b"]), emb)
    with pytest.raises(DegenerateCohort):
        snorm(raw, emb, emb, cohort, 2)


def test_snorm_degenerate_cohort_names_first_id_of_the_side_table():
    # every utterance has constant cohort scores; with shared sides the
    # one id table is the sorted union of both sides
    v = np.array([1.0, 0.0])
    emb = EmbeddingSet(["b", "a"], [v, v])
    cohort = build_cohort(_labeled_set([v, v, v], ["s1", "s2", "s3"]))
    raw = cosine_score(TrialList(["b"], ["a"]), emb)
    with pytest.raises(DegenerateCohort, match="for 'a'"):
        snorm(raw, emb, emb, cohort, 2)
    with pytest.raises(DegenerateCohort, match="for 'b'"):
        snorm(raw, emb, EmbeddingSet(["a"], [v]), cohort, 2)


def _stats_inputs(n, m, dim, seed):
    rng = np.random.default_rng(seed)
    ids = [f"u{i}" for i in range(n)]
    emb = EmbeddingSet(ids, rng.standard_normal((n, dim)))
    cohort = EmbeddingSet([f"s{i}" for i in range(m)],
                          rng.standard_normal((m, dim)))
    return emb, ids, cohort


def _with_meta(emb):
    """`emb` with a metadata row for every id."""
    return EmbeddingSet(emb.ids, emb.vectors,
                        {u: UttMeta(100, 1.0) for u in emb.ids})


@pytest.mark.parametrize("top_n", [100, None])
@pytest.mark.parametrize("metric", ["cosine", "inner_product"])
def test_cohort_stats_equal_full_matrix_reference(metric, top_n):
    # rows listed out of set order, crossing one row-block edge; a BLAS
    # may pick its kernel by the row count, so the reference matrix is
    # multiplied in the same row blocks
    emb, ids, cohort = _stats_inputs(_ROW_BLOCK + 37, 300, 16, seed=21)
    ids = ids[::-1]
    vecs, means = emb.vectors[::-1], cohort.vectors
    full = np.vstack([vecs[lo:lo + _ROW_BLOCK] @ means.T
                      for lo in range(0, len(vecs), _ROW_BLOCK)])
    if metric == "cosine":
        full /= np.linalg.norm(vecs, axis=1)[:, None]
        full /= np.linalg.norm(means, axis=1)[None, :]
    m = len(cohort)
    n = m if top_n is None else top_n
    top = np.partition(full, m - n, axis=1)[:, m - n:]
    top = -np.sort(-top, axis=1)
    # with metadata for every id, a cosine pass also keeps the
    # inner-product statistics and divides in a scratch of a few rows
    for emb_set in (emb, _with_meta(emb)):
        mu, sigma = _cohort_stats(emb_set, ids, cohort, top_n, metric)
        assert np.array_equal(mu, top.mean(axis=1))
        assert np.array_equal(sigma, top.std(axis=1))


def test_cohort_stats_memory_is_one_block():
    # one reused (_ROW_BLOCK x cohort) score buffer; a fresh block per
    # product plus a partitioned copy would be two. A set with metadata
    # adds only the scratch rows of the cosine division
    for emb, ids, cohort in (_stats_inputs(2100, 3000, 32, seed=22),
                             _stats_inputs(300, 3000, 256, seed=26)):
        block = _ROW_BLOCK * len(cohort) * 8
        for emb_set in (emb, _with_meta(emb)):
            tracemalloc.start()
            try:
                _cohort_stats(emb_set, ids, cohort, 100, "cosine")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.25 * block


def test_cohort_mean_norms_take_no_cohort_by_dim_temporary():
    # at dim 512 the means (2000 x 512, 8.2 MB) are twice the block
    # buffer (256 x 2000, 4.1 MB): their norms are taken a row block at a
    # time, so the peak is the buffer, the gathered rows and their norms'
    # temporary (256 x 512 each), not a temporary of all the means
    emb, ids, cohort = _stats_inputs(300, 2000, 512, seed=27)
    tracemalloc.start()
    try:
        _cohort_stats(emb, ids, cohort, 100, "cosine")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(cohort) * cohort.dim * 8


def test_cohort_stats_rejects_an_unknown_metric_before_top_n():
    # a misspelt name must not run as the inner product
    emb, ids, cohort = _stats_inputs(5, 10, 4, seed=25)
    for top_n in (5, 0, 11):
        with pytest.raises(SvkitError,
                           match="^unknown imposter metric 'cosin'$"):
            _cohort_stats(emb, ids, cohort, top_n, "cosin")


def test_cohort_mean_norms_once_per_call(monkeypatch):
    # three row blocks; the cohort means' norms do not change between them.
    # They are taken a row block at a time, so of a view: 50 means, one.
    emb, ids, cohort = _stats_inputs(2 * _ROW_BLOCK + 5, 50, 8, seed=24)
    norm = np.linalg.norm
    calls = []

    def counting_norm(x, *args, **kwargs):
        calls.append(np.shares_memory(x, cohort.vectors))
        return norm(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    _cohort_stats(emb, ids, cohort, 10, "cosine")
    assert sum(calls) == 1
    assert len(calls) == 4  # and one per block of rows


def test_zero_norm_utterance_under_cosine_is_named():
    # the zero row sits in the second row block of the side table
    emb, ids, cohort = _stats_inputs(_ROW_BLOCK + 5, 10, 4, seed=23)
    vecs = emb.vectors.copy()
    vecs[_ROW_BLOCK + 2] = 0.0
    zero_id = ids[_ROW_BLOCK + 2]
    emb = EmbeddingSet(ids, vecs)
    raw = ScoreSet(TrialList(ids, ids[::-1]), np.zeros(len(ids)))
    with pytest.raises(ZeroVector, match=f"embedding '{zero_id}'"):
        snorm(raw, emb, emb, cohort, 5)
    with pytest.raises(ZeroVector, match=f"embedding '{zero_id}'"):
        _cohort_stats(emb, ids, cohort, 5, "cosine")
    # an inner product with a zero row is well defined
    mu = _cohort_stats(emb, ids, cohort, 5, "inner_product")[0]
    assert mu[_ROW_BLOCK + 2] == 0.0


def _shared_pass_setup():
    # 600 utterances with metadata: the ~490 of the trials span two row
    # blocks
    data = length_normalize(synth_dataset(30, 20, 16, 5.0, seed=31))
    cohort = build_cohort(length_normalize(
        synth_dataset(200, 2, 16, 3.0, seed=32)))
    e, t = np.random.default_rng(33).integers(len(data), size=(2, 500))
    trials = TrialList([data.ids[i] for i in e], [data.ids[i] for i in t])
    return data, cohort, trials, cosine_score(trials, data)


def _count_matmul(monkeypatch):
    """A list that gets one entry per np.matmul call from now on."""
    calls = []
    matmul = np.matmul

    def counting_matmul(*args, **kwargs):
        calls.append(1)
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", counting_matmul)
    return calls


def _unshared(emb):
    return emb.with_vectors(emb.vectors)


def _unshared_qmfs(trials, emb, *args):
    """trial_qmfs on a copy of `emb` as both sides, which shares no
    kept statistics (a side pass over the union of ids, as with `emb`)."""
    copy = _unshared(emb)
    return trial_qmfs(trials, copy, copy, *args)


def _qmf_matrix(qmfs):
    return np.array([q.as_array() for q in qmfs])


@pytest.mark.parametrize("separate_test", [False, True])
def test_trial_qmfs_after_snorm_reuse_its_cohort_pass(monkeypatch,
                                                      separate_test):
    data, cohort, trials, raw = _shared_pass_setup()
    test = _unshared(data) if separate_test else data
    copy = _unshared(data)
    want = trial_qmfs(trials, copy, _unshared(data) if separate_test
                      else copy, cohort, top_n=50)
    calls = _count_matmul(monkeypatch)
    snorm(raw, data, test, cohort, 50)
    in_snorm = len(calls)
    got = trial_qmfs(trials, data, test, cohort, top_n=50)
    assert in_snorm == (4 if separate_test else 2)  # 2 blocks a side pass
    assert len(calls) == in_snorm
    assert np.array_equal(_qmf_matrix(got), _qmf_matrix(want))


@pytest.mark.parametrize(
    "miss", ["cohort", "top_n", "trials", "cosine", "meta"])
def test_trial_qmfs_after_snorm_recompute_on_a_miss(monkeypatch, miss):
    # each part of the key: the cohort object, top_n, the ids (from the
    # trial list), the metric; and no kept statistics without metadata
    # for every id of the snorm pass
    data, cohort, trials, raw = _shared_pass_setup()
    emb, qmf_trials, qmf_cohort, metric, top_n = (
        data, trials, cohort, "inner_product", 50)
    if miss == "cohort":
        qmf_cohort = _unshared(cohort)
    elif miss == "top_n":
        top_n = 40
    elif miss == "trials":
        qmf_trials = TrialList(trials.enroll_ids[:100], trials.test_ids[:100])
    elif miss == "cosine":
        metric = "cosine"
    else:
        lacking = trials.enroll_ids[0]
        emb = EmbeddingSet(data.ids, data.vectors, {
            u: m for u, m in data.meta.items() if u != lacking})
    want = _unshared_qmfs(qmf_trials, data, qmf_cohort, metric, top_n)
    snorm(raw, emb, emb, cohort, 50)
    if miss == "meta":  # the QMFs need it; the snorm pass lacked it
        # what that pass kept goes to a set of the same vectors with all
        # the metadata, where it would serve the QMF call
        kept = emb._kept_stats
        emb = EmbeddingSet(emb.ids, emb.vectors, data.meta)
        emb._kept_stats = kept
    calls = _count_matmul(monkeypatch)
    got = trial_qmfs(qmf_trials, emb, emb, qmf_cohort, metric, top_n)
    assert len(calls) > 0
    assert np.array_equal(_qmf_matrix(got), _qmf_matrix(want))


def test_kept_cohort_stats_serve_one_call_only(monkeypatch):
    data, cohort, trials, raw = _shared_pass_setup()
    snorm(raw, data, data, cohort, 50)
    calls = _count_matmul(monkeypatch)
    first = trial_qmfs(trials, data, data, cohort, top_n=50)
    assert len(calls) == 0
    second = trial_qmfs(trials, data, data, cohort, top_n=50)
    assert len(calls) > 0
    assert np.array_equal(_qmf_matrix(first), _qmf_matrix(second))


def test_kept_cohort_stats_do_not_keep_the_cohort_alive(monkeypatch):
    data, cohort, trials, raw = _shared_pass_setup()
    snorm(raw, data, data, cohort, 50)
    alive = weakref.ref(cohort)
    copy = _unshared(cohort)
    del cohort
    gc.collect()
    assert alive() is None
    # so an equal cohort built later is another cohort: a miss
    calls = _count_matmul(monkeypatch)
    got = trial_qmfs(trials, data, data, copy, top_n=50)
    assert len(calls) > 0
    want = _unshared_qmfs(trials, data, copy, "inner_product", 50)
    assert np.array_equal(_qmf_matrix(got), _qmf_matrix(want))


@pytest.mark.parametrize("write", ["base", "matrix", "rebound"])
def test_trial_qmfs_after_snorm_see_writes_to_the_vectors(monkeypatch,
                                                          write):
    # a set built on a view of a writable array holds a copy, so writes
    # through the base reach neither the set nor its kept statistics; a
    # matrix made writable again after snorm, or another matrix bound to
    # the set, is a miss, and the QMFs see the values written after snorm
    data, cohort, trials, raw = _shared_pass_setup()
    base = data.vectors.copy()
    emb = EmbeddingSet(data.ids, base[:] if write == "base" else base,
                       data.meta)
    snorm(raw, emb, emb, cohort, 50)
    base.setflags(write=True)
    base[:, 0] += 1.0
    if write == "rebound":  # read-only, but not the matrix snorm saw
        emb.vectors = base.copy()
        emb.vectors.setflags(write=False)
    calls = _count_matmul(monkeypatch)
    got = trial_qmfs(trials, emb, emb, cohort, top_n=50)
    if write == "base":
        assert np.array_equal(emb.vectors, data.vectors)
        assert len(calls) == 0
        want = _unshared_qmfs(trials, data, cohort, "inner_product", 50)
        assert np.array_equal(_qmf_matrix(got), _qmf_matrix(want))
        return
    assert len(calls) > 0
    want = _unshared_qmfs(trials, data.with_vectors(base.copy()), cohort,
                          "inner_product", 50)
    assert np.array_equal(_qmf_matrix(got), _qmf_matrix(want))


def test_zero_norm_row_on_a_set_with_metadata():
    # the zero row sits in the second row block of the pass; the first
    # block was already scored when snorm raises
    data, cohort, trials, raw = _shared_pass_setup()
    zero_id = sorted(set(trials.enroll_ids + trials.test_ids))[
        _ROW_BLOCK + 2]
    vecs = data.vectors.copy()
    vecs[data.index(zero_id)] = 0.0
    emb = data.with_vectors(vecs)
    with pytest.raises(ZeroVector, match=f"embedding '{zero_id}'"):
        snorm(raw, emb, emb, cohort, 50)
    got = trial_qmfs(trials, emb, emb, cohort, top_n=50)
    want = _unshared_qmfs(trials, emb, cohort, "inner_product", 50)
    assert np.array_equal(_qmf_matrix(got), _qmf_matrix(want))


def test_snorm_top_n_bounds():
    emb, cohort, trials, raw = _snorm_setup(seed=6, n_trials=5)
    with pytest.raises(SvkitError):
        snorm(raw, emb, emb, cohort, 1)
    with pytest.raises(SvkitError):
        snorm(raw, emb, emb, cohort, len(cohort) + 1)


@pytest.mark.parametrize("name", ["snorm", "utterance_qmfs", "trial_qmfs"])
def test_set_and_cohort_of_different_dim_raise_dim_mismatch(name):
    # before any product: numpy's own error would name neither set
    rng = np.random.default_rng(26)
    emb = EmbeddingSet(["a", "b"], rng.standard_normal((2, 8)),
                       {u: UttMeta(300, 3.0) for u in ("a", "b")})
    cohort = EmbeddingSet(["s1", "s2", "s3"], rng.standard_normal((3, 16)))
    trials = TrialList(["a"], ["b"])
    calls = {
        "snorm": lambda: snorm(ScoreSet(trials, [0.5]), emb, emb, cohort, 2),
        "utterance_qmfs": lambda: utterance_qmfs(emb, cohort, top_n=2),
        "trial_qmfs": lambda: trial_qmfs(trials, emb, emb, cohort, top_n=2),
    }
    with pytest.raises(DimMismatch,
                       match="^embeddings are 8-dim, cohort 16-dim$"):
        calls[name]()


@pytest.mark.parametrize("cohort_dim", [8, 16])
@pytest.mark.parametrize("name", ["snorm", "trial_qmfs"])
def test_enroll_and_test_sets_of_different_dim_raise_dim_mismatch(
        name, cohort_dim):
    # the two sets are compared with each other first, as cosine_score
    # does, so the message is the same whichever side the cohort agrees with
    rng = np.random.default_rng(27)
    ids = ["a", "b"]
    meta = {u: UttMeta(300, 3.0) for u in ids}
    enroll = EmbeddingSet(ids, rng.standard_normal((2, 8)), meta)
    test = EmbeddingSet(ids, rng.standard_normal((2, 16)), meta)
    cohort = EmbeddingSet(["s1", "s2", "s3"],
                          rng.standard_normal((3, cohort_dim)))
    trials = TrialList(["a"], ["b"])
    calls = {
        "snorm": lambda: snorm(ScoreSet(trials, [0.5]), enroll, test,
                               cohort, 2),
        "trial_qmfs": lambda: trial_qmfs(trials, enroll, test, cohort,
                                         top_n=2),
    }
    with pytest.raises(DimMismatch,
                       match="^enroll set is 8-dim, test set 16-dim$"):
        calls[name]()


def test_cosine_score_sets_of_different_dim_raise_dim_mismatch():
    enroll = EmbeddingSet(["a"], np.eye(8)[:1])
    test = EmbeddingSet(["a"], np.eye(16)[:1])
    with pytest.raises(DimMismatch,
                       match="^enroll set is 8-dim, test set 16-dim$"):
        cosine_score(TrialList(["a"], ["a"]), enroll, test)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_score_set_rejects_non_finite(bad):
    trials = TrialList(["a", "b", "c", "d"], ["w", "x", "y", "z"],
                       [1, 1, 0, 0])
    with pytest.raises(SvkitError):
        ScoreSet(trials, [0.9, bad, 0.3, 0.2])


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
def test_read_scores_rejects_non_finite(tmp_path, text):
    path = tmp_path / "scores.txt"
    path.write_text(f"a x 0.9\nb y {text}\n")
    with pytest.raises(SvkitError, match=re.escape(f"{path}:2:")):
        read_scores(path, TrialList(["a", "b"], ["x", "y"]))


@pytest.mark.parametrize("text", ["nan", "1e400", "-Infinity"])
def test_read_scores_names_the_first_non_finite_line(tmp_path, text):
    path = tmp_path / "scores.txt"
    path.write_text(f"\na x 0.9\n\n  \nb y 1e300\nc z {text}\nd w nan\n")
    trials = TrialList(["a", "b", "c", "d"], ["x", "y", "z", "w"])
    msg = re.escape(f"{path}:6: score '{text}' is not finite")
    with pytest.raises(SvkitError, match=msg):
        read_scores(path, trials)


def test_mean_fuse():
    trials = TrialList(["a", "b"], ["c", "d"])
    s1 = ScoreSet(trials, [0.2, 1.0])
    s2 = ScoreSet(trials, [0.4, 0.0])
    fused = mean_fuse([s1, s2])
    assert np.allclose(fused.scores, [0.3, 0.5])
    # single system is the identity; k copies reproduce the input exactly
    assert np.array_equal(mean_fuse([s1]).scores, s1.scores)
    assert np.array_equal(mean_fuse([s1] * 10).scores, s1.scores)


def test_mean_fuse_misaligned():
    s1 = ScoreSet(TrialList(["a"], ["b"]), [0.1])
    s2 = ScoreSet(TrialList(["a"], ["c"]), [0.1])
    with pytest.raises(MisalignedTrials):
        mean_fuse([s1, s2])


@pytest.mark.parametrize("labels, bad", [
    ([1, 0, 2], "2"),
    ([0.5, 1, 0], "0.5"),
    ([1.9, 0, 1], "1.9"),
    ([300, 0, 1], "300"),
    ([-2, 0, 1], "-2"),
    ([float("nan"), 0, 1], "nan"),
])
def test_labels_other_than_minus_one_zero_one_are_rejected(labels, bad):
    with pytest.raises(SvkitError, match=f"^label {bad} is not -1"):
        TrialList(["a", "b", "c"], ["x", "y", "z"], labels)


def test_float_labels_equal_to_a_label_are_kept():
    trials = TrialList(["a", "b", "c"], ["x", "y", "z"], [1.0, 0.0, -1.0])
    assert trials.labels.dtype == np.int8
    assert trials.labels.tolist() == [1, 0, -1]


def test_trial_and_score_files(tmp_path):
    trials = TrialList(["a", "b", "c"], ["x", "y", "z"], [1, 0, -1])
    tpath = tmp_path / "trials.txt"
    write_trials(trials, tpath)
    back = read_trials(tpath)
    assert back.enroll_ids == trials.enroll_ids
    assert np.array_equal(back.labels, trials.labels)

    scores = ScoreSet(trials, [0.123456789123, -1.5, 2.0])
    spath = tmp_path / "scores.txt"
    write_scores(scores, spath)
    line = spath.read_text().splitlines()[0]
    assert line == "a x 0.123456789"
    sback = read_scores(spath, back)
    assert np.abs(sback.scores - scores.scores).max() < 1e-8


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_read_trials_memory_is_one_string_per_distinct_id(tmp_path):
    # 50k lines over 100 ids: the trial list holds the reader's two id
    # lists of eight-byte pointers, not copies of them (which took about
    # 47 B a line), and the labels one byte a line; two new strings per
    # line would add about 100k x 60 B = 6 MB
    n = 50_000
    _, _, _, trials = _random_trials(100, n, 4, seed=12)
    path = tmp_path / "trials.txt"
    write_trials(trials, path)
    assert _traced_peak(read_trials, path) <= 5 * 8 * n


def test_read_scores_memory_is_the_scores(tmp_path):
    # 50k lines over 100 ids: read against its trial list, a score file
    # keeps one float per line, not its ids or its score texts
    n = 50_000
    _, _, _, trials = _random_trials(100, n, 4, seed=14)
    path = tmp_path / "scores.txt"
    write_scores(ScoreSet(trials, np.linspace(-3.0, 3.0, n)), path)
    assert _traced_peak(read_scores, path, trials) <= 16 * n


def test_write_scores_memory_does_not_grow_with_lines(tmp_path):
    # one block of lines is formatted per write, so a 4x longer file
    # needs no more memory; the whole file at once took about 110 B a line
    peaks = []
    for n in (4 * _RECORD_BLOCK, 16 * _RECORD_BLOCK):
        _, _, _, trials = _random_trials(100, n, 4, seed=13)
        scores = ScoreSet(trials, np.linspace(-3.0, 3.0, n))
        peaks.append(_traced_peak(write_scores, scores, tmp_path / "s.txt"))
    assert peaks[1] <= 1.25 * peaks[0]


@pytest.mark.parametrize("line", ["a", "a b 1 x", "a b 2", "a b -1"])
def test_read_trials_malformed_line_names_path_and_line(tmp_path, line):
    path = tmp_path / "trials.txt"
    path.write_text(f"a b 1\n{line}\n")
    msg = re.escape(f"{path}:2: malformed trial line")
    with pytest.raises(SvkitError, match=msg):
        read_trials(path)


@pytest.mark.parametrize("line", ["a b", "a b 0.5 1", "a b x"])
def test_read_scores_malformed_line_names_path_and_line(tmp_path, line):
    path = tmp_path / "scores.txt"
    path.write_text(f"a b 0.5\n\n{line}\n")
    msg = re.escape(f"{path}:3: malformed score line")
    with pytest.raises(SvkitError, match=msg):
        read_scores(path, TrialList(["a", "a"], ["b", "b"]))


def test_read_trials_mixed_labeled_and_unlabeled_lines(tmp_path):
    path = tmp_path / "trials.txt"
    path.write_text("a x 1\nb y\n\nc z 0\n")
    trials = read_trials(path)
    assert trials.enroll_ids == ["a", "b", "c"]
    assert trials.test_ids == ["x", "y", "z"]
    assert trials.labels.tolist() == [1, -1, 0]


def test_cohort_kernel_outputs_are_frozen():
    # one digest over every output of the cohort kernel: s-norm at top-100
    # and over the whole cohort, the trial QMFs and the cached utterance
    # QMFs under both metrics, with enroll as test (one pass over the
    # union of ids) and with a separate test set over the same ids; so a
    # change of the kernel that is meant to be bit-identical is checked
    data = length_normalize(synth_dataset(100, 20, 128, 5.0, seed=11))
    test = data.with_vectors(length_normalize(
        synth_dataset(100, 20, 128, 5.0, seed=12)).vectors)
    cohort = build_cohort(length_normalize(
        synth_dataset(3000, 2, 128, 3.0, seed=13)))
    e, t = np.random.default_rng(14).integers(len(data), size=(2, 24000))
    trials = TrialList([data.ids[i] for i in e], [data.ids[i] for i in t])
    digest = hashlib.sha256()

    def update(values):
        digest.update(np.asarray(values).astype("<f8").tobytes())

    for test_set in (data, test):
        raw = cosine_score(trials, data, test_set)
        for top_n in (100, None):
            update(snorm(raw, data, test_set, cohort, top_n).scores)
        for metric in ("cosine", "inner_product"):
            update(build_features(raw, trial_qmfs(
                trials, data, test_set, cohort, metric, 100)))
    for metric in ("cosine", "inner_product"):
        for top_n in (100, None):
            cache = utterance_qmfs(test, cohort, metric, top_n)
            update(list(cache.values()))
    assert digest.hexdigest() == (
        "a58185b9f01eb77a8cb076dda998223300dc803209a75fdebfefbc13387a4b8f")
