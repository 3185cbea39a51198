import gc
import hashlib
import math
import pickle
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
    _TEXT_BLOCK,
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


def _opposed_stats_inputs(n, m, dim, seed):
    """`_stats_inputs` moved so that every utterance scores below 0
    against every cohort mean: each row of a top-N keeps negative keys and
    is partitioned again as doubles."""
    emb, ids, cohort = _stats_inputs(n, m, dim, seed)
    shift = np.zeros(dim)
    shift[0] = 10.0
    return (EmbeddingSet(ids, 0.1 * emb.vectors + shift), ids,
            EmbeddingSet(cohort.ids, 0.1 * cohort.vectors - shift))


def test_cohort_stats_memory_is_one_block():
    # one reused (_ROW_BLOCK x cohort) score buffer; a fresh block per
    # product plus a partitioned copy would be two. A set with metadata
    # adds only the scratch rows of the cosine division. Under an opposed
    # cohort every row is partitioned again, in place
    for emb, ids, cohort in (_stats_inputs(2100, 3000, 32, seed=22),
                             _stats_inputs(300, 3000, 256, seed=26),
                             _opposed_stats_inputs(300, 3000, 32, seed=28)):
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


def test_read_trials_memory_is_two_codes_and_a_label_a_line(tmp_path):
    # 300k lines over 1000 ids: the list holds two int32 codes and a label
    # byte a line (arrays that grow by 1/16) beyond its distinct ids, and
    # the read one text block of lines at a time. A block's fields are str
    # objects, about 60 B for each of these ids of 2-4 characters, so
    # its working set is the peak of reading a file of that block alone
    # (about 24 blocks of text here); a list of id strings would take
    # 16 B a line, and a read holding two blocks would add another
    n, n_ids = 300_000, 1000
    _, _, _, trials = _random_trials(n_ids, n, 4, seed=15)
    path = tmp_path / "trials.txt"
    write_trials(trials, path)
    text = path.read_text()
    one = tmp_path / "one.txt"
    one.write_text(text[:text.rfind("\n", 0, _TEXT_BLOCK) + 1])
    block = _traced_peak(read_trials, one)
    peak = _traced_peak(read_trials, path)
    assert peak <= 9 * n * 17 // 16 + 200 * n_ids + block


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


def _cohort_kernel_inputs():
    """(data, test, cohort, trials) of the cohort-kernel digest: a set,
    a second set over the same ids, a 3000-speaker cohort, 24k trials."""
    data = length_normalize(synth_dataset(100, 20, 128, 5.0, seed=11))
    test = data.with_vectors(length_normalize(
        synth_dataset(100, 20, 128, 5.0, seed=12)).vectors)
    cohort = build_cohort(length_normalize(
        synth_dataset(3000, 2, 128, 3.0, seed=13)))
    e, t = np.random.default_rng(14).integers(len(data), size=(2, 24000))
    trials = TrialList([data.ids[i] for i in e], [data.ids[i] for i in t])
    return data, test, cohort, trials


def test_cohort_kernel_outputs_are_frozen():
    # one digest over every output of the cohort kernel: s-norm at top-100
    # and over the whole cohort, the trial QMFs and the cached utterance
    # QMFs under both metrics, with enroll as test (one pass over the
    # union of ids) and with a separate test set over the same ids; so a
    # change of the kernel that is meant to be bit-identical is checked.
    # The bits are those of OpenBLAS's FMA gemm kernels (its default
    # dispatch on x86-64 with AVX2, and OPENBLAS_CORETYPE Haswell, Zen,
    # SkylakeX, Cooperlake or SapphireRapids); a pre-FMA kernel
    # (SandyBridge, Prescott) rounds the cohort products otherwise, and
    # the digest differs. The test below checks the same outputs on any
    # kernel, against the oracles at 1e-10.
    data, test, cohort, trials = _cohort_kernel_inputs()
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


def test_cohort_kernel_outputs_match_the_oracles():
    # the digest's outputs, on sampled trials and utterances, against
    # explicit per-utterance cohort scores (elementwise products, no
    # gemm) and `oracles.snorm_side_stats`, at aim 2's 1e-10: a change of
    # BLAS kernel moves them by about 1e-14, a change of logic far more
    data, test, cohort, trials = _cohort_kernel_inputs()
    means = cohort.vectors
    mean_norms = np.sqrt((means * means).sum(axis=1))
    rng = np.random.default_rng(15)
    idx = rng.choice(len(trials), 12, replace=False)
    utts = rng.choice(len(data), 12, replace=False)

    def scores(v, metric):
        dots = (means * v).sum(axis=1)
        if metric == "cosine":
            dots = dots / (mean_norms * np.sqrt((v * v).sum()))
        return dots.tolist()

    def stats(v, metric, top_n):
        return oracles.snorm_side_stats(scores(v, metric),
                                        top_n or len(cohort))

    def qmf(emb_set, u, metric, top_n):
        frames = emb_set.meta[u].speech_frames
        return math.log1p(frames), stats(emb_set.vector(u), metric, top_n)[0]

    for test_set in (data, test):
        raw = cosine_score(trials, data, test_set)
        pairs = [(data.vector(e), test_set.vector(t), e, t) for e, t in
                 ((trials.enroll_ids[i], trials.test_ids[i]) for i in idx)]
        for top_n in (100, None):
            normed = snorm(raw, data, test_set, cohort, top_n).scores[idx]
            want = [oracles.snorm_oracle(s, scores(ve, "cosine"),
                                         scores(vt, "cosine"),
                                         top_n or len(cohort))
                    for s, (ve, vt, _, _) in zip(raw.scores[idx], pairs)]
            assert np.abs(normed - want).max() <= 1e-10
        for metric in ("cosine", "inner_product"):
            got = trial_qmfs(trials, data, test_set, cohort, metric,
                             100).values[idx]
            for row, (_, _, e, t) in zip(got, pairs):
                qe, qt = qmf(data, e, metric, 100), qmf(test_set, t,
                                                        metric, 100)
                want = [min(qe[0], qt[0]), max(qe[0], qt[0]),
                        min(qe[1], qt[1]), max(qe[1], qt[1])]
                assert np.abs(row - want).max() <= 1e-10
    for metric in ("cosine", "inner_product"):
        for top_n in (100, None):
            cache = utterance_qmfs(test, cohort, metric, top_n)
            for u in (test.ids[i] for i in utts):
                want = qmf(test, u, metric, top_n)
                assert np.abs(np.subtract(cache[u], want)).max() <= 1e-10


def _float_topn_desc(scores, n):
    """The top-n selection partitioned on the doubles themselves: the
    reference for the int64-key partition of `scoring._topn_desc`."""
    m = scores.shape[1]
    if n < m:
        scores.partition(m - n, axis=1)
        scores = scores[:, m - n:]
    np.negative(scores, out=scores)
    scores.sort(axis=1)
    return np.negative(scores, out=scores)


def test_topn_desc_keeps_the_n_largest_doubles_with_negative_keys():
    # -0.0 has the least int64 key and a negative double's key grows with
    # its magnitude, so an int64 partition alone would keep the wrong
    # entries in every row below but the first
    rows = np.array([[0.5, 0.0, -0.0, 0.25, -0.5, -0.125, 1.0],
                     [-0.0, -0.5, 0.0, -0.125, -0.25, -1.0, -0.0],
                     [-0.5, -0.25, -1.0, -0.125, -2.0, -0.75, -3.0],
                     [0.25, -0.0, -0.25, 0.0, -0.5, 0.25, -1.0]])
    for n in range(1, rows.shape[1] + 1):
        got = scoring._topn_desc(rows.copy(), n)
        want = -np.sort(-rows, axis=1)[:, :n]
        assert np.array_equal(got, want)
        assert np.array_equal(got, _float_topn_desc(rows.copy(), n))


def test_topn_desc_when_most_rows_fall_back():
    # most rows hold fewer than n scores >= +0.0, zeros of both signs
    # among them; each of those rows is partitioned again as doubles, and
    # the block keeps the values of a partition of the doubles alone (a
    # tie of +0.0 and -0.0 may keep either) and the bits of their stats
    rng = np.random.default_rng(45)
    rows = -np.abs(rng.standard_normal((_ROW_BLOCK, 600)))
    few = rng.random(rows.shape) < 0.05
    rows[few] = -rows[few]
    rows[:, :3] = [0.0, -0.0, 0.0]
    rows[-20:] = np.abs(rows[-20:])  # rows that need no second partition
    n = 100
    assert ((~np.signbit(rows)).sum(axis=1) < n).sum() == _ROW_BLOCK - 20
    want = _float_topn_desc(rows.copy(), n)
    got = scoring._topn_desc(rows.copy(), n)
    assert np.array_equal(got, want)
    assert got.mean(axis=1).tobytes() == want.mean(axis=1).tobytes()
    assert got.std(axis=1).tobytes() == want.std(axis=1).tobytes()
    assert np.array_equal(got, -np.sort(-rows, axis=1)[:, :n])


def _opposed_cohort_setup():
    """(set, cohort, trials): a set with metadata, its rows 1-59 around
    +e_2 and 60-119 around -e_2, and a cohort of 120 means around -3 e_2,
    so rows 1-59 have few scores >= +0.0 and rows 60-119 many. Row 0 is
    e_0: 19 means score positive against it, e_1 scores +0.0, and a mean
    whose product with e_0 is the least negative subnormal scores -0.0
    under the cosine (the division by its norm, 3, underflows); every
    other mean scores negative. So at top 20 its kept scores end in a
    tie of +0.0 and -0.0, and at top 21 they hold both."""
    rng = np.random.default_rng(41)
    dim, eye = 8, np.eye(8)
    sides = np.repeat([4.0, -4.0], 60)[1:, None] * eye[2]
    vecs = np.vstack([eye[0], sides + rng.standard_normal((119, dim))])
    ids = [f"u{i:03d}" for i in range(len(vecs))]
    data = length_normalize(EmbeddingSet(ids, vecs, {
        u: UttMeta(100 + i, 5.0, f"s{i % 7}") for i, u in enumerate(ids)}))
    opposed = -3.0 * eye[2] + 0.5 * rng.standard_normal((120, dim))
    opposed[:, 0] = -np.abs(opposed[:, 0]) - 0.1
    toward = eye[0] + 0.5 * rng.standard_normal((19, dim))
    toward[:, 0] = np.abs(toward[:, 0]) + 0.1
    minus_zero = 3.0 * eye[dim - 1]
    minus_zero[0] = -5e-324
    means = np.vstack([opposed, toward, eye[1], minus_zero])
    cohort = EmbeddingSet([f"c{i:03d}" for i in range(len(means))], means)
    e, t = rng.integers(len(ids), size=(2, 300))
    e[:10] = 0
    trials = TrialList([ids[i] for i in e], [ids[i] for i in t])
    return data, cohort, trials


def _cosines(data, cohort):
    # the kernel's order: the product, by the row's norm, by the mean's
    return (data.vectors @ cohort.vectors.T
            / np.linalg.norm(data.vectors, axis=1)[:, None]
            / np.linalg.norm(cohort.vectors, axis=1)[None, :])


@pytest.mark.parametrize("top_n", [20, 21, 140])
def test_int_key_top_n_rows_with_negative_keys_match_float_partition(
        monkeypatch, top_n):
    # rows whose kept int64 keys include a negative one are partitioned
    # again as doubles; the others keep exactly the n largest doubles
    data, cohort, trials = _opposed_cohort_setup()
    cos = _cosines(data, cohort)
    non_negative = (~np.signbit(cos)).sum(axis=1)
    assert (non_negative < top_n).sum() >= 50
    assert (non_negative >= top_n).sum() >= (0 if top_n > 100 else 50)
    # (a float sort need not keep the signs of zeros, so none is used)
    zeros = np.flatnonzero(cos[0] == 0.0)
    assert (cos[0] > 0.0).sum() == 19 and (cos[0] < 0.0).sum() == 120
    assert np.signbit(cos[0, zeros]).tolist() == [False, True]

    def outputs():
        raw = cosine_score(trials, data)
        out = [snorm(raw, data, data, cohort, top_n).scores]
        for metric in ("inner_product", "cosine"):
            out.append(trial_qmfs(trials, data, data, cohort, metric,
                                  top_n).values)
            out.append(np.array(list(
                utterance_qmfs(data, cohort, metric, top_n).values())))
        return out

    got = outputs()
    monkeypatch.setattr(scoring, "_topn_desc", _float_topn_desc)
    want = outputs()
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()

    raw = cosine_score(trials, data)
    scores = {u: [oracles.cosine_oracle(data.vector(u), c)
                  for c in cohort.vectors] for u in data.ids}
    for i, (e, t, _) in enumerate(trials):
        want_score = oracles.snorm_oracle(raw.scores[i], scores[e],
                                          scores[t], top_n)
        assert abs(got[0][i] - want_score) < 1e-10
    unit_means = cohort.vectors / np.linalg.norm(cohort.vectors, axis=1,
                                                 keepdims=True)
    for k, u in enumerate(data.ids):
        for means, qmfs in ((cohort.vectors, got[2]), (unit_means, got[4])):
            want_mean = oracles.imposter_mean_oracle(data.vector(u), means,
                                                     top_n)
            assert abs(qmfs[k, 1] - want_mean) <= 1e-15


def test_embedding_set_pickles_after_snorm_without_its_keep():
    data = length_normalize(synth_dataset(10, 8, 16, 6.0))
    cohort = build_cohort(data)
    trials = TrialList(data.ids[:40], data.ids[40:])
    snorm(cosine_score(trials, data), data, data, cohort, 5)
    assert data._kept_stats is not None
    back = pickle.loads(pickle.dumps(data))
    assert back.ids == data.ids
    assert np.array_equal(back.vectors, data.vectors)
    assert back.meta == data.meta
    assert back._kept_stats is None
    for column in (back.vectors, back.meta.speech_frames,
                   back.meta.duration_s, back.meta.speaker_codes):
        assert not column.flags.writeable
