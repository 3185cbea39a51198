import re
import tracemalloc

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
from svkit.errors import (
    DegenerateCohort,
    MisalignedTrials,
    MissingLabel,
    SvkitError,
    UnknownId,
    ZeroVector,
)
from svkit.scoring import (
    _ROW_BLOCK,
    Cohort,
    ScoreSet,
    _cohort_stats,
    _cosine_matrix,
    _inner_product_matrix,
)


def _labeled_set(vectors, speakers):
    ids = [f"u{i}" for i in range(len(vectors))]
    meta = {u: UttMeta(100, 1.0, spk) for u, spk in zip(ids, speakers)}
    return EmbeddingSet(ids, vectors, meta)


def test_cohort_identical_embeddings():
    v = np.array([0.6, 0.8])
    s = _labeled_set([v, v], ["a", "a"])
    cohort = build_cohort(s)
    assert cohort.speaker_ids == ("a",)
    assert np.allclose(cohort.means[0], v)


def test_cohort_orthogonal_mean_norm():
    s = _labeled_set([[1.0, 0.0], [0.0, 1.0]], ["a", "a"])
    cohort = build_cohort(s)
    assert abs(np.linalg.norm(cohort.means[0]) - np.sqrt(2) / 2) < 1e-12


def test_cohort_one_vector_per_speaker_sorted():
    s = length_normalize(synth_dataset(30, 4, 16, 8.0, seed=0))
    cohort = build_cohort(s)
    assert len(cohort) == 30
    assert list(cohort.speaker_ids) == sorted(cohort.speaker_ids)


def test_cohort_means_equal_per_speaker_means():
    # speakers interleaved and of uneven size; each mean must equal numpy's
    # mean over that speaker's rows in set order, bit for bit
    rng = np.random.default_rng(3)
    speakers = rng.choice(["b", "a", "c", "dd"], size=40).tolist()
    s = _labeled_set(rng.standard_normal((40, 7)), speakers)
    cohort = build_cohort(s)
    assert cohort.speaker_ids == tuple(sorted(set(speakers)))
    for spk, mean in zip(cohort.speaker_ids, cohort.means):
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
                    for c in cohort.means]
        t_scores = [oracles.cosine_oracle(emb.vector(t), c)
                    for c in cohort.means]
        want = oracles.snorm_oracle(raw.scores[i], e_scores, t_scores,
                                    eff_top)
        assert abs(out.scores[i] - want) < 1e-10


@pytest.mark.parametrize("shared", [True, False])
def test_snorm_tied_cohort_over_several_row_blocks(shared):
    # every cohort mean appears twice, so top_n=5 splits a tied pair; both
    # sides hold more unique utterances than one statistics block
    cohort_set = length_normalize(synth_dataset(15, 3, 8, 4.0, seed=7))
    base = build_cohort(cohort_set)
    cohort = Cohort(base.speaker_ids + tuple(f"{s}-dup" for s in
                                             base.speaker_ids),
                    np.vstack([base.means, base.means]))
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
        u: [oracles.cosine_oracle(emb.vector(u), c) for c in cohort.means]
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


def test_snorm_affine_invariance():
    emb, cohort, trials, raw = _snorm_setup(seed=4, n_trials=20)
    base = snorm(raw, emb, emb, cohort, 10)
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.uniform(0.1, 5.0)
        b = rng.uniform(-2.0, 2.0)

        def affine_cos(v, m, a=a, b=b):
            sims = v @ m.T
            sims /= np.linalg.norm(v, axis=1)[:, None]
            sims /= np.linalg.norm(m, axis=1)[None, :]
            return a * sims + b

        shifted = raw.with_scores(a * raw.scores + b)
        out = snorm(shifted, emb, emb, cohort, 10, similarity=affine_cos)
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
    cohort = Cohort(tuple(f"s{i}" for i in range(m)),
                    rng.standard_normal((m, dim)))
    return emb, ids, cohort


@pytest.mark.parametrize("top_n", [100, None])
@pytest.mark.parametrize("metric", ["cosine", "inner_product"])
def test_cohort_stats_equal_full_matrix_reference(metric, top_n):
    # rows listed out of set order, crossing one row-block edge; a BLAS
    # may pick its kernel by the row count, so the reference matrix is
    # multiplied in the same row blocks
    emb, ids, cohort = _stats_inputs(_ROW_BLOCK + 37, 300, 16, seed=21)
    ids = ids[::-1]
    vecs, means = emb.vectors[::-1], cohort.means
    full = np.vstack([vecs[lo:lo + _ROW_BLOCK] @ means.T
                      for lo in range(0, len(vecs), _ROW_BLOCK)])
    if metric == "cosine":
        full /= np.linalg.norm(vecs, axis=1)[:, None]
        full /= np.linalg.norm(means, axis=1)[None, :]
    m = len(cohort)
    n = m if top_n is None else top_n
    top = np.partition(full, m - n, axis=1)[:, m - n:]
    top = -np.sort(-top, axis=1)
    similarity = {"cosine": _cosine_matrix,
                  "inner_product": _inner_product_matrix}[metric]
    mu, sigma = _cohort_stats(emb, ids, cohort, top_n, similarity)
    assert np.array_equal(mu, top.mean(axis=1))
    assert np.array_equal(sigma, top.std(axis=1))


def test_cohort_stats_memory_is_one_block():
    # one reused (_ROW_BLOCK x cohort) score buffer; a fresh block per
    # call of the similarity plus a partitioned copy would be two
    emb, ids, cohort = _stats_inputs(2100, 3000, 32, seed=22)
    block = _ROW_BLOCK * len(cohort) * 8
    tracemalloc.start()
    try:
        _cohort_stats(emb, ids, cohort, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * block


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
        _cohort_stats(emb, ids, cohort, 5)
    # an inner product with a zero row is well defined
    mu = _cohort_stats(emb, ids, cohort, 5, _inner_product_matrix)[0]
    assert mu[_ROW_BLOCK + 2] == 0.0


def test_snorm_top_n_bounds():
    emb, cohort, trials, raw = _snorm_setup(seed=6, n_trials=5)
    with pytest.raises(SvkitError):
        snorm(raw, emb, emb, cohort, 1)
    with pytest.raises(SvkitError):
        snorm(raw, emb, emb, cohort, len(cohort) + 1)


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
        read_scores(path)


@pytest.mark.parametrize("text", ["nan", "1e400", "-Infinity"])
def test_read_scores_names_the_first_non_finite_line(tmp_path, text):
    path = tmp_path / "scores.txt"
    path.write_text(f"\na x 0.9\n\n  \nb y 1e300\nc z {text}\nd w nan\n")
    trials = TrialList(["a", "b", "c", "d"], ["x", "y", "z", "w"])
    msg = re.escape(f"{path}:6: score '{text}' is not finite")
    with pytest.raises(SvkitError, match=msg):
        read_scores(path)
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
        read_scores(path)


def test_read_trials_mixed_labeled_and_unlabeled_lines(tmp_path):
    path = tmp_path / "trials.txt"
    path.write_text("a x 1\nb y\n\nc z 0\n")
    trials = read_trials(path)
    assert trials.enroll_ids == ["a", "b", "c"]
    assert trials.test_ids == ["x", "y", "z"]
    assert trials.labels.tolist() == [1, -1, 0]
