
import hashlib
import json
import re

import numpy as np
import pytest

import oracles
from svkit import (
    EmbeddingSet,
    TrialList,
    UttMeta,
    apply_calibration,
    build_cohort,
    cosine_score,
    duration_qmf,
    eer,
    fit_logreg,
    gen_calibration_trials,
    length_normalize,
    mean_fuse,
    read_model,
    synth_dataset,
    trial_qmfs,
    write_model,
)
from svkit import calibration
from svkit.calibration import (
    CalibrationModel,
    QmfConfig,
    QmfVector,
    build_features,
    duration_class,
    read_qmf_cache,
    write_qmf_cache,
)
from svkit.errors import (
    ArityMismatch,
    DuplicateId,
    InsufficientData,
    MissingLabel,
    MissingMeta,
    SvkitError,
    TopNTooLarge,
    UnknownId,
    ZeroVector,
)
from svkit.scoring import Cohort, ScoreSet


# ---------------------------------------------------------------------------
# trial generation

def test_duration_class():
    assert duration_class(3.0, 4.0) == "short-short"
    assert duration_class(3.0, 10.0) == "short-long"
    assert duration_class(10.0, 3.0) == "short-long"
    assert duration_class(7.0, 6.0) == "long-long"
    assert duration_class(1.0, 10.0) is None
    # short bucket is [2, 6)
    assert duration_class(2.0, 5.999) == "short-short"
    assert duration_class(6.0, 6.0) == "long-long"


def _toy_set():
    """Two speakers, each with two short and two long utterances."""
    ids, meta = [], {}
    durs = [3.0, 4.0, 8.0, 9.0]
    for spk in ("A", "B"):
        for i, d in enumerate(durs):
            u = f"{spk}{i}"
            ids.append(u)
            meta[u] = UttMeta(int(d * 100), d, spk)
    rng = np.random.default_rng(0)
    vecs = rng.standard_normal((len(ids), 8))
    return EmbeddingSet(ids, vecs, meta)


def test_gen_trials_toy_enumeration():
    emb = _toy_set()
    trials = gen_calibration_trials(emb, 2, seed=0)
    assert len(trials) == 6
    assert int((trials.labels == 1).sum()) == 3
    # every trial sits in its class and matches its label
    per_class = {}
    for (e, t, lab) in trials:
        cls = duration_class(emb.meta[e].duration_s, emb.meta[t].duration_s)
        per_class.setdefault(cls, []).append(lab)
        same = emb.meta[e].speaker == emb.meta[t].speaker
        assert same == (lab == 1)
    assert {k: sorted(v) for k, v in per_class.items()} == {
        "short-short": [0, 1],
        "short-long": [0, 1],
        "long-long": [0, 1],
    }


def test_gen_trials_zero():
    assert len(gen_calibration_trials(_toy_set(), 0)) == 0


def test_gen_trials_no_duplicates_and_counts():
    emb = length_normalize(
        synth_dataset(20, 8, 8, 4.0, (2.0, 12.0), seed=1))
    trials = gen_calibration_trials(emb, 40, seed=2)
    assert len(trials) == 120
    pairs = set()
    for e, t, _ in trials:
        assert (e, t) not in pairs and (t, e) not in pairs
        pairs.add((e, t))
    # class and label balance
    for cls in ("short-short", "short-long", "long-long"):
        labs = [
            lab for (e, t, lab) in trials
            if duration_class(emb.meta[e].duration_s,
                              emb.meta[t].duration_s) == cls
        ]
        assert len(labs) == 40
        assert sum(labs) == 20


def test_gen_trials_deterministic():
    emb = length_normalize(synth_dataset(10, 8, 8, 4.0, seed=3))
    a = gen_calibration_trials(emb, 10, seed=7)
    b = gen_calibration_trials(emb, 10, seed=7)
    assert a.enroll_ids == b.enroll_ids and a.test_ids == b.test_ids


def test_gen_trials_frozen_output():
    # ids out of lexicographic order, so the within-bucket id-order rule
    # and the row-major candidate order both show in the digest
    emb = length_normalize(
        synth_dataset(20, 8, 8, 4.0, (2.0, 12.0), seed=1))
    perm = np.random.default_rng(0).permutation(len(emb))
    emb = EmbeddingSet([emb.ids[i] for i in perm], emb.vectors[perm],
                       emb.meta)
    trials = gen_calibration_trials(emb, 40, seed=2)
    text = "".join(f"{e} {t} {int(lab)}\n" for e, t, lab in trials)
    assert len(trials) == 120
    assert text.startswith("spk0018_utt000 spk0018_utt004 1\n"
                           "spk0008_utt004 spk0008_utt005 1\n")
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "0b79ab830170b317f57cb678d5de414bc25517e9e4ae122671d76c49c5a453aa")


def test_gen_trials_insufficient():
    emb = _toy_set()
    with pytest.raises(InsufficientData):
        gen_calibration_trials(emb, 100, seed=0)


# ---------------------------------------------------------------------------
# quality measures

def test_duration_qmf_values():
    assert duration_qmf(UttMeta(0, 0.0)) == 0.0
    assert abs(duration_qmf(UttMeta(599, 6.0)) - np.log(600.0)) < 1e-12
    assert abs(np.log(600.0) - 6.3969) < 1e-4
    assert duration_qmf(UttMeta(42, 1.0)) == duration_qmf(UttMeta(42, 2.0))


def _imposter_mean(vec, cohort, metric, top_n):
    """The imposter-mean QMF of one vector, through `utterance_qmfs` on a
    one-utterance set."""
    emb = EmbeddingSet(["u"], [vec], {"u": UttMeta(0, 0.0)})
    config = QmfConfig(metric=metric, top_n=top_n)
    return calibration.utterance_qmfs(emb, cohort, config)["u"][1]


def test_imposter_mean_qmf_hand_example():
    cohort = Cohort(("s1", "s2"), np.array([[0.5, 0.0], [0.0, 0.5]]))
    emb = np.array([1.0, 0.0])
    assert _imposter_mean(emb, cohort, "inner_product", 1) == 0.5
    assert _imposter_mean(emb, cohort, "inner_product", None) == 0.25
    one = Cohort(("s1",), np.array([[1.0, 0.0]]))
    assert _imposter_mean(emb, one, "cosine", None) == 1.0


def test_imposter_mean_qmf_metrics_differ_on_nonunit_cohort():
    cohort = Cohort(("s1",), np.array([[0.5, 0.0]]))
    emb = np.array([1.0, 0.0])
    assert _imposter_mean(emb, cohort, "inner_product", None) == 0.5
    assert _imposter_mean(emb, cohort, "cosine", None) == 1.0


@pytest.mark.parametrize("shared", [True, False])
def test_zero_norm_utterance_under_cosine_qmf_is_named(shared):
    emb = synth_dataset(4, 3, 8, 4.0, seed=2)
    cohort = build_cohort(length_normalize(emb))
    vecs = emb.vectors.copy()
    vecs[5] = 0.0
    emb = emb.with_vectors(vecs)
    cfg = QmfConfig("cosine", 2)
    with pytest.raises(ZeroVector, match=f"embedding '{emb.ids[5]}'"):
        calibration.utterance_qmfs(emb, cohort, cfg)
    test = emb if shared else emb.with_vectors(emb.vectors)
    trials = TrialList(emb.ids[:6], emb.ids[6:])
    with pytest.raises(ZeroVector, match=f"embedding '{emb.ids[5]}'"):
        trial_qmfs(trials, emb, test, cohort, cfg)


def test_imposter_mean_qmf_top_n_too_large():
    cohort = Cohort(("s1",), np.array([[1.0, 0.0]]))
    with pytest.raises(TopNTooLarge):
        _imposter_mean(np.array([1.0, 0.0]), cohort, "cosine", 5)


@pytest.mark.parametrize("top_n", [0, -1])
def test_top_n_below_one_is_rejected(top_n):
    emb = length_normalize(synth_dataset(4, 3, 8, 4.0, seed=0))
    cohort = build_cohort(emb)
    with pytest.raises(SvkitError, match=f"top_n={top_n} must be >= 1"):
        calibration.utterance_qmfs(emb, cohort, QmfConfig(top_n=top_n))
    with pytest.raises(SvkitError, match=f"top_n={top_n} must be >= 1"):
        _imposter_mean(emb.vectors[0], cohort, "cosine", top_n)


def test_trial_qmfs_symmetry_and_values():
    emb = length_normalize(
        synth_dataset(10, 6, 8, 4.0, (2.5, 11.0), seed=4))
    cohort = build_cohort(emb)
    ids = emb.ids
    trials = TrialList(ids[:10], ids[10:20])
    swapped = TrialList(ids[10:20], ids[:10])
    cfg = QmfConfig(top_n=5)
    fwd = trial_qmfs(trials, emb, emb, cohort, cfg)
    rev = trial_qmfs(swapped, emb, emb, cohort, cfg)
    assert fwd == rev
    for (e, t, _), q in zip(trials, fwd):
        dur = sorted([
            duration_qmf(emb.meta[e]), duration_qmf(emb.meta[t])])
        imp = sorted([
            oracles.imposter_mean_oracle(emb.vector(e), cohort.means, 5),
            oracles.imposter_mean_oracle(emb.vector(t), cohort.means, 5),
        ])
        assert q.min_dur_q == dur[0] and q.max_dur_q == dur[1]
        assert abs(q.min_imp_q - imp[0]) <= 1e-15
        assert abs(q.max_imp_q - imp[1]) <= 1e-15


def test_trial_qmfs_sides_sharing_ids_use_their_own_vectors():
    # the enroll and test sets share ids but hold different vectors
    rng = np.random.default_rng(8)
    ids = ["a", "b", "c"]
    meta = {u: UttMeta(300 + 100 * i, 5.0, "s") for i, u in enumerate(ids)}
    enroll = length_normalize(
        EmbeddingSet(ids, rng.standard_normal((3, 8)), meta))
    test = length_normalize(
        EmbeddingSet(ids, rng.standard_normal((3, 8)), meta))
    cohort = Cohort(tuple(f"k{i}" for i in range(6)),
                    rng.standard_normal((6, 8)))
    trials = TrialList(["a", "b", "c"], ["a", "c", "b"])
    cfg = QmfConfig(top_n=3)
    for (e, t, _), q in zip(trials, trial_qmfs(trials, enroll, test,
                                                cohort, cfg)):
        imp = sorted([
            oracles.imposter_mean_oracle(enroll.vector(e), cohort.means, 3),
            oracles.imposter_mean_oracle(test.vector(t), cohort.means, 3),
        ])
        assert q.min_imp_q < q.max_imp_q
        assert abs(q.min_imp_q - imp[0]) <= 1e-15
        assert abs(q.max_imp_q - imp[1]) <= 1e-15


@pytest.mark.parametrize("metric", ["inner_product", "cosine"])
def test_cache_features_equal_library_features(metric):
    # the CLI path (per-utterance cache, then per-trial min/max) and the
    # library path (per-trial QMFs straight from the sets) agree
    emb = length_normalize(
        synth_dataset(10, 6, 8, 4.0, (2.5, 11.0), seed=4))
    cohort = build_cohort(emb)
    rng = np.random.default_rng(12)
    pairs = rng.integers(0, len(emb), size=(2, 300))
    trials = TrialList([emb.ids[i] for i in pairs[0]],
                       [emb.ids[i] for i in pairs[1]])
    cfg = QmfConfig(metric=metric, top_n=5)
    cached = calibration.trial_qmfs_from_cache(
        trials, calibration.utterance_qmfs(emb, cohort, cfg))
    library = np.array([q.as_array()
                        for q in trial_qmfs(trials, emb, emb, cohort, cfg)])
    assert cached.shape == library.shape == (300, 4)
    assert np.array_equal(cached[:, :2], library[:, :2])
    assert np.abs(cached[:, 2:] - library[:, 2:]).max() <= 1e-15
    with pytest.raises(UnknownId, match="no QMF cache entry for 'ghost'"):
        calibration.trial_qmfs_from_cache(TrialList(["ghost"], [emb.ids[0]]),
                                          {emb.ids[0]: (1.0, 0.5)})


def test_qa_feature_names_follow_the_qmf_vector():
    assert calibration.QA_FEATURE_NAMES == (
        "score", "min_dur_q", "max_dur_q", "min_imp_q", "max_imp_q")
    q = QmfVector(1.0, 2.0, 3.0, 4.0)
    assert np.array_equal(q.as_array(), [1.0, 2.0, 3.0, 4.0])


def _set_lacking(what):
    """Two speakers with two 3 s utterances each; utterance 'a0' lacks its
    metadata row (what="row") or only its speaker (what="speaker")."""
    ids = ["a0", "a1", "b0", "b1"]
    meta = {u: UttMeta(300, 3.0, u[0]) for u in ids}
    if what == "row":
        del meta["a0"]
    else:
        meta["a0"] = UttMeta(300, 3.0, None)
    return EmbeddingSet(ids, np.eye(4), meta)


_COHORT = Cohort(("s1", "s2"), np.eye(4)[:2])
_META_USERS = {
    "build_cohort": build_cohort,
    "gen_calibration_trials": lambda s: gen_calibration_trials(s, 2),
    "utterance_qmfs": lambda s: calibration.utterance_qmfs(
        s, _COHORT, QmfConfig(top_n=1)),
    "trial_qmfs": lambda s: trial_qmfs(
        TrialList(["a0", "b0"], ["b1", "a0"]), s, s, _COHORT,
        QmfConfig(top_n=1)),
}


@pytest.mark.parametrize("name", list(_META_USERS))
def test_missing_metadata_row_raises_missing_meta(name):
    with pytest.raises(MissingMeta, match="no metadata for utterance 'a0'"):
        _META_USERS[name](_set_lacking("row"))


@pytest.mark.parametrize("name", list(_META_USERS))
def test_missing_speaker_raises_missing_label_only_where_needed(name):
    s = _set_lacking("speaker")
    if name in ("build_cohort", "gen_calibration_trials"):
        with pytest.raises(MissingLabel,
                           match="utterance 'a0' has no speaker label"):
            _META_USERS[name](s)
    else:
        _META_USERS[name](s)  # QMFs need durations, not speakers


# ---------------------------------------------------------------------------
# logistic regression

def test_fit_logreg_symmetric_bias_zero():
    a = 1.7
    X = np.array([[a]] * 40 + [[-a]] * 40)
    y = np.array([1] * 40 + [0] * 40)
    model = fit_logreg(X, y, l2=1e-3)
    assert abs(model.bias) < 1e-8
    assert model.weights[0] > 0


def gd_logreg_oracle(X, y, l2, lr=0.5, iters=200000):
    """Plain gradient descent on the same objective."""
    n, f = X.shape
    w = np.zeros(f)
    b = 0.0
    for _ in range(iters):
        p = 1.0 / (1.0 + np.exp(-(X @ w + b)))
        gw = X.T @ (p - y) / n + l2 * w
        gb = np.mean(p - y)
        w -= lr * gw
        b -= lr * gb
    return w, b


def test_fit_logreg_matches_gradient_descent_oracle():
    rng = np.random.default_rng(5)
    X = np.vstack([rng.normal(1.0, 0.5, (30, 2)),
                   rng.normal(-1.0, 0.5, (30, 2))])
    y = np.array([1] * 30 + [0] * 30)
    model = fit_logreg(X, y, l2=1e-3)
    assert model.converged
    w, b = gd_logreg_oracle(X, y, 1e-3)
    assert np.abs(model.weights - w).max() < 1e-6
    assert abs(model.bias - b) < 1e-6


def test_fit_logreg_loss_nonincreasing():
    rng = np.random.default_rng(6)
    X = rng.normal(0, 1, (100, 3))
    y = (X[:, 0] + 0.3 * rng.normal(size=100) > 0).astype(int)

    from svkit.calibration import _bce

    losses = []
    for it in range(1, 12):
        m = fit_logreg(X, y, l2=1e-4, max_iter=it)
        losses.append(_bce(X @ m.weights + m.bias, y)
                      + 0.5 * 1e-4 * m.weights @ m.weights)
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_fit_logreg_validation():
    with pytest.raises(SvkitError):
        fit_logreg(np.array([[1.0]]), np.array([1]))
    with pytest.raises(SvkitError):
        fit_logreg(np.array([[1.0], [2.0]]), np.array([1, 1]))


def test_apply_calibration_trivial():
    trials = TrialList(["a"], ["b"])
    s = ScoreSet(trials, [0.75])
    ident = CalibrationModel(np.array([1.0]), 0.0)
    assert apply_calibration(ident, s).scores[0] == 0.75
    m = CalibrationModel(np.array([2.0]), -1.0)
    assert apply_calibration(m, s).scores[0] == 0.5


def test_apply_calibration_quality_aware_dot_products():
    trials = TrialList(["a", "b"], ["c", "d"])
    s = ScoreSet(trials, [0.1, 0.9])
    qmfs = [QmfVector(1.0, 2.0, 3.0, 4.0), QmfVector(0.5, 0.6, 0.7, 0.8)]
    w = np.array([1.0, -1.0, 2.0, 0.5, 0.25])
    m = CalibrationModel(w, 0.125)
    out = apply_calibration(m, s, qmfs)
    for i in range(2):
        feats = np.concatenate([[s.scores[i]], qmfs[i].as_array()])
        assert abs(out.scores[i] - (w @ feats + 0.125)) < 1e-12
    assert np.array_equal(
        build_features(s, qmfs),
        build_features(s, np.array([q.as_array() for q in qmfs])))


def test_apply_calibration_arity_mismatch():
    trials = TrialList(["a"], ["b"])
    s = ScoreSet(trials, [0.5])
    m = CalibrationModel(np.array([1.0, 1.0]), 0.0)
    with pytest.raises(ArityMismatch):
        apply_calibration(m, s)


def test_plain_calibration_preserves_eer():
    # stage-1 calibration is monotone in the score, so single-system EER
    # cannot move
    emb = length_normalize(
        synth_dataset(30, 8, 16, 5.0, (2.0, 12.0), seed=7))
    trials = gen_calibration_trials(emb, 100, seed=8)
    raw = cosine_score(trials, emb)
    model = fit_logreg(build_features(raw), trials.labels)
    assert model.weights[0] > 0
    cal = apply_calibration(model, raw)
    assert abs(eer(cal) - eer(raw)) < 1e-12


def test_full_pipeline_monotone_in_raw_score():
    # stage 1 per system -> mean fuse -> quality-aware stage 2; with QMFs
    # held fixed the composition is strictly increasing in the raw score
    emb = length_normalize(
        synth_dataset(20, 8, 16, 5.0, (2.0, 12.0), seed=9))
    cohort = build_cohort(emb)
    trials = gen_calibration_trials(emb, 60, seed=10)
    raw = cosine_score(trials, emb)
    qmfs = trial_qmfs(trials, emb, emb, cohort, QmfConfig(top_n=10))
    stage1 = fit_logreg(build_features(raw), trials.labels)
    fused = mean_fuse([apply_calibration(stage1, raw)])
    stage2 = fit_logreg(build_features(fused, qmfs), trials.labels)
    assert stage1.weights[0] > 0

    q0 = qmfs[0]
    grid = np.linspace(-1.0, 1.0, 21)
    outs = []
    for s in grid:
        ss = ScoreSet(TrialList(["a"], ["b"]), [s])
        f = mean_fuse([apply_calibration(stage1, ss)])
        outs.append(apply_calibration(stage2, f, [q0]).scores[0])
    assert all(b > a for a, b in zip(outs, outs[1:]))


def test_model_json_round_trip(tmp_path):
    m = CalibrationModel(
        np.array([0.1, -2.5, 3.25]), 0.7071067811865476,
        ("score", "min_dur_q", "max_dur_q"))
    path = tmp_path / "model.json"
    write_model(m, path)
    back = read_model(path)
    assert np.array_equal(back.weights, m.weights)
    assert back.bias == m.bias
    assert back.feature_names == m.feature_names


def test_model_json_converged_round_trip(tmp_path):
    m = CalibrationModel(np.array([1.5]), -0.5, ("score",), converged=False)
    path = tmp_path / "model.json"
    write_model(m, path)
    assert read_model(path).converged is False
    # files written before the key existed read as converged
    payload = json.loads(path.read_text())
    del payload["converged"]
    path.write_text(json.dumps(payload))
    assert read_model(path).converged is True


def test_qmf_cache_round_trip(tmp_path):
    cache = {"a": (1.5, -0.25), "b": (6.39693, 0.125)}
    path = tmp_path / "q.csv"
    write_qmf_cache(cache, path)
    assert read_qmf_cache(path) == cache


def test_qmf_cache_duplicate_id(tmp_path):
    path = tmp_path / "q.csv"
    path.write_text("utt_id,dur_q,imp_q\na,1.5,0.25\na,2.5,0.5\n")
    with pytest.raises(DuplicateId, match=re.escape(f"{path}:3: ") + ".*'a'"):
        read_qmf_cache(path)


@pytest.mark.parametrize("row", ["b,x,0.5", "b,1.5", "b,1.5,"])
def test_qmf_cache_malformed_row_names_path_and_line(tmp_path, row):
    path = tmp_path / "q.csv"
    path.write_text(f"utt_id,dur_q,imp_q\na,1.5,0.25\n{row}\n")
    with pytest.raises(SvkitError, match=re.escape(f"{path}:3: malformed")):
        read_qmf_cache(path)


@pytest.mark.parametrize("row", ["b,nan,0.5", "b,1.5,inf", "b,-inf,0.5"])
def test_qmf_cache_rejects_non_finite(tmp_path, row):
    path = tmp_path / "q.csv"
    path.write_text(f"utt_id,dur_q,imp_q\na,1.5,0.25\n{row}\n")
    with pytest.raises(SvkitError, match=re.escape(f"{path}:3: ")
                       + ".*finite"):
        read_qmf_cache(path)


@pytest.mark.parametrize("text", [
    "{not json",
    "[1.0, 2.0]",
    '{"version": 1, "bias": 0.0}',
    '{"version": 1, "weights": [1.0]}',
    '{"version": 1, "weights": ["high"], "bias": 0.0}',
    '{"version": 1, "weights": [[1.0]], "bias": 0.0}',
    '{"version": 1, "weights": [1.0], "bias": "low"}',
    '{"version": 1, "weights": [1.0, 2.0], "bias": 0.0,'
    ' "feature_names": ["score"]}',
    '{"version": 1, "weights": [1.0], "bias": 0.0, "feature_names": 7}',
])
def test_read_model_rejects_malformed_file(tmp_path, text):
    path = tmp_path / "model.json"
    path.write_text(text)
    with pytest.raises(SvkitError, match=re.escape(f"{path}: ")):
        read_model(path)


@pytest.mark.parametrize("weights, bias", [
    ('["1.5"]', "0.5"),
    ("[1.5]", '"0.5"'),
    ("[true]", "0.5"),
    ("[1.5]", "false"),
])
def test_read_model_rejects_strings_and_booleans_as_numbers(
        tmp_path, weights, bias):
    path = tmp_path / "model.json"
    path.write_text(f'{{"version": 1, "weights": {weights}, "bias": {bias}}}')
    with pytest.raises(SvkitError, match=re.escape(f"{path}: ")):
        read_model(path)


@pytest.mark.parametrize("weights, bias", [
    ("[1e999]", "0.5"),
    ("[1" + "0" * 400 + "]", "0.5"),
    ("[1.5]", "1" + "0" * 400),
])
def test_read_model_names_path_for_numbers_out_of_range(
        tmp_path, weights, bias):
    path = tmp_path / "model.json"
    path.write_text(f'{{"version": 1, "weights": {weights}, "bias": {bias}}}')
    with pytest.raises(SvkitError, match=re.escape(f"{path}: ")):
        read_model(path)


def test_imposter_means_over_whole_cohort_match_oracle():
    emb = length_normalize(synth_dataset(12, 3, 16, 3.0, seed=21))
    cohort = build_cohort(emb)
    qmfs = calibration.utterance_qmfs(emb, cohort, QmfConfig(top_n=None))
    for u in emb.ids:
        want = oracles.imposter_mean_oracle(emb.vector(u), cohort.means)
        assert abs(qmfs[u][1] - want) <= 1e-15


def test_fit_logreg_not_converged_is_a_plain_bool():
    X = np.array([[-2.0], [-1.0], [1.0], [2.0], [0.5], [-0.5]])
    y = np.array([0, 0, 1, 1, 0, 1])
    for max_iter in (0, 1):
        model = fit_logreg(X, y, max_iter=max_iter)
        assert model.converged is False
    assert fit_logreg(X, y).converged is True
