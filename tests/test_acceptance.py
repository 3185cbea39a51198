"""Acceptance gate: one test per release criterion.

Each test prints a single PASS line when its criterion holds (visible with
pytest -s; on failure pytest shows the captured line plus the assertion).
"""

import json
import time

import numpy as np

import oracles
from svkit import (
    CalibrationModel,
    DcfParams,
    EmbeddingSet,
    ScoreSet,
    TrialList,
    actual_dcf,
    adjusted_rand_index,
    ahc_ward,
    apply_calibration,
    assign_pseudo_labels,
    build_cohort,
    build_features,
    clr_triangular2,
    cosine_score,
    eer,
    fit_logreg,
    gen_calibration_trials,
    identity_refresher,
    iterate,
    length_normalize,
    make_prototype_pull_refresher,
    min_dcf,
    minibatch_kmeans,
    read_embeddings,
    snorm,
    sweep_cluster_count,
    synth_dataset,
    trial_qmfs,
    write_embeddings,
)
from svkit import scoring
from svkit.calibration import duration_class, read_model, write_model
from svkit.clustering import KMeansModel, read_kmeans, write_kmeans
from svkit.embeddings import UttMeta
from svkit.gradcheck import run_suite


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# ---------------------------------------------------------------------------
# 1. metric oracles, exact match

def test_criterion_1_metric_oracles_exact():
    rng = np.random.default_rng(100)
    t0 = time.perf_counter()
    worst_sets = 0
    for case in range(1000):
        n_tar = int(rng.integers(2, 1001))
        n_non = int(rng.integers(2, 1001))
        if case % 2:
            tar = rng.standard_normal(n_tar) + 1.0
            non = rng.standard_normal(n_non)
        else:
            # coarse grid scores to exercise tie handling
            tar = rng.integers(0, 12, size=n_tar) / 10.0
            non = rng.integers(-2, 10, size=n_non) / 10.0
        trials = TrialList(
            [f"e{i}" for i in range(n_tar + n_non)],
            [f"t{i}" for i in range(n_tar + n_non)],
            [1] * n_tar + [0] * n_non,
        )
        ss = ScoreSet(trials, np.concatenate([tar, non]))
        p = float(rng.choice([0.01, 0.05]))
        ok = (eer(ss) == oracles.eer_oracle(tar, non)
              and min_dcf(ss, DcfParams(p))
              == oracles.min_dcf_oracle(tar, non, p))
        worst_sets += not ok
    elapsed = time.perf_counter() - t0
    _report(1, worst_sets == 0 and elapsed < 10.0,
            f"eer/min_dcf exact on 1000 random sets "
            f"({worst_sets} mismatches, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. gradient suite

def test_criterion_2_gradient_suite():
    t0 = time.perf_counter()
    errs = run_suite(instances=100, seed=0)
    elapsed = time.perf_counter() - t0
    worst = max(errs.values())
    _report(2, worst < 1e-6 and elapsed < 0.5,
            f"max rel err {worst:.2e} over 100 instances each "
            f"({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 3. s-norm oracle equivalence + properties

def _snorm_fixture(seed):
    rng = np.random.default_rng(seed)
    cohort_set = synth_dataset(50, 4, 16, concentration=5.0, seed=seed)
    cohort = build_cohort(length_normalize(cohort_set))
    e_vecs = rng.standard_normal((20, 16))
    t_vecs = rng.standard_normal((20, 16))
    enroll = EmbeddingSet([f"e{i}" for i in range(20)], e_vecs)
    test = EmbeddingSet([f"t{i}" for i in range(20)], t_vecs)
    pairs = rng.integers(0, 20, size=(100, 2))
    trials = TrialList([f"e{a}" for a, _ in pairs],
                       [f"t{b}" for _, b in pairs])
    raw = cosine_score(trials, enroll, test)
    return cohort, enroll, test, trials, raw


def test_criterion_3_snorm_oracle_and_properties(monkeypatch):
    cohort, enroll, test, trials, raw = _snorm_fixture(300)
    worst = 0.0
    for top_n in (5, None):
        got = snorm(raw, enroll, test, cohort, top_n=top_n)
        eff = len(cohort) if top_n is None else top_n
        for i, (e, t, _) in enumerate(trials):
            ec = [oracles.cosine_oracle(enroll.vector(e), m)
                  for m in cohort.vectors]
            tc = [oracles.cosine_oracle(test.vector(t), m)
                  for m in cohort.vectors]
            want = oracles.snorm_oracle(raw.scores[i], ec, tc, eff)
            worst = max(worst, abs(got.scores[i] - want))
    assert worst < 1e-10

    # symmetry: swapping the two sides leaves the score unchanged
    swapped_trials = TrialList(trials.test_ids, trials.enroll_ids)
    raw_sw = ScoreSet(swapped_trials, raw.scores)
    baseline = snorm(raw, enroll, test, cohort, top_n=10).scores
    swapped = snorm(raw_sw, test, enroll, cohort, top_n=10).scores
    sym_worst = float(np.abs(baseline - swapped).max())

    # affine invariance: scoring function s -> alpha*s + beta (alpha > 0),
    # applied to every cohort score just before its top-n statistics
    topn = scoring._topn_desc
    rng = np.random.default_rng(301)
    aff_worst = 0.0
    for _ in range(10):  # 10 transforms x 100 trials = 1000 cases
        alpha = float(rng.uniform(0.5, 2.0))
        beta = float(rng.uniform(-1.0, 1.0))

        def affine_topn(sims, n, al=alpha, be=beta):
            sims *= al
            sims += be
            return topn(sims, n)

        monkeypatch.setattr(scoring, "_topn_desc", affine_topn)
        raw2 = raw.with_scores(alpha * raw.scores + beta)
        got2 = snorm(raw2, enroll, test, cohort, top_n=10)
        aff_worst = max(aff_worst,
                        float(np.abs(got2.scores - baseline).max()))

    _report(3, worst < 1e-10 and sym_worst < 1e-12 and aff_worst < 1e-8,
            f"oracle diff {worst:.1e}, symmetry {sym_worst:.1e}, "
            f"affine {aff_worst:.1e}")


# ---------------------------------------------------------------------------
# 4/5/9 share one synthetic corpus

def _cluster_corpus():
    ds = synth_dataset(200, 20, 64, concentration=10.0, seed=1)
    return length_normalize(ds)


def _truth(emb_set):
    return {u: u.split("_")[0] for u in emb_set.ids}


def _eval_trials(emb_set, seed=5):
    rng = np.random.default_rng(seed)
    ids = list(emb_set.ids)
    enroll, test, labels = [], [], []
    pairs = set()
    truth = _truth(emb_set)
    while len(pairs) < 3000:
        i, j = rng.integers(0, len(ids), size=2)
        if i == j or (i, j) in pairs:
            continue
        pairs.add((int(i), int(j)))
        enroll.append(ids[i])
        test.append(ids[j])
        labels.append(int(truth[ids[i]] == truth[ids[j]]))
    # guarantee target coverage for every speaker
    for s in range(200):
        base = s * 20
        for k in (0, 2):
            enroll.append(ids[base + k])
            test.append(ids[base + k + 1])
            labels.append(1)
    return TrialList(enroll, test, labels)


def test_criterion_4_and_5_clustering_recovery_and_sweep():
    t0 = time.perf_counter()
    data = _cluster_corpus()
    km = minibatch_kmeans(data, 2000, batch_size=1000, seed=2)
    _, center_labels = ahc_ward(km.centers, 200)
    labeling = assign_pseudo_labels(data, km, center_labels)
    ari = adjusted_rand_index(labeling.assignment, _truth(data))

    rows, best_k = sweep_cluster_count(data, km, [67, 200, 600],
                                       _eval_trials(data))
    eers = dict(rows)
    elapsed = time.perf_counter() - t0

    _report(4, ari > 0.90 and best_k == 200 and elapsed < 60.0,
            f"ARI {ari:.3f} at K=200, sweep picked K={best_k} "
            f"({elapsed:.1f}s)")
    _report(5, eers[67] > eers[200],
            f"under-clustering EER {eers[67]*100:.2f}% > "
            f"{eers[200]*100:.2f}% at truth K")


def _harder_corpus():
    # at concentration 6 the true-K recovery is imperfect (ARI about 0.75,
    # EERs about 14% at K=67 and 10% at K=200), so neither the ARI floor
    # nor the EER ordering is settled by a perfect clustering
    return length_normalize(synth_dataset(200, 20, 64, concentration=6.0,
                                          seed=1))


def test_criterion_4_and_5_on_a_harder_corpus():
    data = _harder_corpus()
    km = minibatch_kmeans(data, 2000, batch_size=1000, seed=2)
    _, center_labels = ahc_ward(km.centers, 200)
    labeling = assign_pseudo_labels(data, km, center_labels)
    ari = adjusted_rand_index(labeling.assignment, _truth(data))
    eers = dict(sweep_cluster_count(data, km, [67, 200],
                                    _eval_trials(data))[0])

    _report("4 (harder corpus)", 0.70 < ari < 1.0,
            f"ARI {ari:.3f} at K=200 in (0.70, 1)")
    _report("5 (harder corpus)", eers[67] > eers[200],
            f"under-clustering EER {eers[67]*100:.2f}% > "
            f"{eers[200]*100:.2f}% at truth K")


# ---------------------------------------------------------------------------
# 6. quality-aware calibration benefit

def _shift_short_short(scores, emb_set, delta=-0.1):
    out = scores.scores.copy()
    for i, (e, t, _) in enumerate(scores.trials):
        cls = duration_class(emb_set.meta[e].duration_s,
                             emb_set.meta[t].duration_s)
        if cls == "short-short":
            out[i] += delta
    return scores.with_scores(out)


def test_criterion_6_quality_aware_calibration():
    t0 = time.perf_counter()
    ds = synth_dataset(100, 20, 32, concentration=12.0,
                       duration_range_s=(2.0, 12.0), seed=11)
    data = length_normalize(ds)
    cohort = build_cohort(data)
    params = DcfParams(0.01)

    def prepare(trial_seed):
        trials = gen_calibration_trials(data, 2000, seed=trial_seed)
        raw = cosine_score(trials, data, data)
        shifted = _shift_short_short(raw, data)
        qmfs = trial_qmfs(trials, data, data, cohort, top_n=100)
        return shifted, qmfs

    cal_scores, cal_qmfs = prepare(1)
    eval_scores, eval_qmfs = prepare(2)
    y_cal = cal_scores.trials.labels

    plain = fit_logreg(build_features(cal_scores), y_cal)
    eval_plain = apply_calibration(plain, eval_scores)

    # quality-aware: plain stage first, then QMF-augmented stage
    stage1 = apply_calibration(plain, cal_scores)
    qa = fit_logreg(build_features(stage1, cal_qmfs), y_cal)
    eval_qa = apply_calibration(
        qa, apply_calibration(plain, eval_scores), eval_qmfs)

    dcf_plain = actual_dcf(eval_plain, params)
    dcf_qa = actual_dcf(eval_qa, params)
    rel_gain = (dcf_plain - dcf_qa) / dcf_plain
    eer_raw = eer(eval_scores)
    eer_shift = max(abs(eer(eval_plain) - eer_raw),
                    abs(eer(eval_qa) - eer_raw))
    elapsed = time.perf_counter() - t0

    _report(6, rel_gain >= 0.10 and eer_shift < 0.002 and elapsed < 30.0,
            f"actual_dcf {dcf_plain:.4f} -> {dcf_qa:.4f} "
            f"({rel_gain*100:.0f}% rel), EER shift "
            f"{eer_shift*100:.3f}% abs ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 7. CLR checkpoints

def test_criterion_7_clr_checkpoints():
    L = 130000
    second_peak = 1e-8 + (1e-3 - 1e-8) / 2.0
    checks = [
        (clr_triangular2(0, L), 1e-8),
        (clr_triangular2(65000, L), 1e-3),
        (clr_triangular2(195000, L), second_peak),
    ]
    worst = max(abs(got - want) / want for got, want in checks)
    _report(7, worst < 1e-9,
            f"t=0/65000/195000 within rel {worst:.1e}")


# ---------------------------------------------------------------------------
# 8. format round trips

def test_criterion_8_format_round_trips(tmp_path):
    rng = np.random.default_rng(800)
    failures = 0
    for case in range(100):
        kind = case % 3
        if kind == 0:
            n = int(rng.integers(1, 30))
            d = int(rng.integers(1, 64))
            ids = [f"utt{case}_{i}" for i in range(n)]
            vecs = rng.standard_normal((n, d))
            durs = rng.uniform(2, 12, size=n)
            meta = {
                u: UttMeta(speech_frames=int(durs[i] * 100),
                           duration_s=float(durs[i]),
                           speaker=f"s{i % 5}")
                for i, u in enumerate(ids)
            }
            es = EmbeddingSet(ids, vecs, meta)
            path = tmp_path / f"{case}.svb"
            write_embeddings(es, path)
            back = read_embeddings(path)
            expect = np.asarray(vecs, dtype=np.float32).astype(np.float64)
            ok = (back.ids == ids
                  and np.array_equal(back.vectors, expect))
        elif kind == 1:
            k = int(rng.integers(1, 20))
            d = int(rng.integers(1, 32))
            model = KMeansModel(
                rng.standard_normal((k, d)).astype(np.float32)
                .astype(np.float64),
                rng.integers(0, 1000, size=k).astype(np.uint64),
                float(rng.uniform()),
            )
            path = tmp_path / f"{case}.svkm"
            write_kmeans(model, path)
            back = read_kmeans(path)
            ok = (np.array_equal(back.centers, model.centers)
                  and np.array_equal(back.counts, model.counts))
        else:
            arity = int(rng.integers(1, 6))
            model = CalibrationModel(
                rng.standard_normal(arity),
                float(rng.standard_normal()),
                tuple(f"f{i}" for i in range(arity)),
                bool(rng.integers(0, 2)),
            )
            path = tmp_path / f"{case}.json"
            write_model(model, path)
            back = read_model(path)
            ok = (np.array_equal(back.weights, model.weights)
                  and back.bias == model.bias
                  and back.feature_names == model.feature_names)
        failures += not ok
    _report(8, failures == 0,
            f"100 randomized round trips, {failures} mismatches")


# ---------------------------------------------------------------------------
# 9. iteration mechanics

def test_criterion_9_iteration_mechanics():
    data = _cluster_corpus()
    truth = _truth(data)

    recs = iterate(data, identity_refresher, 2000, 200,
                   batch_size=1000, max_iters=3, seed=7)
    agreements = [r.agreement_with_prev for r in recs[1:]]
    fixed_point = (len(recs) == 3
                   and all(a == 1.0 for a in agreements))

    recs_pull = iterate(data, make_prototype_pull_refresher(0.2),
                        2000, 200, batch_size=1000, max_iters=3, seed=7)
    aris = [adjusted_rand_index(r.labeling.assignment, truth)
            for r in recs_pull]
    monotone = all(b >= a - 1e-12 for a, b in zip(aris, aris[1:]))

    _report(9, fixed_point and monotone,
            f"identity agreement {agreements}, pull ARIs "
            f"{[round(a, 3) for a in aris]}")


def test_criterion_9_on_a_harder_corpus():
    # on the corpus above every pull ARI is 1, so the monotone check
    # cannot fail there; here they are about 0.76, 0.84 and 0.85, and a
    # refresher that degrades the embeddings lowers them
    data = _harder_corpus()
    recs = iterate(data, make_prototype_pull_refresher(0.2), 2000, 200,
                   batch_size=1000, max_iters=3, seed=7)
    aris = [adjusted_rand_index(r.labeling.assignment, _truth(data))
            for r in recs]
    monotone = all(b >= a - 1e-12 for a, b in zip(aris, aris[1:]))
    _report("9 (harder corpus)",
            len(recs) == 3 and monotone and max(aris) < 1.0,
            f"pull ARIs {[round(a, 3) for a in aris]}, monotone and < 1")
