"""Output checks for the benchmark workloads.

Every check recomputes a workload's output independently of the code path
that produced it: explicit per-trial statistics, the brute-force oracles in
`tests/oracles.py`, or plain numpy formulas. None compares against a frozen
number, so each check holds for every seed. A check raises `CheckFailed`
with a message naming what disagreed.
"""

from __future__ import annotations

import math
import traceback

import numpy as np
from scipy.special import expit

import oracles
from svkit import metrics, scoring

SNORM_TOL = 1e-10      # criterion-3 tolerance for library s-norm
FILE_RTOL = 1e-8       # values that went through a 9-significant-digit file
GRAD_TOL = 1e-6        # gradient-check bound
LOGREG_GRAD_TOL = 1e-8  # solver stops at 1e-9; leave room for summation order


class CheckFailed(Exception):
    pass


def run_all(checks):
    """Run (name, thunk) pairs; return [(name, message)] for those that
    failed. An output that makes a check raise anything else, such as a
    missing key, fails that check too."""
    failures = []
    for name, thunk in checks:
        try:
            thunk()
        except CheckFailed as e:
            failures.append((name, str(e)))
        except Exception:
            failures.append((name, traceback.format_exc()))
    return failures


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _close(got, want, what, rtol=0.0, atol=0.0):
    got = np.asarray(got, dtype=np.float64).ravel()
    want = np.asarray(want, dtype=np.float64).ravel()
    bad = np.flatnonzero(~(np.abs(got - want) <= atol + rtol * np.abs(want)))
    if bad.size:
        i = bad[0]
        raise CheckFailed(f"{what}: {bad.size} of {want.size} values differ, "
                          f"first at {i}: {got[i]!r} vs {want[i]!r}")


def sample(n, k, rng):
    """Sorted sample of min(n, k) distinct indices."""
    return np.sort(rng.choice(n, size=min(n, k), replace=False))


def cohort_means(cohort_vectors, cohort_speakers):
    """Per-speaker means of unit-normalized vectors, speakers in sorted
    order: the cohort definition, recomputed without svkit."""
    unit = cohort_vectors / np.linalg.norm(cohort_vectors, axis=1)[:, None]
    names, inverse = np.unique(np.asarray(cohort_speakers), return_inverse=True)
    sums = np.zeros((names.size, unit.shape[1]))
    np.add.at(sums, inverse, unit)
    return sums / np.bincount(inverse)[:, None]


def _cohort_cosines(vec, means):
    return (means @ vec) / (np.linalg.norm(means, axis=1) * np.linalg.norm(vec))


# ---------------------------------------------------------------------------
# scoring

def check_cosine(raw, enroll_vecs, test_vecs, idx, rtol=1e-12):
    """raw[i] is the cosine of the i-th enroll/test vector pair."""
    want = [oracles.cosine_oracle(enroll_vecs[j], test_vecs[j])
            for j in range(len(idx))]
    _close(np.asarray(raw)[idx], want, "cosine scores", rtol, 1e-15)


def check_snorm(raw, normed, enroll_vecs, test_vecs, means, top_n, idx,
                rtol=0.0, atol=SNORM_TOL):
    """normed[i] equals the s-norm of raw[i] from explicit top-N cohort
    statistics of the i-th enroll and test vectors."""
    want = []
    for j, i in enumerate(idx):
        want.append(oracles.snorm_oracle(
            float(raw[i]),
            _cohort_cosines(enroll_vecs[j], means).tolist(),
            _cohort_cosines(test_vecs[j], means).tolist(),
            top_n,
        ))
    _close(np.asarray(normed)[idx], want, "s-norm scores", rtol, atol)


def check_fusion(fused, systems, rtol=FILE_RTOL):
    """fused is the per-trial mean of the systems."""
    _close(fused, np.mean(np.asarray(systems), axis=0), "fused scores",
           rtol, 1e-12)


def check_score_file(path, enroll_ids, test_ids, scores):
    """The score file lists the trials in order with each score at 9
    significant digits."""
    with open(path) as f:
        lines = f.read().splitlines()
    _require(len(lines) == len(scores),
             f"{path}: {len(lines)} lines for {len(scores)} trials")
    for i, line in enumerate(lines):
        want = f"{enroll_ids[i]} {test_ids[i]} {scores[i]:.9g}"
        _require(line == want, f"{path}:{i + 1}: {line!r} != {want!r}")


# ---------------------------------------------------------------------------
# calibration

def qmf_values(vec, speech_frames, means, top_n):
    """(duration QMF, imposter-mean QMF) of one unit embedding: log(1 +
    speech frames) and the mean of its top_n inner products with the
    cohort means."""
    imp = np.sort(means @ vec)[::-1][:top_n]
    return math.log1p(speech_frames), float(np.mean(imp))


def check_utterance_qmfs(got, want):
    """got/want: sequences of (dur_q, imp_q) for the same utterances."""
    _close(got, want, "utterance QMFs", 1e-12, 1e-15)


def check_trial_qmfs(got, enroll_q, test_q):
    """got: (n, 4) trial QMF rows; enroll_q/test_q: (n, 2) per-side
    (dur_q, imp_q). Rows are [min dur, max dur, min imp, max imp]."""
    e, t = np.asarray(enroll_q), np.asarray(test_q)
    want = np.column_stack([
        np.minimum(e[:, 0], t[:, 0]), np.maximum(e[:, 0], t[:, 0]),
        np.minimum(e[:, 1], t[:, 1]), np.maximum(e[:, 1], t[:, 1]),
    ])
    _close(got, want, "trial QMFs", 1e-12, 1e-15)


def check_calibration_trials(enroll_ids, test_ids, labels, speaker_of,
                             duration_of, per_class):
    """Duration-balanced calibration trials: per_class trials per
    duration class, half of them targets, labels that match the speakers,
    no self pairs and no pair twice in either order."""

    def bucket(d):
        return None if d < 2.0 else ("short" if d < 6.0 else "long")

    counts = {}
    seen = set()
    for e, t, lab in zip(enroll_ids, test_ids, labels):
        _require(e != t, f"self pair {e}")
        pair = (min(e, t), max(e, t))
        _require(pair not in seen, f"duplicate pair {pair}")
        seen.add(pair)
        _require(int(lab) == int(speaker_of[e] == speaker_of[t]),
                 f"label {int(lab)} wrong for {e} {t}")
        a, b = bucket(duration_of[e]), bucket(duration_of[t])
        _require(a is not None and b is not None, f"{e} {t} below 2 s")
        cls = "short-long" if a != b else f"{a}-{a}"
        key = (cls, int(lab))
        counts[key] = counts.get(key, 0) + 1
    want = {(c, lab): per_class // 2
            for c in ("short-short", "short-long", "long-long")
            for lab in (0, 1)}
    _require(counts == want, f"class/label counts {counts} != {want}")


def logreg_gradient(weights, bias, X, y, l2):
    """Gradient of mean BCE + l2 * |w|^2 / 2 at (weights, bias)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    resid = expit(X @ weights + bias) - y
    return np.concatenate([X.T @ resid / len(y) + l2 * weights,
                           [resid.mean()]])


def check_logreg_optimal(model, X, y, l2, tol=LOGREG_GRAD_TOL):
    """The fitted model is a stationary point of the regularized loss."""
    g = np.abs(logreg_gradient(model.weights, model.bias, X, y, l2)).max()
    _require(model.converged and g < tol,
             f"gradient inf-norm {g:.3e} at the returned model "
             f"(converged={model.converged})")


def check_calibrated(got, weights, bias, X, rtol=1e-12):
    """got = X @ weights + bias."""
    want = np.asarray(X, dtype=np.float64) @ np.asarray(weights) + bias
    _close(got, want, "calibrated scores", rtol, 1e-12)


# ---------------------------------------------------------------------------
# detection metrics

def check_detection_metrics(score_set, claimed, p_target, rng,
                            per_side=1000):
    """claimed = {"eer_pct", "min_dcf", "act_dcf"} for the full score set.

    Actual DCF is recomputed with its oracle on the full list. The EER and
    MinDCF oracles are quadratic, so they run on a sub-list of per_side
    targets and per_side nontargets, against svkit's functions on the same
    sub-list; the claimed full-list values must equal svkit's functions on
    the full list.
    """
    labels = score_set.trials.labels
    tar = score_set.scores[labels == 1]
    non = score_set.scores[labels == 0]
    params = metrics.DcfParams(p_target)
    _close(claimed["act_dcf"],
           oracles.actual_dcf_oracle(tar.tolist(), non.tolist(), p_target),
           "actual DCF vs oracle", 1e-12, 1e-15)
    _close(claimed["eer_pct"], metrics.eer(score_set) * 100.0,
           "EER vs full-list recompute")
    _close(claimed["min_dcf"], metrics.min_dcf(score_set, params),
           "MinDCF vs full-list recompute")

    sub_t = tar[sample(tar.size, per_side, rng)]
    sub_n = non[sample(non.size, per_side, rng)]
    names = [str(i) for i in range(sub_t.size + sub_n.size)]
    sub = scoring.ScoreSet(
        scoring.TrialList(names, names,
                          np.r_[np.ones(sub_t.size), np.zeros(sub_n.size)]),
        np.concatenate([sub_t, sub_n]),
    )
    _close(metrics.eer(sub), oracles.eer_oracle(sub_t, sub_n),
           "EER vs oracle on a sub-list", 1e-12, 1e-15)
    _close(metrics.min_dcf(sub, params),
           oracles.min_dcf_oracle(sub_t, sub_n, p_target),
           "MinDCF vs oracle on a sub-list", 1e-12, 1e-15)


# ---------------------------------------------------------------------------
# clustering

def check_assignment(got_labels, vecs, centers, center_labels):
    """Each sampled utterance carries the AHC label of its nearest k-means
    center (squared Euclidean distance)."""
    d2 = ((vecs[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    want = np.asarray(center_labels)[np.argmin(d2, axis=1)]
    bad = np.flatnonzero(np.asarray(got_labels) != want)
    _require(bad.size == 0, f"{bad.size} sampled assignments differ from "
             f"nearest-center labels, first at sample {bad[:1].tolist()}")


def check_ari(claimed, labels_a, labels_b, rng, sample_size=300):
    """claimed equals svkit's ARI on the full partitions, and svkit's ARI
    equals the pair-counting oracle on a sample of the items."""
    _close(claimed, metrics.adjusted_rand_index(labels_a, labels_b),
           "ARI vs full-partition recompute")
    ids = sorted(labels_a)
    keep = [ids[i] for i in sample(len(ids), sample_size, rng)]
    sub_a = {u: labels_a[u] for u in keep}
    sub_b = {u: labels_b[u] for u in keep}
    _close(metrics.adjusted_rand_index(sub_a, sub_b),
           oracles.ari_oracle(sub_a, sub_b), "ARI vs oracle on a sample",
           1e-12, 1e-15)


def check_kmeans_file(read_back, model):
    """The k-means file round-trips centers at float32 and counts
    exactly."""
    _require(np.array_equal(read_back.centers,
                            model.centers.astype("<f4").astype(np.float64)),
             "k-means centers changed in the file round trip")
    _require(np.array_equal(read_back.counts, model.counts),
             "k-means counts changed in the file round trip")


# ---------------------------------------------------------------------------
# training math

def check_gradients(errors, tol=GRAD_TOL):
    """Every max relative gradient error is finite and below tol."""
    bad = {k: v for k, v in errors.items() if not (math.isfinite(v) and v < tol)}
    _require(not bad, f"gradient errors at or above {tol:g}: {bad}")
