"""Calibration trial generation, quality measures and logistic regression.

Calibration trials come in three duration classes (short-short, short-long,
long-long) with short = [2 s, 6 s) and long = [6 s, inf). The quality-aware
second stage uses the feature vector `QA_FEATURE_NAMES`,
    [fused score, min_dur_q, max_dur_q, min_imp_q, max_imp_q].
Calibrated outputs are on log-likelihood-ratio scale (no sigmoid).
"""

from __future__ import annotations

import csv
import json
import math
import operator
from dataclasses import dataclass, fields

import numpy as np

from .embeddings import (
    EmbeddingSet,
    UttMeta,
    _csv_rows,
    _keyed_rows,
    _metas,
    _reading,
)
from .errors import (
    ArityMismatch,
    InsufficientData,
    MissingMeta,
    SvkitError,
)
from .scoring import (
    Cohort,
    ScoreSet,
    TrialList,
    _cohort_stats,
    _cosine_matrix,
    _inner_product_matrix,
    _intern,
    _rows,
    _side_rows,
)

SHORT_MIN_S = 2.0
LONG_MIN_S = 6.0

TRIAL_CLASSES = ("short-short", "short-long", "long-long")


def duration_class(dur_a: float, dur_b: float) -> str | None:
    """Trial duration class, or None when a side is below the 2 s floor."""

    def bucket(d):
        if d < SHORT_MIN_S:
            return None
        return "short" if d < LONG_MIN_S else "long"

    a, b = bucket(dur_a), bucket(dur_b)
    if a is None or b is None:
        return None
    if a == b:
        return f"{a}-{a}"
    return "short-long"


def gen_calibration_trials(
    emb_set: EmbeddingSet, per_class: int, seed=0
) -> TrialList:
    """per_class trials for each duration class, half targets half
    nontargets, no duplicate pairs, deterministic per seed."""
    if per_class < 0 or per_class % 2:
        raise SvkitError("per_class must be a nonnegative even number")
    if per_class == 0:
        return TrialList([], [])

    ids = emb_set.ids
    metas = _metas(emb_set, ids, speaker=True)
    dur = np.array([m.duration_s for m in metas], dtype=np.float64)
    speaker = _intern([m.speaker for m in metas])[1]
    rank = _intern(ids)[1]  # lexicographic id rank
    buckets = {
        "short": np.flatnonzero((dur >= SHORT_MIN_S) & (dur < LONG_MIN_S)),
        "long": np.flatnonzero(dur >= LONG_MIN_S),
    }

    rng = np.random.default_rng(seed)
    enroll, test, labels = [], [], []
    # Every unordered pair is a candidate in exactly one (class, label)
    # pass: the class fixes which side is in which bucket, a within-bucket
    # pair is only taken in id order, and the label is fixed by the
    # speakers. So no pair can be drawn twice and no used-pair set is kept.
    for cls in TRIAL_CLASSES:
        a_bucket, b_bucket = cls.split("-")
        a, b = buckets[a_bucket][:, None], buckets[b_bucket][None, :]
        valid = a != b
        if a_bucket == b_bucket:
            valid &= rank[a] < rank[b]  # unordered within one bucket
        same = speaker[a] == speaker[b]
        for want_target in (True, False):
            need = per_class // 2
            # row-major candidate order, as a nested loop over a then b
            ai, bi = np.nonzero(valid & (same == want_target))
            if len(ai) < need:
                kind = "target" if want_target else "nontarget"
                raise InsufficientData(
                    cls, f"need {need} {kind} pairs, have {len(ai)}"
                )
            picked = np.sort(rng.choice(len(ai), size=need, replace=False))
            enroll += [ids[k] for k in a[ai[picked], 0].tolist()]
            test += [ids[k] for k in b[0, bi[picked]].tolist()]
            labels += [1 if want_target else 0] * need
    return TrialList(enroll, test, labels)


# ---------------------------------------------------------------------------
# quality measures

def duration_qmf(meta: UttMeta) -> float:
    """Speech-duration quality measure: log(1 + speech_frames)."""
    if meta is None:
        raise MissingMeta("<missing>")
    return float(np.log1p(meta.speech_frames))


@dataclass(frozen=True)
class QmfVector:
    min_dur_q: float
    max_dur_q: float
    min_imp_q: float
    max_imp_q: float

    def as_array(self):
        return np.array(
            [self.min_dur_q, self.max_dur_q, self.min_imp_q, self.max_imp_q]
        )


QA_FEATURE_NAMES = ("score",) + tuple(f.name for f in fields(QmfVector))
_QMF_FIELDS = operator.attrgetter(*QA_FEATURE_NAMES[1:])


@dataclass(frozen=True)
class QmfConfig:
    metric: str = "inner_product"
    top_n: int | None = 100


def _qmf_rows(emb_set: EmbeddingSet, ids, cohort: Cohort,
              config: QmfConfig):
    """(len(ids), 2) rows [dur_q, imp_q] of `ids` in one set: the duration
    QMF of each utterance's metadata and the mean of its top_n cohort
    scores under the configured metric (top_n=None: the whole cohort)."""
    dur = list(map(duration_qmf, _metas(emb_set, ids)))
    similarity = {"inner_product": _inner_product_matrix,
                  "cosine": _cosine_matrix}.get(config.metric)
    if similarity is None:
        raise SvkitError(f"unknown imposter metric '{config.metric}'")
    imp = _cohort_stats(emb_set, ids, cohort, config.top_n, similarity)[0]
    return np.column_stack([dur, imp])


def utterance_qmfs(emb_set: EmbeddingSet, cohort: Cohort,
                   config: QmfConfig = QmfConfig()):
    """Per-utterance (dur_q, imp_q) pairs, cached by id."""
    rows = _qmf_rows(emb_set, emb_set.ids, cohort, config)
    return dict(zip(emb_set.ids, map(tuple, rows.tolist())))


def _minmax_pairs(side_e, side_t):
    """(n, 4) [min, max] of dur_q, then of imp_q, over two (n, 2) sides."""
    lo, hi = np.minimum(side_e, side_t), np.maximum(side_e, side_t)
    return np.column_stack([lo[:, 0], hi[:, 0], lo[:, 1], hi[:, 1]])


def trial_qmfs(trials: TrialList, enroll: EmbeddingSet, test: EmbeddingSet,
               cohort: Cohort, config: QmfConfig = QmfConfig()):
    """Symmetric per-trial QMF vectors: (min, max) over the two sides for
    each metric. Each side's values come from its own set, once per
    unique utterance."""
    e, t = _side_rows(trials, enroll, test,
                      lambda s, ids: _qmf_rows(s, ids, cohort, config))
    return [QmfVector(*row) for row in _minmax_pairs(e, t).tolist()]


def trial_qmfs_from_cache(trials: TrialList, cache: dict):
    """(n, 4) trial QMF features, as `trial_qmfs` builds them, from an
    {utt_id: (dur_q, imp_q)} cache (`utterance_qmfs`, `read_qmf_cache`)."""
    index = {u: i for i, u in enumerate(cache)}
    values = np.array(list(cache.values()), dtype=np.float64).reshape(-1, 2)
    e, t = (values[_rows(index, ids, "no QMF cache entry for")]
            for ids in (trials.enroll_ids, trials.test_ids))
    return _minmax_pairs(e, t)


# ---------------------------------------------------------------------------
# logistic regression

@dataclass
class CalibrationModel:
    weights: np.ndarray
    bias: float
    feature_names: tuple = ()
    converged: bool = True

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if not (np.all(np.isfinite(self.weights))
                and np.isfinite(self.bias)):
            raise SvkitError("calibration model must be finite")

    @property
    def arity(self):
        return self.weights.size


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _bce(z, y):
    # mean log(1 + exp(-y'z)) with y' in {-1,+1}, stable form
    m = np.where(y == 1, -z, z)
    return float(np.mean(np.logaddexp(0.0, m)))


def fit_logreg(features, labels, l2=1e-6, max_iter=100,
               feature_names=()) -> CalibrationModel:
    """Damped-Newton logistic regression minimizing
    mean BCE + l2 * ||w||^2 / 2 (bias unregularized).

    Converged when the gradient infinity-norm drops below 1e-9; otherwise the
    best iterate is returned with converged=False.
    """
    X = np.asarray(features, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    y = np.asarray(labels, dtype=np.float64)
    if y.shape != (X.shape[0],):
        raise SvkitError("labels length mismatch")
    if not (np.any(y == 1) and np.any(y == 0)):
        raise SvkitError("need at least one trial of each label")
    if l2 < 0:
        raise SvkitError("l2 must be >= 0")

    n, f = X.shape
    w = np.zeros(f)
    b = 0.0

    def objective(w, b):
        return _bce(X @ w + b, y) + 0.5 * l2 * float(w @ w)

    steps = 0
    while True:
        z = X @ w + b
        p = _sigmoid(z)
        grad_w = X.T @ (p - y) / n + l2 * w
        grad_b = float(np.mean(p - y))
        converged = bool(max(np.abs(grad_w).max(), abs(grad_b)) < 1e-9)
        if converged or steps >= max_iter:
            break
        steps += 1
        r = p * (1.0 - p)
        Xa = np.hstack([X, np.ones((n, 1))])
        H = (Xa * r[:, None]).T @ Xa / n
        H[:f, :f] += l2 * np.eye(f)
        H += 1e-12 * np.eye(f + 1)
        step = np.linalg.solve(H, np.concatenate([grad_w, [grad_b]]))
        # backtracking keeps the loss monotone on separable data
        obj0 = objective(w, b)
        t = 1.0
        for _ in range(50):
            w_new = w - t * step[:f]
            b_new = b - t * step[f]
            if objective(w_new, b_new) <= obj0:
                break
            t *= 0.5
        w, b = w_new, b_new

    return CalibrationModel(w, float(b), tuple(feature_names), converged)


def build_features(scores: ScoreSet, qmfs=None):
    """Design matrix: [score] or [score, min_dur, max_dur, min_imp,
    max_imp]. `qmfs` is an (n, 4) array or a list of QmfVector."""
    if qmfs is None:
        return scores.scores[:, None]
    if len(qmfs) != len(scores):
        raise SvkitError("qmf list length mismatch")
    if not isinstance(qmfs, np.ndarray):
        qmfs = np.array(list(map(_QMF_FIELDS, qmfs)))
    return np.column_stack([scores.scores, qmfs])


def apply_calibration(model: CalibrationModel, scores: ScoreSet,
                      qmfs=None) -> ScoreSet:
    """bias + w . features per trial, on LLR scale."""
    X = build_features(scores, qmfs)
    if X.shape[1] != model.arity:
        raise ArityMismatch(
            f"model expects {model.arity} features, got {X.shape[1]}"
        )
    return scores.with_scores(X @ model.weights + model.bias)


# ---------------------------------------------------------------------------
# files

def write_model(model: CalibrationModel, path):
    payload = {
        "version": 1,
        "feature_names": list(model.feature_names),
        "weights": [float(v) for v in model.weights],
        "bias": float(model.bias),
        "converged": bool(model.converged),
    }
    with open(path, "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")


def read_model(path) -> CalibrationModel:
    try:
        with _reading(path) as f:
            payload = json.load(f)
    except ValueError as e:
        raise SvkitError(f"{path}: not a JSON model ({e})") from None
    if not isinstance(payload, dict):
        raise SvkitError(f"{path}: model must be a JSON object")
    if payload.get("version") != 1:
        raise SvkitError(f"{path}: unsupported model version")
    if "weights" not in payload or "bias" not in payload:
        raise SvkitError(f"{path}: model needs 'weights' and 'bias'")
    converged = payload.get("converged", True)  # absent in older files
    if not isinstance(converged, bool):
        raise SvkitError(f"{path}: 'converged' must be true or false")
    weights, bias = payload["weights"], payload["bias"]
    if not (isinstance(weights, list) and all(map(_is_number, weights))
            and _is_number(bias)):
        raise SvkitError(f"{path}: weights must be a flat list of numbers "
                         "and bias a number")
    names = payload.get("feature_names", [])
    if not (isinstance(names, list)
            and all(isinstance(n, str) for n in names)):
        raise SvkitError(f"{path}: 'feature_names' must be a list of names")
    if names and len(names) != len(weights):
        raise SvkitError(f"{path}: {len(names)} feature names for "
                         f"{len(weights)} weights")
    try:
        return CalibrationModel(weights, float(bias), tuple(names),
                                converged)
    except (OverflowError, SvkitError) as e:
        raise SvkitError(f"{path}: {e}") from None


def _is_number(value):
    """True for a JSON number; false also for a boolean or numeric string."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def write_qmf_cache(qmfs: dict, path):
    """CSV `utt_id,dur_q,imp_q`."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["utt_id", "dur_q", "imp_q"])
        for utt_id, (dur_q, imp_q) in qmfs.items():
            w.writerow([utt_id, repr(float(dur_q)), repr(float(imp_q))])


def _qmf_row(fields):
    q = (float(fields[0]), float(fields[1]))
    if not all(map(math.isfinite, q)):
        raise SvkitError("qmf values must be finite")
    return q


def read_qmf_cache(path) -> dict:
    rows = _csv_rows(path, lambda names: names == ["utt_id", "dur_q", "imp_q"],
                     ("dur_q", "imp_q"))
    return _keyed_rows(path, rows, _qmf_row)
