"""Calibration trial generation, quality measures and logistic regression.

Calibration trials come in three duration classes (short-short, short-long,
long-long) with short = [2 s, 6 s) and long = [6 s, inf). The quality-aware
second stage uses the feature vector `QA_FEATURE_NAMES`,
    [fused score, min_dur_q, max_dur_q, min_imp_q, max_imp_q].
Calibrated outputs are on log-likelihood-ratio scale (no sigmoid).
"""

from __future__ import annotations

import csv
import decimal
import json
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from .embeddings import (
    _PAIR_BLOCK,
    EmbeddingSet,
    UttMeta,
    _csv_rows,
    _keyed_rows,
    _reading,
)
from .errors import (
    ArityMismatch,
    InsufficientData,
    MissingMeta,
    SvkitError,
    check_seed,
)
from .scoring import (
    ScoreSet,
    TrialList,
    _cohort_stats,
    _intern,
    _side_rows,
    _trial_rows,
    _used,
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
    nontargets, no duplicate pairs, deterministic per seed.

    The candidates of a (class, label) are its valid (row, column) pairs
    of the two buckets in row-major order, as a nested loop over them
    would list them, and per_class / 2 of their ranks are drawn without
    replacement. No n x n mask is built: a first pass counts each row's
    candidates a block of rows at a time, and a drawn rank is mapped to
    its row through the cumulative counts and to its column through the
    candidate lists of the rows drawn from, again a block at a time. So
    memory is O(_PAIR_BLOCK + n) whatever the number of utterances, and
    the trials equal those of drawing from the full candidate list."""
    if per_class < 0 or per_class % 2:
        raise SvkitError(
            f"per_class={per_class} must be a nonnegative even number")
    rng = np.random.default_rng(check_seed(seed))
    if per_class == 0:
        return TrialList([], [])

    ids = emb_set.ids
    meta = emb_set.meta
    rows = meta.rows(ids)
    speaker = meta.speakers_at(rows, ids)[1]
    dur = meta.duration_s[rows]
    table, rank = _intern(ids)  # each row's lexicographic id rank
    buckets = {
        "short": np.flatnonzero((dur >= SHORT_MIN_S) & (dur < LONG_MIN_S)),
        "long": np.flatnonzero(dur >= LONG_MIN_S),
    }

    need = per_class // 2
    enroll, test, labels = [], [], []  # each side's set rows, the labels
    # Every unordered pair is a candidate in exactly one (class, label)
    # pass: the class fixes which side is in which bucket, a within-bucket
    # pair is only taken in id order, and the label is fixed by the
    # speakers. So no pair can be drawn twice and no used-pair set is kept.
    for cls in TRIAL_CLASSES:
        a_bucket, b_bucket = cls.split("-")
        a, b = buckets[a_bucket], buckets[b_bucket]
        spk_b, rank_b = speaker[b], rank[b]
        step = max(1, _PAIR_BLOCK // max(len(b), 1))

        def candidates(rows, target):
            """Mask of the candidate columns of bucket rows a[rows]."""
            same = (np.equal if target else np.not_equal)(
                speaker[a[rows]][:, None], spk_b)
            if a_bucket == b_bucket:  # unordered within one bucket
                same &= rank[a[rows]][:, None] < rank_b
            return same

        for target in (True, False):
            count = np.empty(len(a), dtype=np.int64)
            for lo in range(0, len(a), step):
                count[lo:lo + step] = np.count_nonzero(
                    candidates(slice(lo, lo + step), target), axis=1)
            ends = np.cumsum(count)
            total = int(count.sum())
            if total < need:
                kind = "target" if target else "nontarget"
                raise InsufficientData(
                    cls, f"need {need} {kind} pairs, have {total}")
            picked = np.sort(rng.choice(total, size=need, replace=False))
            # rank -> (row, offset among the row's candidates) -> column,
            # read off the candidate lists of the distinct rows drawn from
            rows = np.searchsorted(ends, picked, side="right")
            offset = picked - (ends - count)[rows]
            cols = np.empty(need, dtype=np.intp)
            drawn, inv = np.unique(rows, return_inverse=True)
            for lo in range(0, len(drawn), step):
                block = drawn[lo:lo + step]
                at = (inv >= lo) & (inv < lo + step)
                # the block rows' candidates, row after row
                flat = np.flatnonzero(candidates(block, target))
                start = np.cumsum(count[block]) - count[block]
                cols[at] = flat[start[inv[at] - lo] + offset[at]] % len(b)
            enroll.append(a[rows])
            test.append(b[cols])
            labels += [1 if target else 0] * need
    # the trials' table: the ranks they use, renumbered in order
    enroll, test = rank[np.concatenate(enroll)], rank[np.concatenate(test)]
    used, codes = _used(table, np.concatenate([enroll, test]))
    return TrialList._coded(used, codes[:len(enroll)], codes[len(enroll):],
                            labels)


# ---------------------------------------------------------------------------
# quality measures

def duration_qmf(meta: UttMeta) -> float:
    """Speech-duration quality measure: log(1 + speech_frames), correctly
    rounded."""
    if meta is None:
        raise MissingMeta("<missing>")
    return float(_log1p_frames(np.array([meta.speech_frames]))[0])


def _log1p_frames(frames):
    """log(1 + frames) of an int64 array of counts >= 0, each correctly
    rounded. numpy's float64 log1p is not: its AVX-512 kernel and the libm
    one it uses without AVX-512 round some counts to different neighbours,
    so the duration QMFs would depend on the CPU. The log is taken in long
    double (glibc's x86 log1pl errs by under one unit in the last of its
    64 bits) and rounded to the nearest double. That is the right double
    unless moving the long double by 4 to 8 of its units, 2**-61 of it,
    either way changes the rounding; those counts (under 1 in 128), and
    all counts where long double has no more bits than double, are taken
    with 40-digit `decimal` instead."""
    ext = np.log1p(frames.astype(np.longdouble))
    tol = ext * 2.0**-61
    near = np.flatnonzero(((ext - tol).astype(np.float64)
                           != (ext + tol).astype(np.float64)) | (not _EXTENDED))
    out = ext.astype(np.float64)
    if near.size:
        counts = frames[near].tolist()
        ln = {c: float(_LN_DIGITS.ln(c + 1)) for c in set(counts)}
        out[near] = [ln[c] for c in counts]
    return out


_LN_DIGITS = decimal.Context(prec=40)
# long double with at least 11 bits more than double (x86 extended, quad)
_EXTENDED = np.finfo(np.longdouble).nmant >= 63


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


def _qmf_rows(emb_set, ids, cohort: EmbeddingSet, metric, top_n):
    """(len(ids), 2) rows [dur_q, imp_q] of `ids` in one set: the duration
    QMF of each utterance's metadata (`duration_qmf`) and the mean of its
    top_n cohort scores under the imposter `metric` (top_n=None: the whole
    cohort)."""
    dur = _log1p_frames(emb_set.meta.speech_frames[emb_set.meta.rows(ids)])
    imp = _cohort_stats(emb_set, ids, cohort, top_n, metric)[0]
    return np.column_stack([dur, imp])


def utterance_qmfs(emb_set: EmbeddingSet, cohort: EmbeddingSet,
                   metric: str = "inner_product", top_n: int | None = 100):
    """Per-utterance (dur_q, imp_q) pairs, cached by id."""
    rows = _qmf_rows(emb_set, emb_set.ids, cohort, metric, top_n)
    return dict(zip(emb_set.ids, map(tuple, rows.tolist())))


def _minmax_pairs(side_e, side_t):
    """(n, 4) [min, max] of dur_q, then of imp_q, over two (n, 2) sides,
    written in place: no (n, 2) temporary."""
    out = np.empty((len(side_e), 4))
    np.minimum(side_e, side_t, out=out[:, 0::2])
    np.maximum(side_e, side_t, out=out[:, 1::2])
    return out


class _TrialQmfs(Sequence):
    """Read-only sequence of per-trial QMFs over one (n, 4) array,
    `values`, whose write flag is cleared. An int index builds that
    trial's `QmfVector`, a slice gives a view of those rows. It equals
    another view of equal values and a list of the same QmfVectors.

    It serves only callers that still take QmfVectors one by one; the
    simpler end state is `trial_qmfs` returning `values` itself, and then
    this view and QmfVector go."""

    __slots__ = ("values",)

    def __init__(self, values):
        values.setflags(write=False)
        self.values = values

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _TrialQmfs(self.values[i])
        return QmfVector(*self.values[operator.index(i)].tolist())

    def __eq__(self, other):
        if isinstance(other, _TrialQmfs):
            return np.array_equal(self.values, other.values)
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented


def trial_qmfs(trials: TrialList, enroll: EmbeddingSet, test: EmbeddingSet,
               cohort: EmbeddingSet, metric: str = "inner_product",
               top_n: int | None = 100):
    """Symmetric per-trial QMFs, (min, max) over the two sides for each
    measure, as a `_TrialQmfs` view over one read-only (n, 4) array in
    `QA_FEATURE_NAMES[1:]` order; no per-trial object is built unless
    the view is indexed. Each side's values come from its own set, once
    per unique utterance. Under the inner product, a side whose last
    cohort pass was `snorm`'s, on the same trials, cohort object and
    top_n, takes the imposter means that pass kept instead of making a
    second one; the values are bit-identical (`scoring._cohort_stats`)."""
    e, t = _side_rows(trials, enroll, test,
                      lambda s, ids: _qmf_rows(s, ids, cohort, metric, top_n))
    return _TrialQmfs(_minmax_pairs(e, t))


def trial_qmfs_from_cache(trials: TrialList, cache: dict):
    """(n, 4) trial QMF features, as `trial_qmfs` builds them, from an
    {utt_id: (dur_q, imp_q)} cache (`utterance_qmfs`, `read_qmf_cache`)."""
    index = {u: i for i, u in enumerate(cache)}
    values = np.array(list(cache.values()), dtype=np.float64).reshape(-1, 2)
    e, t = (values[_trial_rows(index, trials, codes,
                               "no QMF cache entry for")]
            for codes in (trials._enroll, trials._test))
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
    bad = np.flatnonzero((y != 0) & (y != 1))
    if bad.size:
        raise SvkitError(
            f"label {y[bad[0]]:.17g} at row {bad[0]} must be 0 or 1")
    if not (np.any(y == 1) and np.any(y == 0)):
        raise SvkitError("need at least one trial of each label")
    if not 0 <= l2 < math.inf:
        raise SvkitError(f"l2={l2} must be finite and >= 0")
    if max_iter < 0:
        raise SvkitError(f"max_iter={max_iter} must be >= 0")

    n, f = X.shape
    w = np.zeros(f)
    b = 0.0
    Xa = np.hstack([X, np.ones((n, 1))])

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
    """Design matrix: [score] (qmfs=None) or [score, min_dur, max_dur,
    min_imp, max_imp]. `qmfs` is what `trial_qmfs` returns (its `values`
    are used as they are), an (n, 4) array such as `trial_qmfs_from_cache`
    returns, or a list of QmfVector."""
    if qmfs is None:
        return scores.scores[:, None]
    if len(qmfs) != len(scores):
        raise SvkitError("qmf list length mismatch")
    if isinstance(qmfs, _TrialQmfs):
        qmfs = qmfs.values
    elif not isinstance(qmfs, np.ndarray):
        # (n, 4) also for n = 0, as `trial_qmfs_from_cache` shapes it
        qmfs = np.array(list(map(_QMF_FIELDS, qmfs)), dtype=np.float64)
        qmfs = qmfs.reshape(len(qmfs), len(QA_FEATURE_NAMES) - 1)
    return np.column_stack([scores.scores, qmfs])


def apply_calibration(model: CalibrationModel, scores: ScoreSet,
                      qmfs=None) -> ScoreSet:
    """bias + w . features per trial, on LLR scale; `qmfs` as
    `build_features` takes them."""
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
    with open(path, "w", encoding="utf-8") as f:
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
    with open(path, "w", encoding="utf-8", newline="") as f:
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
    lines, ids, *fields = _csv_rows(
        path, lambda names: names == ["utt_id", "dur_q", "imp_q"],
        ("dur_q", "imp_q"))
    return _keyed_rows(path, zip(lines, ids, zip(*fields)), _qmf_row)
