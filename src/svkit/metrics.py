"""Detection metrics (EER, MinDCF, actual DCF) and the adjusted Rand index.

Decision convention: accept when score >= threshold. Operating points are
taken at every distinct score plus an accept-all sentinel; the EER crossing
is linearly interpolated in (P_miss, P_fa).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embeddings import _intern
from .errors import IdMismatch, OneClassOnly, SvkitError


@dataclass(frozen=True)
class DcfParams:
    """Effective target prior p_target in (0, 1) of a normalized DCF. The
    costs enter only through P' = C_miss·P / (C_miss·P + C_fa·(1 − P))
    (Brümmer & du Preez, CSL 2006): NIST SRE 2008 is P' ≈ 0.0917."""

    p_target: float

    def __post_init__(self):
        if not 0.0 < self.p_target < 1.0:
            raise SvkitError(f"p_target={self.p_target} must be in (0, 1)")


def _split_scores(score_set):
    labels = score_set.trials.labels
    if np.any(labels < 0):
        raise SvkitError("all trials need target/nontarget labels")
    tar = score_set.scores[labels == 1]
    non = score_set.scores[labels == 0]
    if tar.size == 0 or non.size == 0:
        raise OneClassOnly("need at least one target and one nontarget trial")
    return tar, non


def _operating_points(score_set):
    """P_miss, P_fa at thresholds: one below min(score), then every distinct
    score, then one above max(score). Miss = target < thr, FA = non >= thr."""
    tar, non = _split_scores(score_set)
    tar.sort()
    non.sort()
    distinct = np.unique(np.concatenate([tar, non]))
    thresholds = np.concatenate(
        [[distinct[0] - 1.0], distinct, [distinct[-1] + 1.0]]
    )
    p_miss = np.searchsorted(tar, thresholds, side="left") / tar.size
    p_fa = (non.size - np.searchsorted(non, thresholds, side="left")) / non.size
    return p_miss, p_fa


def eer(score_set) -> float:
    """Equal error rate in [0, 1]."""
    return _eer(*_operating_points(score_set))


def _eer(p_miss, p_fa):
    """`eer` from the operating points `_operating_points` returns."""
    diff = p_miss - p_fa
    # diff runs from -1 (accept all) to +1 (reject all)
    i = int(np.argmax(diff >= 0.0))
    if diff[i] == 0.0:
        return float(p_miss[i])
    m1, f1 = p_miss[i - 1], p_fa[i - 1]
    m2, f2 = p_miss[i], p_fa[i]
    alpha = (f1 - m1) / ((f1 - m1) - (f2 - m2))
    return float(m1 + alpha * (m2 - m1))


def _dcf(p_miss, p_fa, params):
    """Normalized detection cost p·P_miss + (1 − p)·P_fa over the cost
    min(p, 1 − p) of the better trivial system, p the effective prior."""
    p = params.p_target
    return (p * p_miss + (1.0 - p) * p_fa) / min(p, 1.0 - p)


def min_dcf(score_set, params: DcfParams) -> float:
    """Minimum normalized detection cost over all thresholds."""
    return _min_dcf(*_operating_points(score_set), params)


def _min_dcf(p_miss, p_fa, params):
    """`min_dcf` from the operating points `_operating_points` returns."""
    return float(_dcf(p_miss, p_fa, params).min())


def bayes_threshold(params: DcfParams) -> float:
    return math.log((1.0 - params.p_target) / params.p_target)


def actual_dcf(score_set, params: DcfParams) -> float:
    """Normalized detection cost at the fixed Bayes threshold; the scores
    must be on log-likelihood-ratio scale."""
    tar, non = _split_scores(score_set)
    thr = bayes_threshold(params)
    return float(_dcf(np.mean(tar < thr), np.mean(non >= thr), params))


def det_points(score_set):
    """(P_fa, P_miss) of a DET curve, as two float64 arrays."""
    p_miss, p_fa = _operating_points(score_set)
    return p_fa, p_miss


def _contingency(a, b):
    """The contingency table of two aligned label lists, as its nonzero
    cells: (labels of a, labels of b, each cell's a-code and b-code into
    them, each cell's count). Cells are in the order of their (a, b)
    codes (`_intern`), which is the order of their labels when the labels
    compare; their keys are int64, as a product of int32 codes overflows."""
    a_labels, a_codes = _intern(a)
    b_labels, b_codes = _intern(b)
    keys, cells = np.unique(a_codes.astype(np.int64) * len(b_labels)
                            + b_codes, return_counts=True)
    cell_a, cell_b = np.divmod(keys, len(b_labels))
    return a_labels, b_labels, cell_a, cell_b, cells


def adjusted_rand_index(labels_a: dict, labels_b: dict) -> float:
    """Chance-corrected partition agreement from the pair-counting
    contingency table. Inputs map item id -> cluster label."""
    if labels_a.keys() != labels_b.keys():
        raise IdMismatch("partitions cover different id sets")
    n = len(labels_a)
    if n == 0:
        raise SvkitError("empty partitions")
    _, _, cell_a, cell_b, cells = _contingency(
        list(labels_a.values()), list(map(labels_b.__getitem__, labels_a)))

    def comb2(x):
        # x (x - 1) is exact in int64 for every count x <= n < 3e9
        return int((x * (x - 1) // 2).sum())

    sum_ij = comb2(cells)
    sum_a = comb2(np.bincount(cell_a, weights=cells).astype(np.int64))
    sum_b = comb2(np.bincount(cell_b, weights=cells).astype(np.int64))
    total = n * (n - 1) // 2
    expected = sum_a * sum_b / total if total else 0.0
    max_index = 0.5 * (sum_a + sum_b)
    if max_index == expected:
        return 1.0
    return float((sum_ij - expected) / (max_index - expected))
