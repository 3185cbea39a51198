"""Loss functions, momentum mechanics, negative queue, CLR schedule and
crop-pair selection, with exact analytic gradients in double precision.

All losses are plain functions of their raw inputs (no internal
re-normalization), so central finite differences apply directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CropTooLong,
    DimMismatch,
    EmptyQueue,
    LengthMismatch,
    NonUnitInput,
    SvkitError,
    check_seed,
)

_UNIT_ATOL = 1e-3  # loose: finite-difference probes perturb off the sphere


def _logsumexp(a):
    """log(sum(exp(a))) over the last axis, shifted by the row maximum so
    no exponential overflows. Inputs are finite."""
    m = np.max(a, axis=-1, keepdims=True)
    e = a - m
    np.exp(e, out=e)  # in place: one temporary the size of `a`, not two
    return (m + np.log(np.sum(e, axis=-1, keepdims=True)))[..., 0]


def _check_unit(arr, name):
    # row dot products: no squared copy of a large probe stack
    norms = np.sqrt(np.einsum("...i,...i->...", arr, arr))
    if not np.all(np.abs(norms - 1.0) <= _UNIT_ATOL):  # NaN fails too
        raise NonUnitInput(f"{name} rows must be unit-norm")


@dataclass(frozen=True)
class AamConfig:
    margin: float = 0.2
    scale: float = 30.0

    def __post_init__(self):
        if not 0.0 <= self.margin < math.pi / 2:
            raise SvkitError(f"margin={self.margin} must be in [0, pi/2)")
        if not 0.0 < self.scale < math.inf:
            raise SvkitError(f"scale={self.scale} must be finite and > 0")


def _target_angle(cos_t):
    """Cosine and sine of the target angle, the cosine clamped off +-1 so
    that the margin's derivative stays finite."""
    c_t = np.clip(cos_t, -1.0 + 1e-12, 1.0 - 1e-12)
    return c_t, np.sqrt(1.0 - c_t * c_t)


def _aam_losses(U, W, target, config: AamConfig):
    """AAM losses over leading batch axes: U is (..., d), W (..., C, K, d)
    and target an integer or an integer array, and the leading axes of the
    three broadcast together, so a stack of probes of one argument can
    share the other argument through an axis of length 1.

    The class cosine is the max over the K subcenter cosines. Returns
    (losses (...), cosines (..., C, K), logits (..., C), logsumexp (...));
    the analytic gradient reuses the last three. Every row of both stacks is
    checked for unit norm.
    """
    _check_unit(U, "embedding")
    _check_unit(W, "class_weights")
    # einsum keeps per-row summation order independent of K and of the
    # batch shape, so duplicated subcenters reproduce the K=1 loss
    # bit-for-bit and a stacked call reproduces each single call
    cos_all = np.einsum("...ckd,...d->...ck", W, U)
    cos = cos_all.max(axis=-1)
    s, m = config.scale, config.margin
    t = np.broadcast_to(np.expand_dims(target, -1), cos.shape[:-1] + (1,))
    c_t, sin_t = _target_angle(np.take_along_axis(cos, t, -1))
    target_logit = s * (c_t * math.cos(m) - sin_t * math.sin(m))
    logits = np.where(np.arange(cos.shape[-1]) == t, target_logit, s * cos)
    lse = _logsumexp(logits)
    return lse - target_logit[..., 0], cos_all, logits, lse


def _aam_grads(U, W, target, config: AamConfig):
    """(losses (B,), grad_U (B, d), grad_W (B, C, K, d)) of B AAM instances:
    U is (B, d), W (B, C, K, d) and target (B,). `aam_softmax_loss` is its
    B = 1 case."""
    losses, cos_all, logits, lse = _aam_losses(U, W, target, config)
    s, m = config.scale, config.margin
    t = np.expand_dims(target, -1)
    hit = np.arange(logits.shape[-1]) == t           # (B, C) target mask
    best = np.argmax(cos_all, axis=-1)[..., None, None]  # first on ties
    c_t, sin_t = _target_angle(np.take_along_axis(cos_all.max(axis=-1), t,
                                                  -1))
    # softmax minus the one-hot target, times d logit_j / d cos_j
    dcos = (np.exp(logits - lse[:, None]) - hit) * np.where(
        hit, s * (math.cos(m) + c_t * math.sin(m) / sin_t), s)
    grad_U = (dcos[..., None]
              * np.take_along_axis(W, best, axis=2)[:, :, 0]).sum(axis=1)
    grad_W = np.zeros_like(W)
    np.put_along_axis(grad_W, best,
                      (dcos[..., None] * U[:, None, :])[:, :, None], axis=2)
    return losses, grad_U, grad_W


def aam_softmax_loss(embedding, class_weights, target_class,
                     config: AamConfig):
    """Additive-angular-margin softmax with subcenters.

    class_weights is (C, K, d); the class cosine is the max over its K
    subcenter cosines (first index wins ties). The target logit is
    scale * cos(theta_target + margin), others scale * cos_j; loss is the
    cross-entropy of the softmax at the target class. Returns
    (loss, grad_embedding, grad_weights) with exact analytic gradients.
    """
    u = np.asarray(embedding, dtype=np.float64)
    W = np.asarray(class_weights, dtype=np.float64)
    if W.ndim != 3 or 0 in W.shape:
        raise SvkitError(f"class_weights of shape {W.shape} must be "
                         "(C, K, d) with C, K, d >= 1")
    C, K, d = W.shape
    if u.shape != (d,):
        raise DimMismatch("embedding dimension mismatch")
    if not 0 <= target_class < C:
        raise SvkitError("target_class out of range")
    losses, grad_u, grad_W = _aam_grads(u[None], W[None], [target_class],
                                        config)
    return float(losses[0]), grad_u[0], grad_W[0]


@dataclass
class NegativeQueue:
    """FIFO store of momentum-encoder embeddings, oldest evicted first."""

    capacity: int
    embeddings: np.ndarray  # (size, d), size <= capacity

    def __post_init__(self):
        if not (hasattr(self.capacity, "__index__") and self.capacity >= 1):
            raise SvkitError(
                f"capacity={self.capacity} must be an integer >= 1")
        q = self.embeddings = np.asarray(self.embeddings, dtype=np.float64)
        if not (q.ndim == 2 and len(q) <= self.capacity
                and np.isfinite(q).all()):
            raise SvkitError(f"queue of shape {q.shape} must be a finite "
                             f"(size, d) array with size <= {self.capacity}")

    @classmethod
    def empty(cls, capacity, dim):
        return cls(capacity, np.empty((0, dim)))

    def __len__(self):
        return self.embeddings.shape[0]

    @property
    def dim(self):
        return self.embeddings.shape[1]


def queue_push(queue: NegativeQueue, batch) -> NegativeQueue:
    """Append a batch in order, then evict from the front down to
    capacity."""
    batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    if batch.shape[1] != queue.dim:
        raise DimMismatch(
            f"batch dim {batch.shape[1]} vs queue dim {queue.dim}"
        )
    merged = np.vstack([queue.embeddings, batch])
    if merged.shape[0] > queue.capacity:
        merged = merged[-queue.capacity:]
    return NegativeQueue(queue.capacity, merged)


@dataclass
class ContrastiveBatch:
    queries: np.ndarray    # (n, d) embedding-extractor outputs
    positives: np.ndarray  # (n, d) momentum-encoder outputs
    scale: float = 10.0

    def __post_init__(self):
        self.queries = np.atleast_2d(
            np.asarray(self.queries, dtype=np.float64))
        self.positives = np.atleast_2d(
            np.asarray(self.positives, dtype=np.float64))
        if self.queries.shape != self.positives.shape:
            raise DimMismatch("queries/positives shape mismatch")
        if self.queries.shape[0] < 1:
            raise SvkitError("batch must be nonempty")
        if not 0.0 <= self.scale < math.inf:
            raise SvkitError(f"scale={self.scale} must be finite and >= 0")
        _check_unit(self.queries, "queries")
        _check_unit(self.positives, "positives")


def _moco_losses(X, P, Q, scale):
    """Contrastive losses over leading batch axes: X is (..., n, d)
    queries, P the (..., n, d) positives and Q the (N, d) or (..., N, d)
    queue, the leading axes broadcasting together. Returns (losses (...),
    logits (..., n, 1 + N), logsumexp (..., n)); the analytic gradient
    reuses the last two. Every query, positive and queue row is checked for
    unit norm.
    """
    _check_unit(X, "queries")
    _check_unit(P, "positives")
    _check_unit(Q, "queue")
    pos_logit = scale * np.einsum("...ij,...ij->...i", X, P)   # (..., n)
    all_logits = np.concatenate(   # (..., n, 1 + N); the negatives freed
        [pos_logit[..., None], scale * X @ np.swapaxes(Q, -1, -2)], axis=-1)
    lse = _logsumexp(all_logits)
    return np.mean(lse - pos_logit, axis=-1), all_logits, lse


def _moco_grads(X, P, Q, scale):
    """(losses (B,), grad (B, n, d)) of B contrastive instances, with
    respect to the queries: X and P are (B, n, d), Q is (N, d) or
    (B, N, d). `moco_loss` is its B = 1 case."""
    losses, all_logits, lse = _moco_losses(X, P, Q, scale)
    probs = np.exp(all_logits - lse[..., None])    # softmax rows
    # dL/dx_i = (s/n) * (sum_k pi_k v_k - p_i)
    grad = (probs[..., :1] * P + probs[..., 1:] @ Q - P) * (
        scale / X.shape[-2])
    return losses, grad


def moco_loss(batch: ContrastiveBatch, queue: NegativeQueue):
    """Contrastive loss against the queue of negatives:
        -(1/n) sum_i log softmax_i(positive | positive + queue)
    with logits scale * (x_i . v). Gradient is with respect to the queries
    only; positives and queue entries come from the momentum encoder.
    """
    if len(queue) == 0:
        raise EmptyQueue("negative queue is empty")
    X, P = batch.queries, batch.positives
    if queue.dim != X.shape[1]:
        raise DimMismatch("queue dimension mismatch")
    losses, grad = _moco_grads(X[None], P[None], queue.embeddings,
                               batch.scale)
    return float(losses[0]), grad[0]


def momentum_update(theta_m, theta_e, momentum):
    """theta_m <- momentum * theta_m + (1 - momentum) * theta_e."""
    theta_m = np.asarray(theta_m, dtype=np.float64)
    theta_e = np.asarray(theta_e, dtype=np.float64)
    if theta_m.shape != theta_e.shape:
        raise LengthMismatch("parameter vectors differ in length")
    if not 0.0 <= momentum <= 1.0:
        raise SvkitError("momentum must be in [0, 1]")
    return momentum * theta_m + (1.0 - momentum) * theta_e


def clr_triangular2(t, cycle_len, lr_min=1e-8, lr_max=1e-3):
    """Triangular cyclical learning rate whose peak halves every cycle:
    within cycle c, the rate rises linearly from lr_min to
    lr_min + (lr_max - lr_min) / 2^c at the cycle midpoint and back."""
    if t < 0:
        raise SvkitError(f"iteration index t={t} must be >= 0")
    if cycle_len < 2:
        raise SvkitError(f"cycle_len={cycle_len} must be >= 2")
    if not 0.0 <= lr_min <= lr_max < math.inf:
        raise SvkitError(f"rates lr_min={lr_min}, lr_max={lr_max} must be "
                         "finite, 0 <= lr_min <= lr_max")
    cycle = t // cycle_len
    pos = t - cycle * cycle_len
    peak = lr_min + (lr_max - lr_min) / (2.0 ** cycle)
    frac = 1.0 - abs(2.0 * pos / cycle_len - 1.0)
    return float(lr_min + (peak - lr_min) * frac)


def crop_overlap(start_a, start_b, crop_len):
    return max(0, crop_len - abs(start_a - start_b))


def min_overlap_crop_pair(utt_len_frames, crop_len, num_candidates=5,
                          seed=0):
    """Sample candidate crop starts uniformly and return the pair with the
    least overlap (ties: lexicographically smallest sorted pair)."""
    if crop_len < 1:
        raise SvkitError("crop_len must be >= 1")
    if crop_len > utt_len_frames:
        raise CropTooLong(
            f"crop of {crop_len} frames exceeds utterance of "
            f"{utt_len_frames}"
        )
    _check_candidates(num_candidates)
    rng = np.random.default_rng(check_seed(seed))
    starts = rng.integers(0, utt_len_frames - crop_len + 1,
                          size=num_candidates)
    return best_crop_pair(starts, crop_len)


def _check_candidates(count):
    if count < 2:
        raise SvkitError(f"need at least two candidate crops, got {count}")


def best_crop_pair(starts, crop_len):
    """Least-overlap unordered pair among explicit candidate starts."""
    starts = [int(s) for s in starts]
    _check_candidates(len(starts))
    best = None
    for i in range(len(starts)):
        for j in range(i + 1, len(starts)):
            pair = tuple(sorted((starts[i], starts[j])))
            key = (crop_overlap(pair[0], pair[1], crop_len), pair)
            if best is None or key < best:
                best = key
    return best[1]
