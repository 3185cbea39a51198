"""Central finite-difference checks for the loss gradients (loss-check
CLI backend)."""

from __future__ import annotations

import numpy as np

from .errors import SvkitError, check_seed
from .trainmath import (
    AamConfig,
    ContrastiveBatch,
    NegativeQueue,
    _aam_losses,
    _moco_losses,
    aam_softmax_loss,
    moco_loss,
)


def central_diff(fn, x, h=1e-6):
    """Central finite-difference gradient at x, all perturbations stacked.

    fn maps a (B, *x.shape) stack of arguments to B losses. Row i of the
    stacks is x + h e_i and x - h e_i, whose perturbed entry is x_i + h
    (x_i - h) exactly and every other entry x_j; fn is called once on each
    stack, and entry i of the gradient is (f(x + h e_i) - f(x - h e_i)) / 2h.
    The stacks hold 2 x.size**2 values.
    """
    x = np.asarray(x, dtype=np.float64)
    step = h * np.eye(x.size)
    stack = (x.size,) + x.shape
    fp = fn((x.ravel() + step).reshape(stack))
    fm = fn((x.ravel() - step).reshape(stack))
    return ((fp - fm) / (2.0 * h)).reshape(x.shape)


def _rel_err(analytic, numeric):
    denom = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-8)
    return float(np.abs(analytic - numeric).max() / denom)


def _unit_rows(rng, shape):
    v = rng.standard_normal(shape)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def check_aam(num_subcenters, instances=100, dim=8, num_classes=5, seed=0):
    """Max relative gradient error of the AAM loss over random instances."""
    if instances < 1:  # zero instances would report an error of 0
        raise SvkitError(f"instances={instances} must be >= 1")
    rng = np.random.default_rng(check_seed(seed))
    cfg = AamConfig(margin=0.2, scale=5.0)
    worst = 0.0
    for _ in range(instances):
        u = _unit_rows(rng, (dim,))
        W = _unit_rows(rng, (num_classes, num_subcenters, dim))
        t = int(rng.integers(num_classes))
        _, grad_u, grad_W = aam_softmax_loss(u, W, t, cfg)
        num_u = central_diff(
            lambda U: _aam_losses(U, W[None], t, cfg)[0], u)
        num_W = central_diff(
            lambda Ws: _aam_losses(u[None], Ws, t, cfg)[0], W)
        worst = max(worst, _rel_err(grad_u, num_u), _rel_err(grad_W, num_W))
    return worst


def check_moco(instances=100, dim=8, batch=4, queue_size=16, seed=0):
    """Max relative gradient error of the contrastive loss."""
    if instances < 1:  # zero instances would report an error of 0
        raise SvkitError(f"instances={instances} must be >= 1")
    rng = np.random.default_rng(check_seed(seed))
    worst = 0.0
    for _ in range(instances):
        X = _unit_rows(rng, (batch, dim))
        P = _unit_rows(rng, (batch, dim))
        Q = NegativeQueue(queue_size, _unit_rows(rng, (queue_size, dim)))
        cb = ContrastiveBatch(X, P, scale=10.0)
        _, grad = moco_loss(cb, Q)
        num = central_diff(
            lambda Xs: _moco_losses(Xs, P, Q.embeddings, cb.scale)[0], X)
        worst = max(worst, _rel_err(grad, num))
    return worst


def run_suite(instances=100, seed=0):
    """Max relative error per loss, as a name -> error dict."""
    return {
        "aam_softmax_k1": check_aam(1, instances, seed=seed),
        "aam_softmax_k2": check_aam(2, instances, seed=seed + 1),
        "moco": check_moco(instances, seed=seed + 2),
    }
