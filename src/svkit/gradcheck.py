"""Central finite-difference checks for the loss gradients (loss-check
CLI backend)."""

from __future__ import annotations

import numpy as np

from .errors import SvkitError, check_seed
from .trainmath import (
    AamConfig,
    _aam_grads,
    _aam_losses,
    _moco_grads,
    _moco_losses,
)

# perturbed values per loss call: bounds the memory of the probe stacks
_PROBE_BLOCK = 2 ** 14


def central_diff(fn, x, h=1e-6, batched=False):
    """Central finite-difference gradient at x, all perturbations stacked.

    fn maps an (x.size, *x.shape) stack of arguments to x.size losses. Row
    i of the stacks is x + h e_i and x - h e_i, whose perturbed entry is
    x_i + h (x_i - h) exactly and every other entry x_j; fn is called once
    on each stack, and entry i of the gradient is
    (f(x + h e_i) - f(x - h e_i)) / 2h.

    With `batched`, axis 0 of x indexes independent instances, each
    differentiated over its other axes. The instances go in blocks whose
    stacks hold at most `_PROBE_BLOCK` values (at least one instance), and
    fn(stack, block) maps the (b, n, *x.shape[1:]) stack of the b
    instances x[block], n = x[0].size, to (b, n) losses, once per sign and
    block.
    """
    x = np.asarray(x, dtype=np.float64)
    if not batched:
        return central_diff(lambda s, _: fn(s[0])[None], x[None], h, True)[0]
    n = x[0].size
    step = h * np.eye(n)
    grad = np.empty((len(x), n))
    per = max(1, _PROBE_BLOCK // (n * n))
    for lo in range(0, len(x), per):
        block = slice(lo, lo + per)
        flat = x[block].reshape(-1, 1, n)
        stack = (len(flat), n) + x.shape[1:]
        fp = fn((flat + step).reshape(stack), block)
        fm = fn((flat - step).reshape(stack), block)
        grad[block] = (fp - fm) / (2.0 * h)
    return grad.reshape(x.shape)


def _rel_errs(analytic, numeric):
    """Relative error of each instance (axis 0) of two gradient stacks."""
    axes = tuple(range(1, analytic.ndim))
    denom = np.maximum(np.maximum(np.abs(analytic).max(axis=axes),
                                  np.abs(numeric).max(axis=axes)), 1e-8)
    return np.abs(analytic - numeric).max(axis=axes) / denom


def _unit_rows(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def check_aam(num_subcenters, instances=100, dim=8, num_classes=5, seed=0):
    """Max relative gradient error of the AAM loss over random instances,
    all checked together."""
    if instances < 1:  # zero instances would report an error of 0
        raise SvkitError(f"instances={instances} must be >= 1")
    rng = np.random.default_rng(check_seed(seed))
    cfg = AamConfig(margin=0.2, scale=5.0)
    u = np.empty((instances, dim))
    W = np.empty((instances, num_classes, num_subcenters, dim))
    t = np.empty(instances, dtype=np.intp)
    for i in range(instances):  # per instance, so the RNG stream is kept
        u[i] = rng.standard_normal(u.shape[1:])
        W[i] = rng.standard_normal(W.shape[1:])
        t[i] = rng.integers(num_classes)
    u, W = _unit_rows(u), _unit_rows(W)
    _, grad_u, grad_W = _aam_grads(u, W, t, cfg)
    num_u = central_diff(
        lambda U, b: _aam_losses(U, W[b, None], t[b, None], cfg)[0], u,
        batched=True)
    num_W = central_diff(
        lambda Ws, b: _aam_losses(u[b, None], Ws, t[b, None], cfg)[0], W,
        batched=True)
    # np.maximum, unlike max(), lets a NaN error through
    return float(np.maximum(_rel_errs(grad_u, num_u),
                            _rel_errs(grad_W, num_W)).max())


def check_moco(instances=100, dim=8, batch=4, queue_size=16, seed=0):
    """Max relative gradient error of the contrastive loss over random
    instances, all checked together."""
    if instances < 1:  # zero instances would report an error of 0
        raise SvkitError(f"instances={instances} must be >= 1")
    rng = np.random.default_rng(check_seed(seed))
    X = np.empty((instances, batch, dim))
    P = np.empty_like(X)
    Q = np.empty((instances, queue_size, dim))
    for i in range(instances):  # per instance, so the RNG stream is kept
        X[i] = rng.standard_normal(X.shape[1:])
        P[i] = rng.standard_normal(P.shape[1:])
        Q[i] = rng.standard_normal(Q.shape[1:])
    X, P, Q = _unit_rows(X), _unit_rows(P), _unit_rows(Q)
    _, grad = _moco_grads(X, P, Q, 10.0)
    num = central_diff(
        lambda Xs, b: _moco_losses(Xs, P[b, None], Q[b, None], 10.0)[0], X,
        batched=True)
    return float(_rel_errs(grad, num).max())


def run_suite(instances=100, seed=0):
    """Max relative error per loss, as a name -> error dict."""
    return {
        "aam_softmax_k1": check_aam(1, instances, seed=seed),
        "aam_softmax_k2": check_aam(2, instances, seed=seed + 1),
        "moco": check_moco(instances, seed=seed + 2),
    }
