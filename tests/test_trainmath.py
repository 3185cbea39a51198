import itertools
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from svkit import (
    AamConfig,
    ContrastiveBatch,
    NegativeQueue,
    aam_softmax_loss,
    clr_triangular2,
    min_overlap_crop_pair,
    moco_loss,
    momentum_update,
    queue_push,
)
from svkit import gradcheck
from svkit.gradcheck import central_diff, run_suite
from svkit.trainmath import (
    _aam_losses,
    _moco_losses,
    best_crop_pair,
    crop_overlap,
)
from svkit.errors import (
    CropTooLong,
    DimMismatch,
    EmptyQueue,
    LengthMismatch,
    NonUnitInput,
    SvkitError,
)


def _unit(rng, shape):
    v = rng.standard_normal(shape)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# AAM softmax

def test_aam_reduces_to_softmax_ce():
    # m=0, K=1, s=1, cosines (1, 0), target 0 -> log(1 + e^-1)
    cfg = AamConfig(margin=0.0, scale=1.0)
    u = np.array([1.0, 0.0])
    W = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
    loss, _, _ = aam_softmax_loss(u, W, 0, cfg)
    assert abs(loss - math.log(1.0 + math.exp(-1.0))) < 1e-12
    assert abs(loss - 0.31326) < 1e-5


def test_aam_margin_zero_equals_plain_softmax_random():
    rng = np.random.default_rng(0)
    cfg = AamConfig(margin=0.0, scale=7.0)
    for _ in range(20):
        u = _unit(rng, (8,))
        W = _unit(rng, (5, 1, 8))
        t = int(rng.integers(5))
        loss, _, _ = aam_softmax_loss(u, W, t, cfg)
        logits = 7.0 * (W[:, 0] @ u)
        want = float(np.log(np.exp(logits).sum()) - logits[t])
        assert abs(loss - want) < 1e-12


def test_aam_margin_increases_target_loss():
    rng = np.random.default_rng(1)
    u = _unit(rng, (8,))
    W = _unit(rng, (5, 1, 8))
    losses = [
        aam_softmax_loss(u, W, 2, AamConfig(m, 30.0))[0]
        for m in (0.0, 0.2, 0.5)
    ]
    assert losses[0] < losses[1] < losses[2]


def test_aam_duplicate_subcenters_equal_k1():
    rng = np.random.default_rng(2)
    u = _unit(rng, (8,))
    W1 = _unit(rng, (5, 1, 8))
    W2 = np.repeat(W1, 2, axis=1)
    l1, g1, _ = aam_softmax_loss(u, W1, 3, AamConfig(0.2, 30.0))
    l2, g2, _ = aam_softmax_loss(u, W2, 3, AamConfig(0.2, 30.0))
    assert l1 == l2
    assert np.array_equal(g1, g2)


@pytest.mark.parametrize("k", [1, 2])
def test_aam_gradients_match_finite_differences(k):
    rng = np.random.default_rng(3 + k)
    cfg = AamConfig(0.2, 5.0)
    worst = 0.0
    for _ in range(25):
        u = _unit(rng, (8,))
        W = _unit(rng, (5, k, 8))
        t = int(rng.integers(5))
        _, gu, gW = aam_softmax_loss(u, W, t, cfg)
        nu = oracles.fd_gradient(
            lambda v: aam_softmax_loss(v, W, t, cfg)[0], u)
        nW = oracles.fd_gradient(
            lambda M: aam_softmax_loss(u, M, t, cfg)[0], W)
        worst = max(worst, oracles.max_rel_err(gu, nu),
                    oracles.max_rel_err(gW, nW))
    assert worst < 1e-6


def test_aam_rejects_non_unit():
    cfg = AamConfig(0.2, 30.0)
    with pytest.raises(NonUnitInput):
        aam_softmax_loss(np.array([2.0, 0.0]),
                         np.array([[[1.0, 0.0]]]), 0, cfg)


def test_aam_config_validation():
    with pytest.raises(SvkitError):
        AamConfig(margin=2.0)
    with pytest.raises(SvkitError):
        AamConfig(scale=0.0)
    # K is the middle axis of class_weights: K = 0 is no subcenter at all
    with pytest.raises(SvkitError, match=r"shape \(5, 0, 8\)"):
        aam_softmax_loss(np.eye(8)[0], np.zeros((5, 0, 8)), 0, AamConfig())


@pytest.mark.parametrize("scale", [math.nan, math.inf])
@pytest.mark.parametrize("loss", ["aam", "moco"])
def test_loss_scale_must_be_finite(loss, scale):
    # either scale makes the loss and its gradient NaN, silently for NaN;
    # NaN fails every comparison, so a `scale <= 0` check lets it through
    with pytest.raises(SvkitError, match=f"scale={scale} must be finite"):
        if loss == "aam":
            AamConfig(0.2, scale)
        else:
            ContrastiveBatch(np.eye(2)[:1], np.eye(2)[:1], scale)


# ---------------------------------------------------------------------------
# MoCo loss and queue

def test_moco_closed_form():
    # n=1, x = x_plus = (1,0), queue {(0,1)}, s=10 -> log(1 + e^-10)
    batch = ContrastiveBatch(np.array([[1.0, 0.0]]),
                             np.array([[1.0, 0.0]]), scale=10.0)
    queue = NegativeQueue(4, np.array([[0.0, 1.0]]))
    loss, _ = moco_loss(batch, queue)
    want = math.log(1.0 + math.exp(-10.0))
    assert abs(loss - want) < 1e-15
    assert abs(loss - 4.53989e-5) < 1e-9


def test_moco_scale_zero():
    rng = np.random.default_rng(4)
    n_neg = 7
    batch = ContrastiveBatch(_unit(rng, (3, 6)), _unit(rng, (3, 6)),
                             scale=0.0)
    queue = NegativeQueue(8, _unit(rng, (n_neg, 6)))
    loss, grad = moco_loss(batch, queue)
    assert abs(loss - math.log(n_neg + 1)) < 1e-12
    assert np.abs(grad).max() < 1e-15


def test_moco_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(25):
        X = _unit(rng, (4, 8))
        P = _unit(rng, (4, 8))
        queue = NegativeQueue(16, _unit(rng, (16, 8)))
        batch = ContrastiveBatch(X, P, scale=10.0)
        _, grad = moco_loss(batch, queue)
        num = oracles.fd_gradient(
            lambda V: moco_loss(
                ContrastiveBatch(V, P, scale=10.0), queue)[0], X)
        worst = max(worst, oracles.max_rel_err(grad, num))
    assert worst < 1e-6


def test_moco_rotating_toward_positive_decreases_loss():
    rng = np.random.default_rng(6)
    X = _unit(rng, (1, 8))
    P = _unit(rng, (1, 8))
    queue = NegativeQueue(16, _unit(rng, (16, 8)))
    batch = ContrastiveBatch(X, P, scale=10.0)
    _, grad = moco_loss(batch, queue)
    # direction toward the positive, projected on the sphere tangent
    d = P[0] - (P[0] @ X[0]) * X[0]
    assert float(grad[0] @ d) < 0.0


def test_moco_errors():
    batch = ContrastiveBatch(np.array([[1.0, 0.0]]),
                             np.array([[1.0, 0.0]]))
    with pytest.raises(EmptyQueue):
        moco_loss(batch, NegativeQueue.empty(4, 2))
    with pytest.raises(DimMismatch):
        moco_loss(batch, NegativeQueue(4, np.eye(3)))


def test_queue_fifo_trace():
    a, b, c, d = (np.eye(4)[i] for i in range(4))
    q = NegativeQueue.empty(3, 4)
    q = queue_push(q, np.stack([a, b]))
    q = queue_push(q, np.stack([c, d]))
    assert np.array_equal(q.embeddings, np.stack([b, c, d]))


def test_queue_oversize_push():
    q = NegativeQueue.empty(3, 2)
    batch = np.arange(10, dtype=float).reshape(5, 2)
    q = queue_push(q, batch)
    assert np.array_equal(q.embeddings, batch[-3:])


def test_queue_random_trace_vs_deque_oracle():
    from collections import deque

    rng = np.random.default_rng(7)
    cap = 5
    q = NegativeQueue.empty(cap, 3)
    ref = deque(maxlen=cap)
    for _ in range(50):
        batch = rng.standard_normal((int(rng.integers(1, 4)), 3))
        q = queue_push(q, batch)
        for row in batch:
            ref.append(row)
        assert np.array_equal(q.embeddings, np.array(ref))


@pytest.mark.parametrize("capacity", [0, -1, 2.5])
def test_queue_capacity_must_be_an_integer_of_at_least_one(capacity):
    # capacity 0 never evicted and -1 dropped every push
    msg = f"^capacity={capacity} must be an integer >= 1$"
    with pytest.raises(SvkitError, match=msg):
        NegativeQueue(capacity, np.empty((0, 2)))
    with pytest.raises(SvkitError, match=msg):
        NegativeQueue.empty(capacity, 2)


@pytest.mark.parametrize("rows", [
    np.ones(2),
    np.eye(3)[:, :2],
    np.array([[np.nan, 0.0]]),
    np.array([[np.inf, 0.0]]),
], ids=["1-D", "3 rows over capacity 2", "NaN", "inf"])
def test_queue_must_be_a_finite_matrix_within_capacity(rows):
    with pytest.raises(SvkitError, match=r"^queue of shape \("):
        NegativeQueue(2, rows)


@pytest.mark.parametrize("name", ["embedding", "class_weights"])
def test_aam_rejects_a_nan_row(name):
    # NaN fails every comparison, so a `> atol` test let it through
    u = np.array([1.0, 0.0])
    W = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
    if name == "embedding":
        u[1] = np.nan
    else:
        W[1, 0, 0] = np.nan
    with pytest.raises(NonUnitInput, match=name):
        aam_softmax_loss(u, W, 0, AamConfig())


def test_moco_rejects_a_queue_row_off_the_unit_sphere():
    # a row of norm 3 gave a finite, plausible-looking loss
    batch = ContrastiveBatch(np.array([[1.0, 0.0]]),
                             np.array([[1.0, 0.0]]))
    queue = NegativeQueue(4, np.array([[0.0, 1.0], [0.0, -3.0]]))
    with pytest.raises(NonUnitInput, match="queue"):
        moco_loss(batch, queue)


# ---------------------------------------------------------------------------
# stacked finite differences

@pytest.mark.parametrize("k", [1, 2])
def test_stacked_central_diff_equals_scalar_loop_aam(k):
    rng = np.random.default_rng(30 + k)
    cfg = AamConfig(0.2, 5.0)
    for _ in range(10):
        u = _unit(rng, (8,))
        W = _unit(rng, (5, k, 8))
        t = int(rng.integers(5))
        assert np.array_equal(
            central_diff(lambda U: _aam_losses(U, W[None], t, cfg)[0], u),
            oracles.fd_gradient(
                lambda v: aam_softmax_loss(v, W, t, cfg)[0], u))
        assert np.array_equal(
            central_diff(lambda Ws: _aam_losses(u[None], Ws, t, cfg)[0], W),
            oracles.fd_gradient(
                lambda M: aam_softmax_loss(u, M, t, cfg)[0], W))


def test_stacked_central_diff_equals_scalar_loop_moco():
    rng = np.random.default_rng(33)
    for _ in range(10):
        X = _unit(rng, (4, 8))
        P = _unit(rng, (4, 8))
        queue = NegativeQueue(16, _unit(rng, (16, 8)))
        assert np.array_equal(
            central_diff(
                lambda Xs: _moco_losses(Xs, P, queue.embeddings, 10.0)[0], X),
            oracles.fd_gradient(
                lambda V: moco_loss(
                    ContrastiveBatch(V, P, scale=10.0), queue)[0], X))


@pytest.mark.parametrize("k", [1, 2])
def test_aam_kernel_rows_equal_public_loss(k):
    rng = np.random.default_rng(34 + k)
    cfg = AamConfig(0.3, 30.0)
    U = _unit(rng, (6, 8))
    Ws = _unit(rng, (6, 5, k, 8))
    for t in range(5):
        one = _aam_losses(U[:1], Ws[:1], t, cfg)[0]
        assert one.shape == (1,)
        assert one[0] == aam_softmax_loss(U[0], Ws[0], t, cfg)[0]
        stacked = _aam_losses(U, Ws, t, cfg)[0]
        assert stacked.tolist() == [
            aam_softmax_loss(U[b], Ws[b], t, cfg)[0] for b in range(6)]


def test_moco_kernel_rows_equal_public_loss():
    rng = np.random.default_rng(36)
    Xs = _unit(rng, (6, 4, 8))
    P = _unit(rng, (4, 8))
    queue = NegativeQueue(16, _unit(rng, (16, 8)))
    one = _moco_losses(Xs[:1], P, queue.embeddings, 10.0)[0]
    assert one.shape == (1,)
    assert one[0] == moco_loss(ContrastiveBatch(Xs[0], P, 10.0), queue)[0]
    stacked = _moco_losses(Xs, P, queue.embeddings, 10.0)[0]
    assert stacked.tolist() == [
        moco_loss(ContrastiveBatch(X, P, 10.0), queue)[0] for X in Xs]


def test_loss_kernels_check_every_stacked_row():
    rng = np.random.default_rng(37)
    cfg = AamConfig(0.2, 5.0)
    U = _unit(rng, (4, 8))
    Ws = _unit(rng, (4, 5, 1, 8))
    U[3] *= 1.01
    Ws[2, 4, 0] *= 1.01
    with pytest.raises(NonUnitInput, match="embedding"):
        _aam_losses(U, Ws[:1], 0, cfg)
    with pytest.raises(NonUnitInput, match="class_weights"):
        _aam_losses(U[:1], Ws, 0, cfg)
    Xs = _unit(rng, (4, 2, 8))
    Xs[1, 1] *= 1.01
    with pytest.raises(NonUnitInput, match="queries"):
        _moco_losses(Xs, _unit(rng, (2, 8)), _unit(rng, (3, 8)), 10.0)


def test_run_suite_frozen_errors():
    # frozen from the scalar loop of one loss call per perturbation. The
    # bits are those of OpenBLAS's FMA gemm kernels (its default dispatch
    # on x86-64 with AVX2, and OPENBLAS_CORETYPE Haswell, Zen, SkylakeX,
    # Cooperlake or SapphireRapids); under a pre-FMA kernel (SandyBridge,
    # Prescott) the moco error reads 6.251596579e-10. The test below
    # checks the same errors on any kernel.
    assert run_suite(100, 0) == {
        "aam_softmax_k1": 3.626418550190228e-10,
        "aam_softmax_k2": 1.1764005708444485e-09,
        "moco": 6.251596719763458e-10,
    }


def _oracle_errors(instances, seed):
    """run_suite's errors recomputed instance by instance, as its checks
    draw them, from the public losses and `oracles.fd_gradient`."""
    cfg = AamConfig(0.2, 5.0)
    errors = {}
    for name, k, s in (("aam_softmax_k1", 1, seed),
                       ("aam_softmax_k2", 2, seed + 1)):
        rng, worst = np.random.default_rng(s), 0.0
        for _ in range(instances):
            u, W = _unit(rng, (8,)), _unit(rng, (5, k, 8))
            t = int(rng.integers(5))
            _, gu, gW = aam_softmax_loss(u, W, t, cfg)
            nu = oracles.fd_gradient(
                lambda v: aam_softmax_loss(v, W, t, cfg)[0], u)
            nW = oracles.fd_gradient(
                lambda M: aam_softmax_loss(u, M, t, cfg)[0], W)
            worst = max(worst, oracles.max_rel_err(gu, nu),
                        oracles.max_rel_err(gW, nW))
        errors[name] = worst
    rng, worst = np.random.default_rng(seed + 2), 0.0
    for _ in range(instances):
        X, P = _unit(rng, (4, 8)), _unit(rng, (4, 8))
        queue = NegativeQueue(16, _unit(rng, (16, 8)))
        _, grad = moco_loss(ContrastiveBatch(X, P, 10.0), queue)
        num = oracles.fd_gradient(
            lambda V: moco_loss(ContrastiveBatch(V, P, 10.0), queue)[0], X)
        worst = max(worst, oracles.max_rel_err(grad, num))
    errors["moco"] = worst
    return errors


def test_run_suite_errors_match_the_oracle_on_any_kernel():
    # the frozen errors' companion: a BLAS kernel moves them by about 2e-8
    # of their value, in the library and the oracle alike, and a change of
    # logic by far more than 1e-10
    got, want = run_suite(100, 0), _oracle_errors(100, 0)
    assert got.keys() == want.keys()
    for name in got:
        assert abs(got[name] - want[name]) <= 1e-6 * want[name], name
        assert want[name] < 1e-6


@pytest.mark.parametrize("instances", [0, -3])
def test_gradient_checks_reject_fewer_than_one_instance(instances):
    # no instance would report an error of 0: a check that cannot fail
    msg = f"instances={instances} must be >= 1"
    with pytest.raises(SvkitError, match=msg):
        gradcheck.check_aam(1, instances)
    with pytest.raises(SvkitError, match=msg):
        gradcheck.check_moco(instances)
    with pytest.raises(SvkitError, match=msg):
        run_suite(instances)


def test_run_suite_flags_a_wrong_gradient(monkeypatch):
    # skews the batched analytic gradient that the AAM check compares
    real = gradcheck._aam_grads

    def skewed(*args):
        losses, grad_U, grad_W = real(*args)
        return losses, grad_U, grad_W * (1.0 + 1e-4)

    assert max(run_suite(5, 0).values()) < 1e-6
    monkeypatch.setattr(gradcheck, "_aam_grads", skewed)
    errs = run_suite(5, 0)
    assert errs["aam_softmax_k1"] > 1e-6
    assert errs["aam_softmax_k2"] > 1e-6
    assert errs["moco"] < 1e-6


@pytest.mark.parametrize("arg", [1, 2])
def test_run_suite_reports_a_nan_gradient(monkeypatch, arg):
    # Python's max() keeps its first argument when the other is NaN, so a
    # NaN error after a finite one read as a pass
    real = gradcheck._aam_grads

    def broken(*args):
        out = list(real(*args))
        out[arg][-1].flat[0] = np.nan
        return tuple(out)

    monkeypatch.setattr(gradcheck, "_aam_grads", broken)
    errs = run_suite(5, 0)
    assert math.isnan(errs["aam_softmax_k1"])
    assert math.isnan(errs["aam_softmax_k2"])
    assert errs["moco"] < 1e-6


def _spy_on_gradients(monkeypatch):
    """The (analytic, numeric) gradient stacks of every argument that the
    gradient checks compare, in call order."""
    pairs = []
    real = gradcheck._rel_errs

    def spy(analytic, numeric):
        pairs.append((analytic, numeric))
        return real(analytic, numeric)

    monkeypatch.setattr(gradcheck, "_rel_errs", spy)
    return pairs


def _instance_counts(block, n):
    """Instance counts on both sides of the first block edge of an
    argument of n values: a block of 2**7 values holds one W or X probe
    stack and two u stacks, so 1, 2, 3 cross the edges of every one."""
    if block:
        return [1, 2, 3]
    per = max(1, gradcheck._PROBE_BLOCK // (n * n))
    return [per, per + 1]


@pytest.mark.parametrize("block", [None, 2 ** 7])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_batched_aam_check_equals_per_instance_loop(monkeypatch, k, block):
    if block:
        monkeypatch.setattr(gradcheck, "_PROBE_BLOCK", block)
    pairs = _spy_on_gradients(monkeypatch)
    cfg = AamConfig(0.2, 5.0)
    for seed in (0, 1, 2):
        for instances in _instance_counts(block, 5 * k * 8):
            gradcheck.check_aam(k, instances, seed=seed)
            (gu, nu), (gW, nW) = pairs[-2:]
            rng = np.random.default_rng(seed)
            for i in range(instances):
                u = _unit(rng, (8,))
                W = _unit(rng, (5, k, 8))
                t = int(rng.integers(5))
                _, ru, rW = aam_softmax_loss(u, W, t, cfg)
                assert np.array_equal(gu[i], ru)
                assert np.array_equal(gW[i], rW)
                assert np.array_equal(nu[i], oracles.fd_gradient(
                    lambda v: aam_softmax_loss(v, W, t, cfg)[0], u))
                assert np.array_equal(nW[i], oracles.fd_gradient(
                    lambda M: aam_softmax_loss(u, M, t, cfg)[0], W))


@pytest.mark.parametrize("block", [None, 2 ** 7])
def test_batched_moco_check_equals_per_instance_loop(monkeypatch, block):
    if block:
        monkeypatch.setattr(gradcheck, "_PROBE_BLOCK", block)
    pairs = _spy_on_gradients(monkeypatch)
    for seed in (0, 1, 2):
        for instances in _instance_counts(block, 4 * 8):
            gradcheck.check_moco(instances, seed=seed)
            grad, num = pairs[-1]
            rng = np.random.default_rng(seed)
            for i in range(instances):
                X = _unit(rng, (4, 8))
                P = _unit(rng, (4, 8))
                queue = NegativeQueue(16, _unit(rng, (16, 8)))
                _, ref = moco_loss(ContrastiveBatch(X, P, 10.0), queue)
                assert np.array_equal(grad[i], ref)
                assert np.array_equal(num[i], oracles.fd_gradient(
                    lambda V: moco_loss(
                        ContrastiveBatch(V, P, 10.0), queue)[0], X))


def test_run_suite_memory_is_bounded_by_the_probe_block():
    # probe stacks go in blocks and share the unperturbed arguments by
    # broadcasting; one unblocked stack took 12.5 MB here
    run_suite(1, 0)
    tracemalloc.start()
    try:
        run_suite(100, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_batched_kernels_take_per_row_targets_and_batched_queues():
    rng = np.random.default_rng(38)
    cfg = AamConfig(0.2, 5.0)
    U = _unit(rng, (3, 8))
    Ws = _unit(rng, (3, 5, 2, 8))
    t = np.array([4, 0, 2])
    assert _aam_losses(U, Ws, t, cfg)[0].tolist() == [
        aam_softmax_loss(U[b], Ws[b], t[b], cfg)[0] for b in range(3)]
    Xs = _unit(rng, (3, 4, 8))
    Ps = _unit(rng, (3, 4, 8))
    Qs = _unit(rng, (3, 16, 8))
    assert _moco_losses(Xs, Ps, Qs, 10.0)[0].tolist() == [
        moco_loss(ContrastiveBatch(Xs[b], Ps[b], 10.0),
                  NegativeQueue(16, Qs[b]))[0] for b in range(3)]
    Qs[1, 7] *= 1.01
    with pytest.raises(NonUnitInput, match="queue"):
        _moco_losses(Xs, Ps, Qs, 10.0)


# ---------------------------------------------------------------------------
# momentum update

def test_momentum_fixed_point_and_arithmetic():
    tm = np.array([1.0, 2.0])
    te = np.array([3.0, 4.0])
    assert np.array_equal(momentum_update(tm, te, 1.0), tm)
    assert np.allclose(momentum_update(np.zeros(3), np.ones(3), 0.9), 0.1)


def test_momentum_contraction_closed_form():
    rng = np.random.default_rng(8)
    te = rng.standard_normal(20)
    tm = rng.standard_normal(20)
    gap0 = np.linalg.norm(tm - te)
    for step in range(1, 101):
        tm = momentum_update(tm, te, 0.999)
        assert abs(np.linalg.norm(tm - te) - gap0 * 0.999 ** step) < 1e-9


def test_momentum_length_mismatch():
    with pytest.raises(LengthMismatch):
        momentum_update(np.zeros(2), np.zeros(3), 0.9)


# ---------------------------------------------------------------------------
# CLR schedule

def test_clr_checkpoints():
    L = 130000
    assert clr_triangular2(0, L) == 1e-8
    assert clr_triangular2(L // 2, L) == 1e-3
    # second-cycle midpoint from the peak-halving rule
    want = 1e-8 + (1e-3 - 1e-8) / 2.0
    got = clr_triangular2(3 * L // 2, L)
    assert abs(got - want) / want < 1e-9


def test_clr_peak_halving_invariant():
    L = 1000
    rng = np.random.default_rng(9)
    for t in rng.integers(0, 5 * L, size=200):
        lr_t = clr_triangular2(int(t), L)
        lr_next = clr_triangular2(int(t) + L, L)
        assert abs((lr_next - 1e-8) - (lr_t - 1e-8) / 2.0) < 1e-18


def test_clr_triangular_shape():
    L = 100
    vals = [clr_triangular2(t, L, 0.0, 1.0) for t in range(L + 1)]
    assert vals[0] == 0.0
    assert vals[50] == 1.0
    assert vals[100] == 0.0
    assert all(b > a for a, b in zip(vals[:50], vals[1:51]))
    assert all(b < a for a, b in zip(vals[50:100], vals[51:101]))


# ---------------------------------------------------------------------------
# crop pairs

def test_crop_degenerate():
    assert min_overlap_crop_pair(350, 350, seed=0) == (0, 0)


def test_crop_hand_enumeration():
    starts = [0, 100, 200, 350, 300]
    assert best_crop_pair(starts, 350) == (0, 350)
    # exhaustive: chosen pair has minimal overlap among all 10 pairs
    chosen = crop_overlap(0, 350, 350)
    for a, b in itertools.combinations(starts, 2):
        assert chosen <= crop_overlap(a, b, 350)


def test_crop_pair_minimality_random():
    rng = np.random.default_rng(10)
    for trial in range(50):
        T = int(rng.integers(400, 2000))
        c = 350
        pair = min_overlap_crop_pair(T, c, seed=trial)
        # regenerate the candidate starts with the same seed
        starts = np.random.default_rng(trial).integers(
            0, T - c + 1, size=5)
        best = min(
            crop_overlap(a, b, c)
            for a, b in itertools.combinations(starts.tolist(), 2)
        )
        assert crop_overlap(pair[0], pair[1], c) == best
        assert pair[0] <= pair[1]


def test_crop_too_long():
    with pytest.raises(CropTooLong):
        min_overlap_crop_pair(100, 200)


@pytest.mark.parametrize("starts", [[5], []])
def test_crop_pair_needs_two_starts(starts):
    # fewer than two starts raised a bare TypeError from the empty search
    with pytest.raises(SvkitError, match=rf"^need at least two candidate "
                       rf"crops, got {len(starts)}$"):
        best_crop_pair(starts, 10)


@pytest.mark.parametrize("count", [1, 0, -3])
def test_crop_pair_needs_two_candidates(count):
    with pytest.raises(SvkitError, match=rf"^need at least two candidate "
                       rf"crops, got {count}$"):
        min_overlap_crop_pair(100, 10, num_candidates=count)
