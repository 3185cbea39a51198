"""Training-math demo: losses, momentum mechanics, schedule, crop pairs.

Shows the subcenter AAM-softmax loss, the MoCo-style contrastive loss with
its FIFO negative queue and momentum encoder update, the triangular2
cyclical learning-rate schedule, and minimum-overlap crop-pair selection —
each with a quick numerical sanity check.

Run:  python3 demos/training_math.py
"""

import numpy as np

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
from svkit.gradcheck import run_suite


def unit(rng, shape):
    v = rng.standard_normal(shape)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def main():
    rng = np.random.default_rng(0)

    print("== 1. subcenter AAM-softmax ==")
    u = unit(rng, (8,))
    weights = unit(rng, (5, 2, 8))  # 5 classes, 2 subcenters each
    for margin in (0.0, 0.2, 0.5):
        cfg = AamConfig(margin=margin, scale=30.0)
        loss, _, _ = aam_softmax_loss(u, weights, 2, cfg)
        print(f"  margin {margin:.1f}: loss {loss:.4f}")
    print("  (a larger margin makes the same prediction cost more)")

    print("\n== 2. MoCo contrastive loss with a FIFO queue ==")
    queue = NegativeQueue.empty(capacity=64, dim=8)
    queue = queue_push(queue, unit(rng, (48, 8)))
    batch = ContrastiveBatch(unit(rng, (4, 8)), unit(rng, (4, 8)),
                             scale=10.0)
    loss, grad = moco_loss(batch, queue)
    print(f"  queue fill {len(queue)}/64, loss {loss:.4f}, "
          f"|grad| {np.linalg.norm(grad):.4f}")
    queue = queue_push(queue, unit(rng, (32, 8)))
    print(f"  after pushing 32 more: fill {len(queue)}/64 "
          f"(oldest entries evicted)")

    print("\n== 3. momentum encoder update ==")
    theta_m = np.zeros(6)
    theta_e = np.ones(6)
    for step in (1, 10, 100):
        t = theta_m
        for _ in range(step):
            t = momentum_update(t, theta_e, momentum=0.999)
        print(f"  after {step:4d} steps: gap to encoder "
              f"{np.linalg.norm(t - theta_e):.4f}")

    print("\n== 4. triangular2 cyclical learning rate ==")
    L = 130000
    for t in (0, L // 2, L, 3 * L // 2, 5 * L // 2):
        print(f"  t={t:6d}: lr {clr_triangular2(t, L):.3e}")
    print("  (the peak halves every cycle)")

    print("\n== 5. minimum-overlap crop pairs ==")
    for seed in range(3):
        a, b = min_overlap_crop_pair(1000, 350, num_candidates=5, seed=seed)
        overlap = max(0, 350 - abs(a - b))
        print(f"  utterance 1000 frames, crop 350: starts ({a}, {b}), "
              f"overlap {overlap}")

    print("\n== 6. gradient checks ==")
    errs = run_suite(instances=20, seed=1)
    for name, err in errs.items():
        print(f"  {name}: max rel err vs finite differences {err:.2e}")


if __name__ == "__main__":
    main()
