import tracemalloc

import numpy as np
import pytest

import oracles
from svkit import DcfParams, actual_dcf, adjusted_rand_index, eer, min_dcf
from svkit.errors import IdMismatch, OneClassOnly, SvkitError
from svkit.metrics import bayes_threshold, det_points
from svkit.scoring import ScoreSet, TrialList


def _scoreset(tar, non):
    n_t, n_n = len(tar), len(non)
    trials = TrialList(
        [f"e{i}" for i in range(n_t + n_n)],
        [f"t{i}" for i in range(n_t + n_n)],
        [1] * n_t + [0] * n_n,
    )
    return ScoreSet(trials, list(tar) + list(non))


def test_eer_perfect_separation():
    assert eer(_scoreset([0.9, 0.8], [0.3, 0.2])) == 0.0


def test_eer_inverted():
    assert eer(_scoreset([0.2, 0.3], [0.8, 0.9])) == 1.0


def test_eer_one_third():
    s = _scoreset([0.9, 0.8, 0.4], [0.6, 0.3, 0.2])
    want = oracles.eer_oracle([0.9, 0.8, 0.4], [0.6, 0.3, 0.2])
    assert abs(want - 1.0 / 3.0) < 1e-12
    assert eer(s) == want


def test_eer_one_class_only():
    trials = TrialList(["a"], ["b"], [1])
    with pytest.raises(OneClassOnly):
        eer(ScoreSet(trials, [0.5]))


def test_min_dcf_trivial():
    assert min_dcf(_scoreset([0.9], [0.1]), DcfParams(0.5)) == 0.0
    # all scores equal: accept-all or reject-all is optimal, cost 1
    assert min_dcf(_scoreset([0.5, 0.5], [0.5]), DcfParams(0.3)) == 1.0


def test_min_dcf_eer_example():
    # best threshold sits at 0.4: P_miss=0, P_fa=1/3, normalized cost 1/3
    tar, non = [0.9, 0.8, 0.4], [0.6, 0.3, 0.2]
    want = oracles.min_dcf_oracle(tar, non, 0.5)
    assert abs(want - 1.0 / 3.0) < 1e-12
    assert min_dcf(_scoreset(tar, non), DcfParams(0.5)) == want


def test_eer_mindcf_invariant_under_monotone_transform():
    rng = np.random.default_rng(0)
    tar = rng.normal(1.0, 1.0, 50)
    non = rng.normal(-1.0, 1.0, 70)
    base_e = eer(_scoreset(tar, non))
    base_d = min_dcf(_scoreset(tar, non), DcfParams(0.05))
    for f in (lambda x: 3 * x + 2, np.tanh, lambda x: x ** 3):
        s = _scoreset(f(tar), f(non))
        assert abs(eer(s) - base_e) < 1e-12
        assert abs(min_dcf(s, DcfParams(0.05)) - base_d) < 1e-12


def test_min_dcf_bounded_by_one():
    rng = np.random.default_rng(1)
    for _ in range(20):
        tar = rng.normal(0, 1, 30)
        non = rng.normal(0, 1, 30)
        assert min_dcf(_scoreset(tar, non), DcfParams(0.01)) <= 1.0 + 1e-12


def test_actual_dcf_well_calibrated():
    s = _scoreset([10.0, 12.0], [-10.0, -12.0])
    p = DcfParams(0.01)
    assert actual_dcf(s, p) == 0.0
    assert min_dcf(s, p) == 0.0


def test_actual_dcf_shift_increases():
    rng = np.random.default_rng(2)
    tar = rng.normal(4.0, 2.0, 200)
    non = rng.normal(-4.0, 2.0, 200)
    p = DcfParams(0.01)
    base = actual_dcf(_scoreset(tar, non), p)
    shifted = actual_dcf(_scoreset(tar + 10.0, non + 10.0), p)
    assert shifted > base
    assert min_dcf(_scoreset(tar + 10.0, non + 10.0), p) == min_dcf(
        _scoreset(tar, non), p)


def test_actual_dcf_at_bayes_threshold_matches_oracle():
    rng = np.random.default_rng(3)
    tar = rng.normal(2.0, 3.0, 77)
    non = rng.normal(-2.0, 3.0, 55)
    p = DcfParams(0.05)
    want = oracles.actual_dcf_oracle(tar.tolist(), non.tolist(), 0.05)
    assert abs(actual_dcf(_scoreset(tar, non), p) - want) < 1e-12
    assert actual_dcf(_scoreset(tar, non), p) >= min_dcf(
        _scoreset(tar, non), p) - 1e-12


def test_bayes_threshold_value():
    assert abs(bayes_threshold(DcfParams(0.5)) - 0.0) < 1e-15
    assert abs(bayes_threshold(DcfParams(0.01)) - np.log(99.0)) < 1e-12


def test_det_points_monotone():
    rng = np.random.default_rng(4)
    s = _scoreset(rng.normal(1, 1, 30), rng.normal(-1, 1, 30))
    fas, misses = det_points(s)
    assert fas.dtype == misses.dtype == np.float64
    assert fas.shape == misses.shape == (62,)
    assert fas.tolist() == sorted(fas.tolist(), reverse=True)
    assert misses.tolist() == sorted(misses.tolist())


def test_det_points_memory_is_a_few_arrays():
    # 50k trials with distinct scores: the curve is two float64 arrays of
    # n + 2 points and their temporaries, not one Python tuple per point
    n = 50_000
    rng = np.random.default_rng(5)
    s = _scoreset(rng.normal(1, 1, n // 2), rng.normal(-1, 1, n // 2))
    tracemalloc.start()
    try:
        det_points(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 8 * n


def test_ari_identical_and_permuted():
    a = {"a": 0, "b": 0, "c": 1, "d": 1}
    b = {"a": 5, "b": 5, "c": 9, "d": 9}
    assert adjusted_rand_index(a, a) == 1.0
    assert adjusted_rand_index(a, b) == 1.0


def test_ari_pair_counting_example():
    a = {"a": 0, "b": 0, "c": 1, "d": 1}
    b = {"a": 0, "b": 0, "c": 0, "d": 1}
    want = oracles.ari_oracle(a, b)
    got = adjusted_rand_index(a, b)
    assert abs(got - want) < 1e-12


def test_ari_symmetric_random():
    rng = np.random.default_rng(5)
    for _ in range(20):
        ids = [f"i{k}" for k in range(12)]
        a = {i: int(rng.integers(3)) for i in ids}
        b = {i: int(rng.integers(4)) for i in ids}
        ab = adjusted_rand_index(a, b)
        assert abs(ab - adjusted_rand_index(b, a)) < 1e-12
        assert abs(ab - oracles.ari_oracle(a, b)) < 1e-12
        assert ab <= 1.0


@pytest.mark.parametrize("kind", ["int", "str", "float", "tuple", "mixed"])
def test_ari_equals_oracle_exactly_for_any_labels(kind):
    # labels are told apart as dict keys: strings, floats, tuples and a
    # mix of ints and strings, which do not compare with each other
    rng = np.random.default_rng(6)
    as_label = {"int": lambda v: 7 * v - 3, "str": lambda v: f"spk{v}",
                "float": lambda v: v / 3.0, "tuple": lambda v: (v, "x"),
                "mixed": lambda v: v if v % 2 else str(v)}[kind]
    for _ in range(30):
        n = int(rng.integers(2, 30))
        ids = [f"i{k}" for k in rng.permutation(n)]
        a = {i: as_label(int(v)) for i, v in zip(ids, rng.integers(0, 4, n))}
        b = {i: int(v) for i, v in zip(ids, rng.integers(0, 5, n))}
        assert adjusted_rand_index(a, b) == oracles.ari_oracle(a, b)
        assert adjusted_rand_index(b, a) == oracles.ari_oracle(b, a)


def test_ari_count_oracle_equals_the_pair_loop():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(2, 40))
        a = {f"i{k}": int(v) for k, v in enumerate(rng.integers(0, 5, n))}
        b = {f"i{k}": str(v) for k, v in enumerate(rng.integers(0, 3, n))}
        assert oracles.ari_count_oracle(a, b) == oracles.ari_oracle(a, b)


def test_ari_with_more_labels_than_an_int32_code_product_holds():
    # a cell's key, an a-code times the number of b labels plus a b-code,
    # passes 2**31 from 46,341 labels a side
    rng = np.random.default_rng(8)
    n = 100_000
    ids = [f"i{k}" for k in range(n)]
    a = dict(zip(ids, rng.integers(0, 60_000, n).tolist()))
    b = dict(zip(ids, map(str, rng.integers(0, 60_000, n).tolist())))
    assert min(len(set(a.values())), len(set(b.values()))) > 46_341
    assert adjusted_rand_index(a, b) == oracles.ari_count_oracle(a, b)
    assert adjusted_rand_index(b, a) == oracles.ari_count_oracle(b, a)


def test_ari_id_mismatch():
    with pytest.raises(IdMismatch):
        adjusted_rand_index({"a": 0}, {"b": 0})


def test_dcf_params_validation():
    for p_target in (0.0, 1.0, float("nan")):
        with pytest.raises(SvkitError):
            DcfParams(p_target)


@pytest.mark.parametrize("c_miss, c_fa, p", [
    (10.0, 1.0, 0.01),  # NIST SRE 2008: P' ≈ 0.0917
    (1.0, 1.0, 0.05),  # VoxSRC
    (3.5, 0.2, 0.2),  # P' ≈ 0.814, above 1/2
])
def test_effective_prior_gives_the_cost_weighted_dcfs(c_miss, c_fa, p):
    # an operating point with costs is its effective prior P': the DCFs at
    # DcfParams(P') equal the oracles' cost-weighted ones
    eff = c_miss * p / (c_miss * p + c_fa * (1.0 - p))
    rng = np.random.default_rng(8)
    tar, non = rng.normal(2.0, 2.0, 200), rng.normal(-2.0, 2.0, 300)
    s, params = _scoreset(tar, non), DcfParams(eff)
    args = (tar.tolist(), non.tolist(), p, c_miss, c_fa)
    assert abs(min_dcf(s, params) - oracles.min_dcf_oracle(*args)) < 1e-12
    assert abs(actual_dcf(s, params)
               - oracles.actual_dcf_oracle(*args)) < 1e-12
