import copy
import hashlib
import os
import pickle
import re
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import oracles
from oracles import lloyd_kmeans

import svkit
from svkit import (
    EmbeddingSet,
    TrialList,
    adjusted_rand_index,
    ahc_ward,
    assign_pseudo_labels,
    length_normalize,
    minibatch_kmeans,
    read_kmeans,
    sweep_cluster_count,
    synth_dataset,
    write_kmeans,
)
from svkit import clustering
from svkit.clustering import (
    _SEARCH_BLOCK,
    KMeansModel,
    PseudoLabeling,
    _nearest,
    _ward_linkage,
    greedy_label_match,
    identity_refresher,
    iterate,
    make_prototype_pull_refresher,
    prototype_scores,
    read_labels,
    write_labels,
)
from svkit.embeddings import _ROW_BLOCK
from svkit.errors import (
    BadMagic,
    DimMismatch,
    DuplicateId,
    EmptyInput,
    IdSetChanged,
    KTooLarge,
    SvkitError,
    TruncatedFile,
    UnknownId,
    ZeroVector,
)
from svkit.metrics import eer
from svkit.scoring import _group_sums


def _truth(emb):
    return {u: emb.meta[u].speaker for u in emb.ids}


def _eval_trials(emb, n_random=1500, seed=5):
    rng = np.random.default_rng(seed)
    truth = _truth(emb)
    ids = emb.ids
    e_ids, t_ids, labels = [], [], []
    for _ in range(n_random):
        a, b = rng.choice(len(ids), 2, replace=False)
        e_ids.append(ids[a])
        t_ids.append(ids[b])
        labels.append(1 if truth[ids[a]] == truth[ids[b]] else 0)
    per_spk = {}
    for u in ids:
        per_spk.setdefault(truth[u], []).append(u)
    for us in per_spk.values():
        if len(us) >= 4:
            e_ids += [us[0], us[2]]
            t_ids += [us[1], us[3]]
            labels += [1, 1]
    return TrialList(e_ids, t_ids, labels)


# ---------------------------------------------------------------------------
# mini-batch k-means

def test_kmeans_k_equals_count():
    emb = length_normalize(synth_dataset(4, 2, 8, 5.0, seed=0))
    model = minibatch_kmeans(emb, len(emb), batch_size=4, seed=1)
    assert model.inertia < 1e-12


def test_kmeans_k_too_large():
    emb = length_normalize(synth_dataset(2, 2, 8, 5.0, seed=0))
    with pytest.raises(KTooLarge):
        minibatch_kmeans(emb, 5)


@pytest.mark.parametrize("n_batches", [0, -2])
def test_kmeans_rejects_fewer_than_one_batch(n_batches):
    # no batch would return the random initial centers with zero counts
    emb = length_normalize(synth_dataset(4, 2, 8, 5.0, seed=0))
    with pytest.raises(SvkitError, match=f"n_batches={n_batches} must be"):
        minibatch_kmeans(emb, 2, batch_size=4, n_batches=n_batches)


def test_kmeans_two_blobs_vs_lloyd_oracle():
    rng = np.random.default_rng(2)
    a = rng.normal(0, 0.05, (100, 4)) + np.array([1, 0, 0, 0])
    b = rng.normal(0, 0.05, (100, 4)) + np.array([-1, 0, 0, 0])
    emb = EmbeddingSet([f"u{i}" for i in range(200)], np.vstack([a, b]))
    mb = minibatch_kmeans(emb, 2, batch_size=32, seed=3)
    ll = lloyd_kmeans(emb, 2, seed=4)
    assert mb.inertia <= ll.inertia * 1.01


def test_kmeans_deterministic():
    emb = length_normalize(synth_dataset(10, 10, 16, 6.0, seed=5))
    m1 = minibatch_kmeans(emb, 12, batch_size=20, seed=9)
    m2 = minibatch_kmeans(emb, 12, batch_size=20, seed=9)
    assert np.array_equal(m1.centers, m2.centers)
    assert np.array_equal(m1.counts, m2.counts)
    assert m1.inertia == m2.inertia


def test_lloyd_inertia_monotone():
    emb = length_normalize(synth_dataset(8, 12, 16, 4.0, seed=6))
    rng = np.random.default_rng(7)
    init = emb.vectors[rng.choice(len(emb), 8, replace=False)]
    inertias = []
    centers = init
    for iters in range(1, 8):
        m = lloyd_kmeans(emb, 8, max_iter=iters, init_centers=init)
        inertias.append(m.inertia)
    assert all(b <= a + 1e-12 for a, b in zip(inertias, inertias[1:]))


def test_nearest_matches_brute_force_oracle():
    # rows and centers of very different norms, so the -||c||^2/2 term
    # decides; 8229 rows cross several _SEARCH_BLOCK edges; the first 50
    # rows sit exactly on the centers (distance 0)
    rng = np.random.default_rng(3)
    points = rng.normal(size=(2 * 4096 + 37, 8))
    points *= rng.uniform(0.1, 10.0, size=(len(points), 1))
    centers = rng.normal(size=(50, 8))
    centers *= rng.uniform(0.1, 10.0, size=(50, 1))
    points[:50] = centers
    idx, d2 = _nearest(points, centers, distances=True)
    ref_idx, ref_d2 = oracles.nearest_center_oracle(points, centers)
    assert np.array_equal(idx, ref_idx)
    assert np.all(d2 >= 0.0)
    # ||x||^2 - 2 x.c + ||c||^2 cancels: the rounding error scales with
    # the norms, not with the distance
    scale = (points ** 2).sum(axis=1) + (centers ** 2).sum(axis=1)[idx]
    assert np.all(np.abs(d2 - ref_d2) <= 1e-14 * scale)


def test_nearest_of_distinct_rows_scatters_to_batch_result():
    # 9000 draws of 6000 rows: 48% repeats, and both the batch (9000
    # rows) and its distinct rows (4649) cross several _SEARCH_BLOCK
    # edges, so a row is scored in a different block position
    rng = np.random.default_rng(14)
    X = rng.normal(size=(6000, 32))
    centers = rng.normal(size=(40, 32))
    rows = rng.integers(0, len(X), size=9000)
    distinct, inverse = np.unique(rows, return_inverse=True)
    assert 4096 < len(distinct) < 0.8 * len(rows)
    idx, d2 = _nearest(X[rows], centers, distances=True)
    idx_u, d2_u = _nearest(X[distinct], centers, distances=True)
    assert np.array_equal(idx, idx_u[inverse])
    assert np.array_equal(d2, d2_u[inverse])


def test_nearest_of_row_indices_equals_gathered_rows():
    # unsorted row indices with repeats, crossing two _SEARCH_BLOCK edges:
    # the blocks gathered one at a time give the search of the gathered rows
    rng = np.random.default_rng(15)
    X = rng.normal(size=(3000, 16))
    centers = rng.normal(size=(30, 16))
    rows = rng.integers(0, len(X), size=2 * _SEARCH_BLOCK + 37)
    idx, d2 = _nearest(X, centers, rows, distances=True)
    ref_idx, ref_d2 = _nearest(X[rows], centers, distances=True)
    assert np.array_equal(idx, ref_idx)
    assert np.array_equal(d2, ref_d2)


def test_group_sums_bit_identical_to_add_at():
    # magnitudes 1e-8..1e8, so any other addition order rounds differently;
    # groups 40..44 stay empty. With row indices: 5000 unsorted draws of
    # 3000 vectors, so a group repeats a vector and lists them out of order
    rng = np.random.default_rng(4)
    rows = rng.normal(size=(5000, 7))
    rows *= 10.0 ** rng.integers(-8, 9, size=(5000, 1))
    labels = rng.integers(0, 40, size=5000)
    ref = np.zeros((45, 7))
    np.add.at(ref, labels, rows)
    assert np.array_equal(_group_sums(labels, rows, 45), ref)

    vectors = rows[:3000]
    drawn = rng.integers(0, len(vectors), size=5000)
    ref = np.zeros((45, 7))
    np.add.at(ref, labels, vectors[drawn])
    assert np.array_equal(_group_sums(labels, vectors, 45, drawn), ref)


def _traced_peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kmeans_memory_is_one_search_block():
    # a batch is read through its row indices and searched one block at a
    # time: one _SEARCH_BLOCK x k score buffer and one gathered block of
    # rows, not batch x dim copies; at these sizes (6 batches of 6000 draws)
    # that was about 39 MB
    emb = length_normalize(synth_dataset(300, 20, 256, 9.0, seed=1))
    k, dim = 600, emb.dim
    search_block = _SEARCH_BLOCK * (k + dim) * 8
    centers = k * dim * 8
    peak = _traced_peak(minibatch_kmeans, emb, k, batch_size=10000, seed=1)
    assert peak <= 1.5 * (search_block + centers)


def test_kmeans_reseed_memory_is_one_search_block():
    # one batch of 6000 draws leaves a few of the 600 centers unhit; their
    # reseed fits the batch a block at a time and gathers only the picked
    # points (the whole gathered batch, its centers and their difference
    # took 39.5 MB)
    emb = length_normalize(synth_dataset(300, 20, 256, 9.0, seed=1))
    k, dim = 600, emb.dim
    model = minibatch_kmeans(emb, k, batch_size=10000, n_batches=1, seed=1)
    assert model.counts.sum() > len(emb)  # reseeded centers count 1 each
    peak = _traced_peak(minibatch_kmeans, emb, k, batch_size=10000,
                        n_batches=1, seed=1)
    assert peak <= 1.5 * (_SEARCH_BLOCK * (k + dim) * 8 + k * dim * 8)


def test_kmeans_reseed_equals_whole_batch_fit():
    # one batch of 2500 draws, three search blocks, leaves hundreds of the
    # 1500 centers unhit; the reference takes the fit of the whole gathered
    # batch at once
    emb = length_normalize(synth_dataset(50, 50, 16, 3.0, seed=4))
    X, n, k = emb.vectors, len(emb), 1500
    rng = np.random.default_rng(5)
    centers = X[rng.choice(n, size=k, replace=False)]
    rows = rng.integers(0, n, size=n)
    distinct, inverse = np.unique(rows, return_inverse=True)
    assign = _nearest(X, centers, distinct)[inverse]
    m = np.bincount(assign, minlength=k)
    hit = np.flatnonzero(m)
    centers[hit] = _group_sums(assign, X, k, rows)[hit] / m[hit, None]
    batch = X[rows]
    diff = batch - centers[assign]
    order = np.argsort(-np.einsum("ij,ij->i", diff, diff), kind="stable")
    empty = np.flatnonzero(m == 0)
    assert len(rows) > 2 * _SEARCH_BLOCK and len(empty) > 100
    centers[empty] = batch[order[:len(empty)]]
    model = minibatch_kmeans(emb, k, batch_size=n, n_batches=1, seed=5)
    assert np.array_equal(model.centers, centers)
    assert np.array_equal(model.counts, np.maximum(m, 1))


def test_prototype_pull_memory_is_one_output():
    # the pulled vectors are formed and normalized in place in the array
    # the new set holds; beyond it, the set's n x dim boolean finiteness
    # mask (1/8 of it) and the scaled prototypes, temporaries are
    # _ROW_BLOCK-sized (was three n x dim arrays)
    rng = np.random.default_rng(44)
    emb = length_normalize(synth_dataset(300, 20, 256, 9.0, seed=1))
    lab = PseudoLabeling({u: i % 300 for i, u in enumerate(emb.ids)},
                         rng.normal(size=(300, emb.dim)))
    refresh = make_prototype_pull_refresher(0.2)
    peak = _traced_peak(refresh, emb, lab)
    assert peak <= (1.25 * emb.vectors.nbytes + lab.prototypes.nbytes
                    + 2 * _ROW_BLOCK * emb.dim * 8)


def test_kmeans_frozen_output():
    # four batches of 20 rows leave 16 of the 50 centers unhit; they are
    # reseeded from the last batch at count 1, so the counts sum to
    # 4 * 20 + 16. Only a row drawn twice fits its center as well as
    # another row, so the reseed order does not hang on rounding noise.
    emb = length_normalize(synth_dataset(20, 10, 16, 3.0, seed=8))
    model = minibatch_kmeans(emb, 50, batch_size=20, n_batches=4, seed=9)
    assert model.counts.sum() == 4 * 20 + 16
    digest = hashlib.sha256(model.centers.astype("<f8").tobytes()
                            + model.counts.astype("<i8").tobytes())
    assert digest.hexdigest() == (
        "f1b41c7cab730f05905d91c5a3a7b97a47b1f8faa4ba78e2c84a501b207b4b08")


def test_kmeans_frozen_output_full_batches():
    # batches of all 200 rows drawn with replacement: about 37% of each
    # batch repeats a row, so every batch searches about 126 distinct rows;
    # one center is never hit and is reseeded at count 1
    emb = length_normalize(synth_dataset(20, 10, 16, 3.0, seed=8))
    model = minibatch_kmeans(emb, 50, batch_size=250, n_batches=5, seed=10)
    assert model.counts.sum() == 5 * 200 + 1
    digest = hashlib.sha256(model.centers.astype("<f8").tobytes()
                            + model.counts.astype("<i8").tobytes()
                            + np.float64(model.inertia).tobytes())
    assert digest.hexdigest() == (
        "545bc60217172e7556bd7558d6b72a4ec0a44d0af8599436407711a506a34075")


# ---------------------------------------------------------------------------
# AHC

def test_ahc_singletons():
    rng = np.random.default_rng(8)
    centers = rng.standard_normal((6, 4))
    _, labels = ahc_ward(centers, 6)
    assert sorted(labels.tolist()) == list(range(6))


def test_ahc_angle_pairs_merge_first():
    angles = np.deg2rad([0.0, 5.0, 85.0, 90.0])
    centers = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    Z, labels = ahc_ward(centers, 2)
    first_two = {frozenset(row[:2].astype(int)) for row in Z[:2]}
    assert first_two == {frozenset({0, 1}), frozenset({2, 3})}
    assert labels[0] == labels[1] and labels[2] == labels[3]
    assert labels[0] != labels[2]


def test_ahc_heights_nondecreasing():
    rng = np.random.default_rng(9)
    centers = rng.standard_normal((40, 8))
    Z, _ = ahc_ward(centers, 5)
    h = Z[:, 2]
    assert np.all(np.diff(h) >= -1e-12)


def test_ahc_cut_nesting():
    # cutting at K then K-1 merges exactly one pair of flat clusters
    rng = np.random.default_rng(10)
    centers = rng.standard_normal((30, 6))
    for K in (10, 7, 3):
        _, la = ahc_ward(centers, K)
        _, lb = ahc_ward(centers, K - 1)
        groups_a = {}
        for i, lab in enumerate(la):
            groups_a.setdefault(lab, set()).add(i)
        groups_b = {}
        for i, lab in enumerate(lb):
            groups_b.setdefault(lab, set()).add(i)
        sets_a = set(map(frozenset, groups_a.values()))
        sets_b = set(map(frozenset, groups_b.values()))
        merged = sets_b - sets_a
        vanished = sets_a - sets_b
        assert len(merged) == 1
        assert len(vanished) == 2
        assert next(iter(merged)) == frozenset().union(*vanished)


def test_ahc_normalizes_centers():
    # scaling a center must not change the clustering (cosine geometry)
    rng = np.random.default_rng(11)
    centers = rng.standard_normal((12, 4))
    scaled = centers * rng.uniform(0.5, 3.0, (12, 1))
    _, la = ahc_ward(centers, 4)
    _, lb = ahc_ward(scaled, 4)
    assert adjusted_rand_index(
        {str(i): int(v) for i, v in enumerate(la)},
        {str(i): int(v) for i, v in enumerate(lb)},
    ) == 1.0


def test_ahc_validation():
    with pytest.raises(EmptyInput):
        ahc_ward(np.empty((0, 3)), 1)
    with pytest.raises(SvkitError):
        ahc_ward(np.eye(3), 4)
    # rejected before the normalization, which warns on an inf center
    for bad in (np.nan, np.inf, -np.inf):
        centers = np.eye(3)
        centers[1, 0] = bad
        with pytest.raises(SvkitError, match="finite"):
            ahc_ward(centers, 2)
    with pytest.raises(SvkitError, match="integer"):
        ahc_ward(np.eye(3), 2.5)


def _unit(x):
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _assert_same_linkage(got, want, atol=1e-12):
    """Same merges, node ids and sizes; heights within atol; the same
    maxclust labels at every tested cut."""
    from scipy.cluster.hierarchy import fcluster
    assert got.shape == want.shape
    assert np.array_equal(got[:, [0, 1, 3]], want[:, [0, 1, 3]])
    assert np.abs(got[:, 2] - want[:, 2]).max() <= atol
    k = len(want) + 1
    for t in sorted({1, 2, max(1, k // 10), max(1, k // 2), k}):
        assert np.array_equal(fcluster(got, t, "maxclust"),
                              fcluster(want, t, "maxclust")), t


@pytest.mark.parametrize("k", [2, 3, 600, 2000])
def test_ward_linkage_matches_scipy_on_observations(k):
    from scipy.cluster.hierarchy import linkage
    centers = np.random.default_rng(k).standard_normal((k, 256))
    _assert_same_linkage(_ward_linkage(centers),
                         linkage(_unit(centers), "ward"))


def _duplicate_corpus(gap):
    """700 centers: 350 random directions and a copy of each, exact
    (gap 0) or `gap` away, shuffled; returns the centers and the row of
    each copy's partner."""
    rng = np.random.default_rng(12)
    base = _unit(rng.standard_normal((350, 256)))
    step = gap / 16.0 * rng.choice([-1.0, 1.0], base.shape)  # norm `gap`
    order = rng.permutation(700)
    centers = np.concatenate([base, base + step])[order]
    slot = np.argsort(order)
    partner = np.empty(700, dtype=np.int64)
    partner[slot[:350]], partner[slot[350:]] = slot[350:], slot[:350]
    return centers, partner


@pytest.mark.parametrize("gap", [0.0, 1e-5])
def test_ward_linkage_matches_scipy_on_duplicates(gap):
    # 2 - 2 u.v alone gives exact duplicates distances near 1e-8, not 0,
    # which changed scipy's node ids and the maxclust labels here; close
    # pairs are therefore recomputed from their difference vectors
    from scipy.cluster.hierarchy import linkage
    centers, partner = _duplicate_corpus(gap)
    Z = _ward_linkage(centers)
    _assert_same_linkage(Z, linkage(_unit(centers), "ward"))
    first = Z[:350, :2].astype(np.int64)
    assert np.array_equal(partner[first[:, 0]], first[:, 1])
    if gap == 0.0:
        assert np.all(Z[:350, 2] == 0.0)
    else:
        assert np.all(Z[:350, 2] > 0.0)
        assert np.all(Z[350:, 2] > 1e-3)


@pytest.mark.parametrize("rows", [1, 7, 701])
def test_ward_linkage_distance_blocks(monkeypatch, rows):
    # blocks of 1 row, 7 rows and more rows than the k = 700 centers give
    # the same merges, with close pairs in every block; a BLAS picks its
    # kernel by shape, so a distance's last bit may depend on the block
    # shape, and heights are compared to within 1e-14
    centers, _ = _duplicate_corpus(1e-5)
    k = len(centers)
    want = _ward_linkage(centers)
    monkeypatch.setattr(clustering, "_PAIR_BLOCK", rows * k)
    _assert_same_linkage(_ward_linkage(centers), want, atol=1e-14)


def test_ward_linkage_memory_is_the_condensed_distances():
    # the condensed distances and the unit centers are what scipy's own
    # observation path holds (20.1 MB at k = 2000); the distance blocks add
    # at most a quarter of that
    k, dim = 2000, 256
    centers = np.random.default_rng(14).standard_normal((k, dim))
    _ward_linkage(centers[:10])  # scipy.cluster imported before tracing
    peak = _traced_peak(_ward_linkage, centers)
    assert peak <= 1.25 * 8 * (k * (k - 1) // 2 + k * dim)


# ---------------------------------------------------------------------------
# pseudo-labels

def test_assign_exact_center_and_singleton_prototype():
    centers = np.array([[1.0, 0.0], [0.0, 1.0]])
    km = KMeansModel(centers, [1, 1])
    emb = EmbeddingSet(["a", "b"], [[1.0, 0.0], [0.0, 2.0]])
    lab = assign_pseudo_labels(emb, km, [0, 1])
    assert lab.assignment == {"a": 0, "b": 1}
    # prototype of a singleton cluster is that normalized embedding
    assert np.allclose(lab.prototypes[1], [0.0, 1.0])


def test_assign_matches_exhaustive_oracle():
    rng = np.random.default_rng(12)
    pts = rng.standard_normal((8, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    emb = EmbeddingSet([f"u{i}" for i in range(8)], pts)
    centers = rng.standard_normal((4, 3))
    km = KMeansModel(centers, [2, 2, 2, 2])
    center_labels = np.array([0, 1, 0, 1])
    lab = assign_pseudo_labels(emb, km, center_labels)
    for i, u in enumerate(emb.ids):
        dists = [((pts[i] - c) ** 2).sum() for c in centers]
        want = center_labels[int(np.argmin(dists))]
        assert lab.assignment[u] == want


def test_assign_order_invariant():
    emb = length_normalize(synth_dataset(5, 6, 8, 6.0, seed=13))
    km = minibatch_kmeans(emb, 10, batch_size=10, seed=14)
    _, cl = ahc_ward(km.centers, 5)
    lab = assign_pseudo_labels(emb, km, cl)
    perm = np.random.default_rng(15).permutation(len(emb))
    shuffled = EmbeddingSet(
        [emb.ids[i] for i in perm], emb.vectors[perm], emb.meta)
    lab2 = assign_pseudo_labels(shuffled, km, cl)
    assert lab.assignment == lab2.assignment


def test_assign_dim_mismatch():
    km = KMeansModel(np.eye(3), [1, 1, 1])
    emb = EmbeddingSet(["a"], [[1.0, 0.0]])
    with pytest.raises(DimMismatch):
        assign_pseudo_labels(emb, km, [0, 1, 2])


def test_zero_norm_embedding_is_named():
    km = KMeansModel(np.eye(2), [1, 1])
    emb = EmbeddingSet(["a", "z"], [[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ZeroVector, match="embedding 'z' has zero norm"):
        assign_pseudo_labels(emb, km, [0, 1])
    with pytest.raises(ZeroVector, match="embedding 'z' has zero norm"):
        sweep_cluster_count(emb, km, [1, 2], TrialList(["a"], ["z"]))
    # halfway toward the opposite prototype cancels to zero
    pulled = PseudoLabeling({"a": 0, "z": 1}, np.array([[-1.0, 0.0],
                                                        [0.0, 1.0]]))
    with pytest.raises(ZeroVector, match="embedding 'a' has zero norm"):
        make_prototype_pull_refresher(0.5)(
            EmbeddingSet(["a", "z"], np.eye(2)), pulled)


def test_relabeling_permutes_prototypes():
    emb = length_normalize(synth_dataset(6, 5, 8, 8.0, seed=16))
    km = minibatch_kmeans(emb, 12, batch_size=10, seed=17)
    _, cl = ahc_ward(km.centers, 6)
    lab = assign_pseudo_labels(emb, km, cl)
    perm = np.array([3, 0, 5, 1, 4, 2])
    lab_p = assign_pseudo_labels(emb, km, perm[cl])
    assert adjusted_rand_index(lab.assignment, lab_p.assignment) == 1.0
    for c in range(6):
        assert np.array_equal(lab.prototypes[c], lab_p.prototypes[perm[c]])


# ---------------------------------------------------------------------------
# sweep and iteration

def test_sweep_single_k():
    emb = length_normalize(synth_dataset(10, 8, 16, 8.0, seed=18))
    km = minibatch_kmeans(emb, 40, batch_size=20, seed=19)
    trials = _eval_trials(emb, 300, seed=20)
    rows, best = sweep_cluster_count(emb, km, [10], trials)
    assert len(rows) == 1 and best == 10


def test_sweep_true_k_wins():
    emb = length_normalize(synth_dataset(20, 10, 32, 10.0, seed=21))
    km = minibatch_kmeans(emb, 60, batch_size=50, seed=22)
    trials = _eval_trials(emb, 800, seed=23)
    rows, best = sweep_cluster_count(emb, km, [5, 20, 50], trials)
    eers = dict(rows)
    assert best == 20
    assert eers[5] > eers[20]


def test_sweep_matches_per_cut_ahc_and_assign():
    # one linkage and one nearest-center search serve every cut; the rows
    # must equal the per-cut ahc_ward + assign_pseudo_labels loop exactly
    emb = length_normalize(synth_dataset(10, 8, 16, 6.0, seed=27))
    km = minibatch_kmeans(emb, 40, batch_size=20, seed=28)
    trials = _eval_trials(emb, 300, seed=29)
    single = KMeansModel(km.centers[:1], [1])
    for model, k_values in ((km, [10, 1, 5, 20, 40]), (single, [1])):
        rows, best = sweep_cluster_count(emb, model, k_values, trials)
        want = []
        for K in k_values:
            _, cl = ahc_ward(model.centers, K)
            lab = assign_pseudo_labels(emb, model, cl)
            want.append((K, eer(prototype_scores(lab, trials))))
        assert rows == want
        assert best == min(want, key=lambda r: (r[1], r[0]))[0]
    with pytest.raises(SvkitError):
        sweep_cluster_count(emb, km, [5, 41], trials)


def _fitted():
    emb = length_normalize(synth_dataset(10, 8, 16, 6.0, seed=27))
    km = minibatch_kmeans(emb, 40, batch_size=20, seed=28)
    return emb, km, _eval_trials(emb, 300, seed=29)


def _count_searches(monkeypatch):
    """Counts of scipy's linkage calls and of full-set nearest-center
    searches from here on."""
    import scipy.cluster.hierarchy as hierarchy
    calls = {"linkage": 0, "nearest": 0}
    linkage, nearest = hierarchy.linkage, clustering._nearest

    def count_linkage(*args, **kwargs):
        calls["linkage"] += 1
        return linkage(*args, **kwargs)

    def count_nearest(points, centers, rows=None, distances=False):
        calls["nearest"] += rows is None
        return nearest(points, centers, rows, distances)

    monkeypatch.setattr(hierarchy, "linkage", count_linkage)
    monkeypatch.setattr(clustering, "_nearest", count_nearest)
    return calls


def test_sweep_makes_one_linkage_and_one_search(monkeypatch):
    # whether or not ahc_ward and assign_pseudo_labels ran on the same
    # model and set before it, a sweep builds one linkage and searches the
    # whole set once, and gives the same rows
    emb, km, trials = _fitted()
    calls = _count_searches(monkeypatch)
    want = sweep_cluster_count(emb, km, [5, 10, 20], trials)
    assert calls == {"linkage": 1, "nearest": 1}
    _, cl = ahc_ward(km.centers, 10)
    assign_pseudo_labels(emb, km, cl)
    calls.update(linkage=0, nearest=0)
    assert sweep_cluster_count(emb, km, [5, 10, 20], trials) == want
    assert calls == {"linkage": 1, "nearest": 1}


def test_kmeans_model_pickles_without_its_keep():
    # numpy unpickles and deep-copies an array as writable; the model is
    # rebuilt through its constructor, so both copies stay read-only
    _, km, _ = _fitted()
    for back in (pickle.loads(pickle.dumps(km)), copy.deepcopy(km)):
        assert not back.centers.flags.writeable
        assert not back.counts.flags.writeable
        assert np.array_equal(back.centers, km.centers)
        assert np.array_equal(back.counts, km.counts)
        assert back.inertia == km.inertia


def test_kmeans_model_arrays_are_read_only():
    base = np.eye(3)
    model = KMeansModel(base[:2], np.array([1, 2]))
    base[0, 0] = 5.0  # the view of a writable array was copied
    assert model.centers[0, 0] == 1.0
    for a in (model.centers, model.counts):
        with pytest.raises(ValueError):
            a[0] = 0
    again = KMeansModel(model.centers, model.counts)
    assert again.centers is model.centers and again.counts is model.counts
    centers = np.eye(3)  # owns its data: frozen in place, not copied
    assert KMeansModel(centers, [1, 1, 1]).centers is centers
    assert not centers.flags.writeable
    emb = length_normalize(synth_dataset(4, 3, 8, 5.0, seed=0))
    km = minibatch_kmeans(emb, 5, batch_size=6, seed=1)
    assert not km.centers.flags.writeable and not km.counts.flags.writeable


@pytest.mark.parametrize("kind", ["int", "str", "float", "tuple"])
def test_greedy_label_match_equals_counter_oracle(kind):
    # few labels over few utterances, so many overlaps tie and the tie
    # order by (curr, prev) label decides the mapping
    rng = np.random.default_rng(32)
    as_label = {"int": lambda v: 3 - v, "str": lambda v: f"c{v}",
                "float": lambda v: v / 4.0, "tuple": lambda v: (v % 2, v)}
    for _ in range(50):
        n = int(rng.integers(1, 25))
        ids = [f"u{i}" for i in rng.permutation(n)]
        prev = {u: as_label[kind](int(v))
                for u, v in zip(ids, rng.integers(0, 5, n))}
        curr = {u: int(v) for u, v in zip(ids, rng.integers(0, 4, n))}
        for a, b in ((prev, curr), (curr, prev)):
            got = greedy_label_match(a, b)
            want = oracles.greedy_match_oracle(a, b)
            assert got == want
            assert list(got[0].items()) == list(want[0].items())


def test_greedy_label_match_permutation():
    prev = {"a": 0, "b": 0, "c": 1, "d": 2}
    curr = {"a": 7, "b": 7, "c": 5, "d": 6}
    mapping, agree = greedy_label_match(prev, curr)
    assert agree == 1.0
    assert mapping == {7: 0, 5: 1, 6: 2}


def test_iterate_identity_fixed_point():
    emb = length_normalize(synth_dataset(12, 8, 16, 50.0, seed=24))
    recs = iterate(emb, identity_refresher, 24, 12, batch_size=24,
                   max_iters=3, seed=25)
    assert len(recs) == 3
    assert recs[1].agreement_with_prev == 1.0
    assert recs[2].agreement_with_prev == 1.0


def test_iterate_prototype_pull_ari_nondecreasing():
    emb = length_normalize(synth_dataset(15, 10, 24, 8.0, seed=26))
    truth = _truth(emb)
    recs = iterate(emb, make_prototype_pull_refresher(0.2), 45, 15,
                   batch_size=30, max_iters=3, seed=27)
    aris = [adjusted_rand_index(r.labeling.assignment, truth) for r in recs]
    assert all(b >= a - 1e-12 for a, b in zip(aris, aris[1:]))


def test_iterate_frozen_prototype_pull():
    emb = length_normalize(synth_dataset(15, 10, 24, 4.0, seed=26))
    trials = _eval_trials(emb, 400, seed=33)
    recs = iterate(emb, make_prototype_pull_refresher(0.2), 45, 15,
                   batch_size=150, eval_trials=trials, max_iters=2, seed=34)
    assert [r.eer for r in recs] == [0.21311475409836064, 0.1840843720038351]
    assert [r.agreement_with_prev for r in recs] == [None, 0.7866666666666666]
    digest = hashlib.sha256()
    for r in recs:
        labels = [r.labeling.assignment[u] for u in emb.ids]
        digest.update(np.array(labels, dtype="<i8").tobytes())
        digest.update(r.labeling.prototypes.astype("<f8").tobytes())
    assert digest.hexdigest() == (
        "55592e2481c8ff08b57ad67daffeb4001a014a16fa384ce95c1e6859f74e7618")


@pytest.mark.parametrize("max_iters", [0, -1])
def test_iterate_rejects_fewer_than_one_iteration(max_iters):
    emb = length_normalize(synth_dataset(4, 4, 8, 8.0, seed=28))
    with pytest.raises(SvkitError, match=f"max_iters={max_iters} must be"):
        iterate(emb, identity_refresher, 8, 4, batch_size=8,
                max_iters=max_iters)


def test_iterate_id_set_changed():
    emb = length_normalize(synth_dataset(4, 4, 8, 8.0, seed=28))

    def bad_refresher(s, labeling):
        return EmbeddingSet([f"x{i}" for i in range(len(s))], s.vectors)

    with pytest.raises(IdSetChanged):
        iterate(emb, bad_refresher, 8, 4, batch_size=8, max_iters=2, seed=29)


def test_iterate_early_stop_on_eer():
    emb = length_normalize(synth_dataset(10, 8, 16, 20.0, seed=30))
    trials = _eval_trials(emb, 300, seed=31)
    recs = iterate(emb, identity_refresher, 20, 10, batch_size=20,
                   eval_trials=trials, max_iters=5, seed=32)
    # identity refresher cannot improve the metric, so the driver stops early
    assert len(recs) <= 2


def test_prototype_scores_range():
    emb = length_normalize(synth_dataset(6, 6, 8, 6.0, seed=33))
    km = minibatch_kmeans(emb, 12, batch_size=12, seed=34)
    _, cl = ahc_ward(km.centers, 6)
    lab = assign_pseudo_labels(emb, km, cl)
    trials = _eval_trials(emb, 100, seed=35)
    s = prototype_scores(lab, trials)
    assert np.all(np.abs(s.scores) <= 1.0 + 1e-12)


# ---------------------------------------------------------------------------
# files

def test_labels_file_round_trip(tmp_path):
    labs = {"u1": 0, "u2": 5, "weird id": 3}
    path = tmp_path / "labels.txt"
    # ids with spaces are not representable in the labels format
    del labs["weird id"]
    write_labels(labs, path)
    assert read_labels(path) == labs


def test_labels_file_duplicate_id(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("u1 0\nu2 1\n\nu1 2\n")
    with pytest.raises(DuplicateId, match=re.escape(f"{path}:4: ") + ".*'u1'"):
        read_labels(path)


def test_kmeans_file_round_trip(tmp_path):
    rng = np.random.default_rng(36)
    centers = rng.standard_normal((5, 3)).astype(np.float32)
    model = KMeansModel(centers.astype(np.float64), [3, 1, 4, 1, 5])
    p1, p2 = tmp_path / "a.svkm", tmp_path / "b.svkm"
    write_kmeans(model, p1)
    back = read_kmeans(p1)
    write_kmeans(back, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(back.centers, model.centers)
    assert np.array_equal(back.counts, model.counts)


def test_kmeans_file_errors(tmp_path):
    bad = tmp_path / "bad.svkm"
    bad.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(BadMagic):
        read_kmeans(bad)
    good = tmp_path / "g.svkm"
    write_kmeans(KMeansModel(np.eye(2), [1, 1]), good)
    trunc = tmp_path / "t.svkm"
    trunc.write_bytes(good.read_bytes()[:-4])
    with pytest.raises(TruncatedFile):
        read_kmeans(trunc)
    huge = tmp_path / "h.svkm"
    raw = good.read_bytes()
    huge.write_bytes(raw[:12] + (2**40).to_bytes(8, "little") + raw[20:])
    with pytest.raises(TruncatedFile):
        read_kmeans(huge)


def test_labels_file_non_numeric_label(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("u1 0\nu2 zero\n")
    with pytest.raises(SvkitError, match=re.escape(f"{path}:2: malformed")):
        read_labels(path)


def test_labels_file_negative_label(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("u1 0\nu2 -1\n")
    with pytest.raises(SvkitError, match=re.escape(f"{path}:2: ")
                       + ".*negative"):
        read_labels(path)


def test_assign_rejects_negative_center_labels():
    emb = length_normalize(synth_dataset(4, 4, 8, 6.0, seed=39))
    km = minibatch_kmeans(emb, 4, batch_size=8, seed=40)
    with pytest.raises(SvkitError, match="nonnegative"):
        assign_pseudo_labels(emb, km, [0, -1, 1, 1])


def test_kmeans_model_rejects_zero_dimensional_centers(tmp_path):
    with pytest.raises(SvkitError, match="d >= 1"):
        KMeansModel([[], []], [1, 1])
    path = tmp_path / "zero.svkm"
    path.write_bytes(b"SVKM" + struct.pack("<IIQ", 1, 0, 2)
                     + struct.pack("<QQ", 1, 1))
    with pytest.raises(SvkitError, match="d >= 1"):
        read_kmeans(path)


def test_kmeans_model_rejects_non_finite_centers(tmp_path):
    with pytest.raises(SvkitError, match="finite"):
        KMeansModel([[0.0, np.nan]], [1])
    path = tmp_path / "nan.svkm"
    write_kmeans(KMeansModel([[0.0, 1.0], [1.0, 0.0]], [1, 1]), path)
    raw = bytearray(path.read_bytes())
    raw[20:24] = np.float32(np.nan).tobytes()  # first center's first value
    path.write_bytes(bytes(raw))
    with pytest.raises(SvkitError, match="finite"):
        read_kmeans(path)


def test_prototype_scores_unknown_trial_id():
    emb = length_normalize(synth_dataset(4, 4, 8, 6.0, seed=37))
    km = minibatch_kmeans(emb, 4, batch_size=8, seed=38)
    lab = assign_pseudo_labels(emb, km, ahc_ward(km.centers, 2)[1])
    trials = TrialList([emb.ids[0], "ghost"], [emb.ids[1], emb.ids[2]])
    with pytest.raises(UnknownId, match="unknown utterance id 'ghost'"):
        prototype_scores(lab, trials)


def test_prototype_scores_equal_cosine_of_prototypes():
    emb = length_normalize(synth_dataset(6, 6, 8, 6.0, seed=39))
    km = minibatch_kmeans(emb, 12, batch_size=12, seed=40)
    lab = assign_pseudo_labels(emb, km, ahc_ward(km.centers, 6)[1])
    # an empty cluster's zero prototype scores 0
    lab.prototypes = np.vstack([lab.prototypes, np.zeros(emb.dim)])
    lab.assignment[emb.ids[0]] = 6
    trials = _eval_trials(emb, 3000, seed=41)
    got = prototype_scores(lab, trials).scores
    for i, (e, t, _) in enumerate(trials):
        a, b = (lab.prototypes[lab.assignment[u]] for u in (e, t))
        want = (0.0 if not (a.any() and b.any())
                else oracles.cosine_oracle(a, b))
        assert abs(got[i] - want) <= 1e-12


def test_prototype_pull_refresher_equals_per_utterance_update():
    # 400 speakers x 6: 2400 utterances cross several _ROW_BLOCK edges
    for speakers in (6, 400):
        emb = length_normalize(synth_dataset(speakers, 6, 8, 6.0, seed=42))
        km = minibatch_kmeans(emb, 2 * speakers, batch_size=12, seed=43)
        lab = assign_pseudo_labels(emb, km,
                                   ahc_ward(km.centers, speakers)[1])
        got = make_prototype_pull_refresher(0.3)(emb, lab)
        want = emb.vectors.copy()
        for i, u in enumerate(emb.ids):
            proto = lab.prototypes[lab.assignment[u]]
            want[i] = (1.0 - 0.3) * want[i] + 0.3 * proto
        want /= np.linalg.norm(want, axis=1, keepdims=True)
        assert got.ids == emb.ids
        assert np.array_equal(got.vectors, want)
    assert len(emb) > 2 * _ROW_BLOCK


def test_importing_svkit_loads_no_scipy_until_first_use():
    # scipy.sparse is imported by the first group sum and scipy.cluster by
    # the first linkage, so importing the library or the CLI pays for
    # neither
    code = """
import sys
import svkit, svkit.cli
from svkit import EmbeddingSet, UttMeta, ahc_ward, build_cohort
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
ids = ["a", "b", "c"]
emb = EmbeddingSet(ids, [[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]],
                   {u: UttMeta(100, 1.0, s) for u, s in zip(ids, "xxy")})
cohort = build_cohort(emb)
assert cohort.ids == ["x", "y"], cohort.ids
assert cohort.vectors.tolist() == [[0.5, 0.5], [0.6, 0.8]], cohort.vectors
print("scipy.sparse" in sys.modules, "scipy.cluster" in sys.modules)
ahc_ward(cohort.vectors, 1)
print("scipy.cluster" in sys.modules)
"""
    src = os.path.dirname(os.path.dirname(svkit.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.splitlines() == ["[]", "True False", "True"]
