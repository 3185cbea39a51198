"""Unsupervised pseudo-labeling: mini-batch k-means, Ward AHC over the
k-means centers, label assignment, prototype computation, cluster-count
sweep and the iteration driver.

Ward linkage requires Euclidean geometry; centers are length-normalized
first so that for unit vectors ||a-b||^2 = 2(1 - cos(a,b)), which realizes
the cosine metric inside Ward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metrics as _metrics
from .embeddings import (
    _PAIR_BLOCK,
    _ROW_BLOCK,
    EmbeddingSet,
    _check_text_ids,
    _keyed_rows,
    _normalize_rows,
    _read_header,
    _read_only,
    _reading,
    _write_header,
)
from .errors import (
    DimMismatch,
    EmptyInput,
    IdSetChanged,
    KTooLarge,
    SvkitError,
    TruncatedFile,
    check_seed,
)
from .scoring import ScoreSet, _group_sums, _row_dots, _rows, _trial_rows

_KM_MAGIC = b"SVKM"


@dataclass
class KMeansModel:
    """k-means centers and their assignment counts, both read-only after
    construction (`_read_only`: a view of an array that can still be
    written is copied)."""

    centers: np.ndarray  # (k, d)
    counts: np.ndarray   # (k,) assignment counts
    inertia: float = 0.0

    def __post_init__(self):
        centers = np.asarray(self.centers, dtype=np.float64)
        counts = np.asarray(self.counts, dtype=np.int64)
        if centers.ndim != 2 or 0 in centers.shape:
            raise SvkitError("centers must be a (k, d) matrix with k, d >= 1")
        if counts.shape != (centers.shape[0],):
            raise SvkitError("counts length mismatch")
        if np.any(counts < 0):
            raise SvkitError("counts must be nonnegative")
        if not np.all(np.isfinite(centers)):
            raise SvkitError("centers must be finite")
        self.centers = _read_only(centers)
        self.counts = _read_only(counts)

    def __reduce__(self):
        # rebuilt through the constructor, so that a pickled or copied
        # model's arrays are read-only too: numpy unpickles and deep-copies
        # an array as writable
        return KMeansModel, (self.centers, self.counts, self.inertia)

    @property
    def k(self):
        return self.centers.shape[0]


@dataclass
class PseudoLabeling:
    assignment: dict            # utt_id -> cluster index in [0, K)
    prototypes: np.ndarray      # (K, d) mean of normalized member embeddings

    @property
    def num_clusters(self):
        return self.prototypes.shape[0]


# points per block of the nearest-center search; narrower blocks make
# the gemm narrow at hundreds of centers and cost time
_SEARCH_BLOCK = 1024


def _nearest(points, centers, rows=None, distances=False):
    """Index of each point's nearest center, `_SEARCH_BLOCK` points at a
    time, for points[rows] when `rows` is given; with `distances`, also
    each point's squared distance to that center, as (idx, d2). Each block
    of rows is gathered in turn, so extra memory is
    O(_SEARCH_BLOCK x (k + dim)), one score buffer and one block, for any
    number of points.

    ||x||^2 is the same for every center of a row, so the nearest center is
    the argmax of x.c - ||c||^2 / 2: one gemm into a reused block buffer and
    one in-place subtraction per block. The squared distance
    ||x||^2 - 2 (x.c - ||c||^2 / 2) is formed only at that center, clipped
    at 0, and only when `distances` asks for it.
    """
    n = points.shape[0] if rows is None else len(rows)
    half_sq = 0.5 * np.einsum("ij,ij->i", centers, centers)
    buf = np.empty((min(n, _SEARCH_BLOCK), centers.shape[0]))
    idx = np.empty(n, dtype=np.int64)
    d2 = np.empty(n) if distances else None
    for lo in range(0, n, _SEARCH_BLOCK):
        hi = min(lo + _SEARCH_BLOCK, n)
        block = points[lo:hi] if rows is None else points[rows[lo:hi]]
        score = np.matmul(block, centers.T, out=buf[:hi - lo])
        score -= half_sq
        idx[lo:hi] = np.argmax(score, axis=1)
        if distances:
            best = score[np.arange(hi - lo), idx[lo:hi]]
            d2[lo:hi] = np.einsum("ij,ij->i", block, block) - 2.0 * best
        del block  # else two gathered blocks are alive at the next gather
    if not distances:
        return idx
    np.maximum(d2, 0.0, out=d2)
    return idx, d2


def minibatch_kmeans(emb_set: EmbeddingSet, k, batch_size=10000,
                     n_batches=None, seed=0) -> KMeansModel:
    """Mini-batch k-means with per-center learning rate 1/count.

    Initialization picks k distinct points uniformly. Each batch is sampled
    uniformly with replacement from the whole set; batch points assigned to
    one center move it to the running mean of everything it has absorbed.
    Default n_batches is ceil(10 n / batch_size), 10 epochs of draws
    when batch_size <= n; a batch holds at most n draws, so with
    batch_size > n it is fewer (6000 points at batch_size 10000: 6
    batches of 6000, 6 epochs). Centers that were never hit are reseeded
    to the farthest points of the last batch.
    """
    return _kmeans(emb_set, k, batch_size, n_batches, seed)[0]


def _kmeans(emb_set, k, batch_size, n_batches, seed):
    """`minibatch_kmeans`, and each point's nearest final center from the
    search that gives the inertia."""
    X = emb_set.vectors
    n = X.shape[0]
    if k > n:
        raise KTooLarge(f"k={k} exceeds {n} points")
    if k < 1:
        raise SvkitError(f"k={k} must be >= 1")
    if batch_size < 1:
        raise SvkitError(f"batch_size={batch_size} must be >= 1")
    if n_batches is None:
        n_batches = -(-10 * n // batch_size)
    if n_batches < 1:
        raise SvkitError(f"n_batches={n_batches} must be >= 1")

    rng = np.random.default_rng(check_seed(seed))
    centers = X[rng.choice(n, size=k, replace=False)]
    counts = np.zeros(k, dtype=np.int64)

    # a batch is its drawn row indices: the search and the sums read X
    # through them, so no batch x dim copy is made
    for _ in range(n_batches):
        rows = rng.integers(0, n, size=min(batch_size, n))
        # a row drawn again has the same nearest center: search each
        # distinct row once and scatter back in batch order
        distinct, inverse = np.unique(rows, return_inverse=True)
        assign = _nearest(X, centers, distinct)[inverse]
        m = np.bincount(assign, minlength=k)
        hit = np.flatnonzero(m)
        prior = counts[hit]
        # the running mean (prior c + sums) / (prior + m), formed in one
        # gathered copy of the hit centers
        moved = centers[hit]
        moved *= prior[:, None]
        moved += _group_sums(assign, X, k, rows)[hit]
        moved /= (prior + m[hit])[:, None]
        centers[hit] = moved
        counts += m

    empty = np.where(counts == 0)[0]
    if empty.size:
        # reseed dead centers with the worst-fit points of the last batch;
        # the fit is taken `_SEARCH_BLOCK` rows at a time and only the
        # picked points are gathered, so no batch x dim array is built
        fit = np.empty(len(rows))
        for lo in range(0, len(rows), _SEARCH_BLOCK):
            hi = lo + _SEARCH_BLOCK
            diff = X[rows[lo:hi]] - centers[assign[lo:hi]]
            fit[lo:hi] = np.einsum("ij,ij->i", diff, diff)
        order = np.argsort(-fit, kind="stable")
        for i, c in enumerate(empty[: order.size]):
            centers[c] = X[rows[order[i]]]
            counts[c] = 1

    nearest, d2 = _nearest(X, centers, distances=True)
    return KMeansModel(centers, counts, float(d2.sum())), nearest


# squared distances below this are recomputed from the difference vector:
# 2 - 2 u.v carries an absolute error of about 1e-15, so it would give
# exact duplicates a distance of about 1e-8 instead of 0, while at
# d^2 >= 1e-6 the error in d stays below about 5e-13
_CLOSE_SQ = 1e-6


def _unit_distances(unit):
    """The condensed Euclidean distances of the unit-length rows, in
    scipy's pdist order: d^2 = 2 - 2 u.v from one gemm per block of rows
    of at most `_PAIR_BLOCK` distances, pairs closer than `_CLOSE_SQ`
    recomputed from their difference vectors."""
    k = len(unit)
    y = np.empty(k * (k - 1) // 2)
    step = max(1, _PAIR_BLOCK // k)
    pos = 0
    for lo in range(0, k - 1, step):
        hi = min(lo + step, k - 1)
        # rows lo .. hi-1 against columns lo .. k-1: a row's pairs are the
        # columns right of the block's diagonal
        d2 = np.matmul(unit[lo:hi], unit[lo:].T)
        d2 *= -2.0
        d2 += 2.0
        r, c = np.nonzero(np.triu(d2 < _CLOSE_SQ, 1))
        diff = unit[lo + r] - unit[lo + c]
        d2[r, c] = np.einsum("ij,ij->i", diff, diff)
        for row in range(hi - lo):
            n = k - lo - row - 1
            y[pos:pos + n] = d2[row, row + 1:]
            pos += n
    np.maximum(y, 0.0, out=y)
    return np.sqrt(y, out=y)


def _ward_linkage(centers):
    """scipy's Ward linkage of the length-normalized centers; (0, 4) for a
    single center. The distances come from `_unit_distances`; scipy only
    runs the merges."""
    norms = np.linalg.norm(centers, axis=1)
    if np.any(norms == 0):
        raise SvkitError("zero-norm center cannot be normalized")
    if len(centers) == 1:
        return np.empty((0, 4))
    # imported here: only clustering pays for scipy.cluster's import
    from scipy.cluster.hierarchy import linkage
    return linkage(_unit_distances(centers / norms[:, None]), method="ward")


def _cut(Z, num_clusters):
    """Center labels in [0, num_clusters) of the maxclust cut of linkage Z
    over len(Z) + 1 centers."""
    k = len(Z) + 1
    if not (hasattr(num_clusters, "__index__") and 1 <= num_clusters <= k):
        raise SvkitError(
            f"num_clusters={num_clusters} must be an integer in [1, {k}]")
    if k == 1:
        return np.zeros(1, dtype=np.int64)
    from scipy.cluster.hierarchy import fcluster
    labels = fcluster(Z, t=num_clusters, criterion="maxclust") - 1
    return labels.astype(np.int64)


def ahc_ward(centers, num_clusters):
    """Ward AHC over length-normalized centers, cut to num_clusters flat
    clusters. Returns (linkage, center_labels), where linkage is scipy's
    (k-1, 4) matrix: row i merges nodes Z[i, 0] and Z[i, 1] at height
    Z[i, 2] into node k+i of Z[i, 3] centers; leaves are 0..k-1."""
    centers = np.asarray(centers, dtype=np.float64)
    if centers.ndim != 2 or centers.shape[0] == 0:
        raise EmptyInput("no centers to cluster")
    if not np.all(np.isfinite(centers)):
        raise SvkitError("centers must be finite")
    Z = _ward_linkage(centers)
    return Z, _cut(Z, num_clusters)


def _nearest_centers(emb_set: EmbeddingSet, kmeans: KMeansModel):
    """Each utterance's nearest k-means center, the part of an assignment
    that no AHC cut changes."""
    if emb_set.dim != kmeans.centers.shape[1]:
        raise DimMismatch(
            f"embeddings are {emb_set.dim}-dim, centers "
            f"{kmeans.centers.shape[1]}-dim"
        )
    return _nearest(emb_set.vectors, kmeans.centers)


def _labeling(ids, nearest, unit, center_labels) -> PseudoLabeling:
    """Utterance labels through their nearest centers' AHC labels, and the
    per-cluster means of the normalized embeddings."""
    num_clusters = int(center_labels.max()) + 1
    labels = center_labels[nearest]
    assignment = dict(zip(ids, labels.tolist()))
    prototypes = _group_sums(labels, unit, num_clusters)
    sizes = np.bincount(labels, minlength=num_clusters)
    nonzero = sizes > 0
    prototypes[nonzero] /= sizes[nonzero, None]
    return PseudoLabeling(assignment, prototypes)


def assign_pseudo_labels(emb_set: EmbeddingSet, kmeans: KMeansModel,
                         center_labels) -> PseudoLabeling:
    """Utterance -> nearest k-means center -> that center's AHC cluster;
    prototypes are the per-cluster means of the normalized embeddings."""
    center_labels = np.asarray(center_labels, dtype=np.int64)
    if center_labels.shape != (kmeans.k,):
        raise SvkitError("center_labels length mismatch")
    if np.any(center_labels < 0):
        raise SvkitError("center_labels must be nonnegative")
    return _labeling(emb_set.ids, _nearest_centers(emb_set, kmeans),
                     _normalize_rows(emb_set.vectors, emb_set.ids),
                     center_labels)


def prototype_scores(labeling: PseudoLabeling, trials):
    """Score = cosine of the two utterances' cluster prototypes (0 for an
    empty cluster's zero prototype), in bounded memory (`_row_dots`)."""
    protos = labeling.prototypes
    norms = np.linalg.norm(protos, axis=1, keepdims=True)
    unit = np.divide(protos, norms, out=np.zeros_like(protos),
                     where=norms > 0)
    return ScoreSet(trials, _row_dots(
        unit, _trial_rows(labeling.assignment, trials, trials._enroll),
        unit, _trial_rows(labeling.assignment, trials, trials._test)))


def sweep_cluster_count(emb_set: EmbeddingSet, kmeans: KMeansModel,
                        k_values, eval_trials):
    """EER of prototype-agreement scoring for each AHC cut; returns
    ([(K, eer)], best_K) with ties going to the smaller K.

    The Ward linkage, the nearest centers and the normalized embeddings
    are computed once per call; each cut only relabels and re-averages
    them.

    best_K is biased upward: finer clusters give prototype agreement a
    lower EER even past the true speaker count, so unless the clustering
    is near perfect the sweep picks the largest K tried. On 200 speakers
    x 20 utterances at concentration 6 the EERs at K = 67, 200 and 600
    are 13.98%, 10.12% and 5.54%. Read the rows, not best_K alone.
    """
    k_values = list(k_values)
    if not k_values:
        raise SvkitError("k_values must be nonempty")
    Z = _ward_linkage(kmeans.centers)
    nearest = _nearest_centers(emb_set, kmeans)
    unit = _normalize_rows(emb_set.vectors, emb_set.ids)
    rows = []
    for K in k_values:
        labeling = _labeling(emb_set.ids, nearest, unit, _cut(Z, K))
        rows.append((K, _metrics.eer(prototype_scores(labeling, eval_trials))))
    best_k = min(rows, key=lambda r: (r[1], r[0]))[0]
    return rows, best_k


# ---------------------------------------------------------------------------
# iteration driver

def greedy_label_match(prev: dict, curr: dict):
    """Greedy maximum-overlap matching of current cluster labels onto the
    previous iteration's labels. Returns (mapping curr->prev label,
    agreement fraction).

    Label pairs are matched by decreasing overlap, ties by (curr, prev)
    label, from the contingency table of the two labelings
    (`metrics._contingency`); an utterance agrees when its pair is
    matched."""
    c_labels, p_labels, cell_c, cell_p, cells = _metrics._contingency(
        list(curr.values()), list(map(prev.__getitem__, curr)))
    mapping = {}
    taken = set()
    agree = 0
    # the cells are in (curr, prev) order, which a stable sort keeps
    # among equal overlaps
    order = np.argsort(-cells, kind="stable")
    for c, p, count in zip(cell_c[order].tolist(), cell_p[order].tolist(),
                           cells[order].tolist()):
        if c in mapping or p in taken:
            continue
        mapping[c] = p
        taken.add(p)
        agree += count
    return ({c_labels[c]: p_labels[p] for c, p in mapping.items()},
            agree / len(curr))


@dataclass
class IterationRecord:
    iteration: int
    labeling: PseudoLabeling
    eer: float | None = None
    agreement_with_prev: float | None = None


def identity_refresher(emb_set, labeling):
    return emb_set


def make_prototype_pull_refresher(pull=0.2):
    """Refresher that moves each embedding `pull` of the way toward its
    cluster prototype and re-normalizes (stand-in for network retraining)."""
    if not 0.0 <= pull <= 1.0:
        raise SvkitError(f"pull={pull} must be in [0, 1]")

    def refresh(emb_set, labeling):
        rows = _rows(labeling.assignment, emb_set.ids)
        pulled = pull * labeling.prototypes
        vecs = (1.0 - pull) * emb_set.vectors
        for lo in range(0, len(vecs), _ROW_BLOCK):
            vecs[lo:lo + _ROW_BLOCK] += pulled[rows[lo:lo + _ROW_BLOCK]]
        return emb_set.with_vectors(
            _normalize_rows(vecs, emb_set.ids, out=vecs))

    return refresh


def iterate(emb_set: EmbeddingSet, refresher, k_centers, num_clusters,
            batch_size=10000, eval_trials=None, max_iters=7,
            eer_tol=0.001, seed=0):
    """Repeated cluster -> label -> prototype cycles with an external
    embedding refresher between them.

    Labels are permuted between iterations; `agreement_with_prev` reports
    matched-label agreement via greedy maximum-overlap matching. Stops early
    when the evaluation EER improves by less than eer_tol absolute.
    k-means is re-run from scratch each cycle with a seed derived from the
    iteration index.
    """
    if max_iters < 1:
        raise SvkitError(f"max_iters={max_iters} must be >= 1")
    check_seed(seed)
    id_set = set(emb_set.ids)
    records = []
    prev_assignment = None
    prev_eer = None
    current = emb_set
    for it in range(max_iters):
        it_seed = np.random.SeedSequence([seed, it]).generate_state(1)[0]
        km, nearest = _kmeans(current, k_centers, batch_size, None, it_seed)
        center_labels = _cut(_ward_linkage(km.centers), num_clusters)
        labeling = _labeling(current.ids, nearest,
                             _normalize_rows(current.vectors, current.ids),
                             center_labels)

        rec = IterationRecord(it, labeling)
        if prev_assignment is not None:
            _, rec.agreement_with_prev = greedy_label_match(
                prev_assignment, labeling.assignment
            )
        if eval_trials is not None:
            rec.eer = _metrics.eer(prototype_scores(labeling, eval_trials))
        records.append(rec)

        if (prev_eer is not None and rec.eer is not None
                and prev_eer - rec.eer < eer_tol):
            break
        prev_eer = rec.eer
        prev_assignment = labeling.assignment

        if it + 1 < max_iters:
            current = refresher(current, labeling)
            if set(current.ids) != id_set:
                raise IdSetChanged("refresher changed the utterance id set")
    return records


# ---------------------------------------------------------------------------
# files

def write_labels(assignment: dict, path):
    """Text `utt_id cluster_index` per line; each id must be one field."""
    _check_text_ids(path, assignment)
    with open(path, "w", encoding="utf-8") as f:
        for utt_id, c in assignment.items():
            f.write(f"{utt_id} {int(c)}\n")


def _label_row(parts):
    if len(parts) != 2:
        raise ValueError("expected `utt_id cluster_index`")
    label = int(parts[1])
    if label < 0:
        raise ValueError(f"negative cluster index {label}")
    return label


def read_labels(path) -> dict:
    def rows():
        with _reading(path) as f:
            for lineno, line in enumerate(f, 1):
                parts = line.split()
                if parts:
                    yield lineno, parts[0], parts

    return _keyed_rows(path, rows(), _label_row)


def write_kmeans(model: KMeansModel, path):
    """Binary, the embedding file's header with magic "SVKM" and count k;
    then k*d f32 centers, then k u64 counts."""
    k, d = model.centers.shape
    with open(path, "wb") as f:
        _write_header(f, _KM_MAGIC, d, k)
        f.write(model.centers.astype("<f4").tobytes())
        f.write(model.counts.astype("<u8").tobytes())


def read_kmeans(path) -> KMeansModel:
    with open(path, "rb") as f:
        # a center is dim f32s and its u64 count
        d, k = _read_header(f, path, _KM_MAGIC, 8, "centers")
        centers_raw = f.read(4 * k * d)
        if len(centers_raw) < 4 * k * d:
            raise TruncatedFile(f"{path}: centers truncated")
        counts_raw = f.read(8 * k)
        if len(counts_raw) < 8 * k:
            raise TruncatedFile(f"{path}: counts truncated")
        if f.read(1):
            raise SvkitError(f"{path}: trailing bytes")
    # astype after the reshape: the model keeps an array that owns its
    # data, where a view of a writable array would be copied
    centers = np.frombuffer(centers_raw, dtype="<f4").reshape(k, d)
    counts = np.frombuffer(counts_raw, dtype="<u8").astype(np.int64)
    try:
        return KMeansModel(centers.astype(np.float64), counts)
    except SvkitError as e:
        raise SvkitError(f"{path}: {e}") from None
