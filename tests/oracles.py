"""Independent reference implementations used to check the library.

These deliberately recompute everything from the mathematical definitions
(explicit threshold sweeps, explicit per-trial statistics, central finite
differences) and never call the code paths they verify.
"""

import csv
import math
from collections import Counter
from types import SimpleNamespace

import numpy as np

from svkit.embeddings import UttMeta
from svkit.errors import (
    DuplicateId,
    InsufficientData,
    MisalignedTrials,
    SvkitError,
)


def _sweep_points(tar, non):
    tar = np.asarray(tar, dtype=np.float64)
    non = np.asarray(non, dtype=np.float64)
    distinct = np.unique(np.concatenate([tar, non]))
    thresholds = np.concatenate(
        [[distinct[0] - 1.0], distinct, [distinct[-1] + 1.0]]
    )
    p_miss = (tar[None, :] < thresholds[:, None]).sum(axis=1) / tar.size
    p_fa = (non[None, :] >= thresholds[:, None]).sum(axis=1) / non.size
    return p_miss, p_fa


def eer_oracle(tar, non):
    """Brute-force threshold sweep with linear interpolation at the
    miss/false-alarm crossing."""
    p_miss, p_fa = _sweep_points(tar, non)
    for i in range(len(p_miss)):
        diff = p_miss[i] - p_fa[i]
        if diff >= 0.0:
            if diff == 0.0:
                return float(p_miss[i])
            m1, f1 = p_miss[i - 1], p_fa[i - 1]
            m2, f2 = p_miss[i], p_fa[i]
            alpha = (f1 - m1) / ((f1 - m1) - (f2 - m2))
            return float(m1 + alpha * (m2 - m1))
    raise AssertionError("no crossing found")


def min_dcf_oracle(tar, non, p_target, c_miss=1.0, c_fa=1.0):
    p_miss, p_fa = _sweep_points(tar, non)
    best = math.inf
    for i in range(len(p_miss)):
        cost = (c_miss * p_target * p_miss[i]
                + c_fa * (1.0 - p_target) * p_fa[i])
        if cost < best:
            best = cost
    return float(best / min(c_miss * p_target, c_fa * (1.0 - p_target)))


def actual_dcf_oracle(tar, non, p_target, c_miss=1.0, c_fa=1.0):
    thr = math.log((c_fa * (1.0 - p_target)) / (c_miss * p_target))
    p_miss = sum(1 for s in tar if s < thr) / len(tar)
    p_fa = sum(1 for s in non if s >= thr) / len(non)
    cost = c_miss * p_target * p_miss + c_fa * (1.0 - p_target) * p_fa
    return cost / min(c_miss * p_target, c_fa * (1.0 - p_target))


def snorm_side_stats(cohort_scores, top_n):
    """Mean/population-std of the top_n scores from an explicit list."""
    ordered = sorted(
        range(len(cohort_scores)), key=lambda i: (-cohort_scores[i], i)
    )
    top = [cohort_scores[i] for i in ordered[:top_n]]
    mu = sum(top) / len(top)
    var = sum((x - mu) ** 2 for x in top) / len(top)
    return mu, math.sqrt(var)


def snorm_oracle(raw_score, enroll_cohort_scores, test_cohort_scores, top_n):
    mu_e, sig_e = snorm_side_stats(enroll_cohort_scores, top_n)
    mu_t, sig_t = snorm_side_stats(test_cohort_scores, top_n)
    return 0.5 * ((raw_score - mu_e) / sig_e
                  + (raw_score - mu_t) / sig_t)


def imposter_mean_oracle(vec, cohort_means, top_n=None):
    """Mean of the top_n inner-product cohort scores, from an explicitly
    sorted list with every sum taken exactly (math.fsum)."""
    scores = sorted(
        (math.fsum(float(x) * float(y) for x, y in zip(vec, m))
         for m in cohort_means),
        reverse=True,
    )
    if top_n is not None:
        scores = scores[:top_n]
    return math.fsum(scores) / len(scores)


def cosine_oracle(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def lloyd_kmeans(emb_set, k, max_iter=300, seed=0, init_centers=None):
    """Full-batch Lloyd k-means with brute-force distances; inertia is
    non-increasing per iteration. The reference for the mini-batch
    variant; returns centers, counts and inertia."""
    X = emb_set.vectors
    n = X.shape[0]
    if k > n:
        raise ValueError(f"k={k} exceeds {n} points")
    if init_centers is None:
        rng = np.random.default_rng(seed)
        centers = X[rng.choice(n, size=k, replace=False)].copy()
    else:
        centers = np.array(init_centers, dtype=np.float64)

    def sq_dists():
        return ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)

    assign = np.argmin(sq_dists(), axis=1)
    for _ in range(max_iter):
        for c in range(k):
            mask = assign == c
            if mask.any():
                centers[c] = X[mask].mean(axis=0)
        new_assign = np.argmin(sq_dists(), axis=1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    return SimpleNamespace(centers=centers,
                           counts=np.bincount(assign, minlength=k),
                           inertia=float(sq_dists().min(axis=1).sum()))


def nearest_center_oracle(points, centers):
    """Each point's nearest center (the first on a tie) and its squared
    distance, from explicit differences, one point at a time."""
    idx = np.empty(len(points), dtype=np.int64)
    d2 = np.empty(len(points))
    for i, x in enumerate(points):
        dists = ((centers - x) ** 2).sum(axis=1)
        idx[i] = np.argmin(dists)
        d2[i] = dists[idx[i]]
    return idx, d2


def calibration_trials_oracle(emb_set, per_class, seed=0):
    """Calibration trials from explicit candidate lists: for each duration
    class, targets then nontargets, every pair of a nested loop over the
    two buckets (ids in set order; within one bucket only pairs in
    lexicographic id order), then per_class / 2 of them drawn by
    `rng.choice` and kept in list order. A class short of pairs raises
    InsufficientData."""
    def bucket(u):
        d = emb_set.meta[u].duration_s
        return None if d < 2.0 else "short" if d < 6.0 else "long"

    def speaker(u):
        return emb_set.meta[u].speaker

    rng = np.random.default_rng(seed)
    need = per_class // 2
    enroll, test, labels = [], [], []
    for cls in ("short-short", "short-long", "long-long"):
        a_bucket, b_bucket = cls.split("-")
        a = [u for u in emb_set.ids if bucket(u) == a_bucket]
        b = [u for u in emb_set.ids if bucket(u) == b_bucket]
        for target in (True, False):
            pairs = [(x, y) for x in a for y in b
                     if (speaker(x) == speaker(y)) == target
                     and (a_bucket != b_bucket or x < y)]
            if len(pairs) < need:
                kind = "target" if target else "nontarget"
                raise InsufficientData(
                    cls, f"need {need} {kind} pairs, have {len(pairs)}")
            for i in np.sort(rng.choice(len(pairs), size=need,
                                        replace=False)):
                enroll.append(pairs[i][0])
                test.append(pairs[i][1])
                labels.append(int(target))
    return enroll, test, labels


def fd_gradient(fn, x, h=1e-6):
    """Central finite-difference gradient of scalar fn over a flat copy of
    x (any shape)."""
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        fp = fn(x)
        x[idx] = orig - h
        fm = fn(x)
        x[idx] = orig
        grad[idx] = (fp - fm) / (2.0 * h)
    return grad


def max_rel_err(analytic, numeric):
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    denom = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-8)
    return float(np.abs(analytic - numeric).max() / denom)


def ari_oracle(labels_a, labels_b):
    """Pair-counting ARI over all item pairs."""
    ids = sorted(labels_a)
    same_a = same_b = same_both = 0
    n_pairs = 0
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            n_pairs += 1
            sa = labels_a[ids[i]] == labels_a[ids[j]]
            sb = labels_b[ids[i]] == labels_b[ids[j]]
            same_a += sa
            same_b += sb
            same_both += sa and sb
    expected = same_a * same_b / n_pairs
    max_index = 0.5 * (same_a + same_b)
    if max_index == expected:
        return 1.0
    return (same_both - expected) / (max_index - expected)


def ari_count_oracle(labels_a, labels_b):
    """`ari_oracle`'s pair counts taken from Counters of the labels and of
    the label pairs (c items share a label in c (c - 1) / 2 pairs), for
    partitions too large for a loop over all item pairs."""
    def pairs(counter):
        return sum(c * (c - 1) // 2 for c in counter.values())

    n = len(labels_a)
    same_a = pairs(Counter(labels_a.values()))
    same_b = pairs(Counter(labels_b.values()))
    same_both = pairs(Counter((a, labels_b[u]) for u, a in labels_a.items()))
    n_pairs = n * (n - 1) // 2
    expected = same_a * same_b / n_pairs
    max_index = 0.5 * (same_a + same_b)
    if max_index == expected:
        return 1.0
    return (same_both - expected) / (max_index - expected)


def greedy_match_oracle(prev, curr):
    """Greedy maximum-overlap matching from a Counter of (curr, prev)
    label pairs, taken by decreasing count, ties by (curr, prev) label;
    agreement counts the utterances whose labels are matched."""
    overlap = Counter((c, prev[u]) for u, c in curr.items())
    mapping, taken = {}, set()
    for (c, p), _ in sorted(overlap.items(), key=lambda kv: (-kv[1], kv[0])):
        if c not in mapping and p not in taken:
            mapping[c] = p
            taken.add(p)
    agree = sum(1 for u, c in curr.items() if mapping.get(c) == prev[u])
    return mapping, agree / len(curr)


def read_trials_oracle(path):
    """(enroll ids, test ids, labels) of a trial file, read one line at a
    time with universal newlines and fields split by `str.split`, or the
    SvkitError of its first malformed line."""
    enroll, test, labels = [], [], []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            parts = line.split()
            if len(parts) == 3 and parts[2] in ("0", "1"):
                label = int(parts[2])
            elif len(parts) == 2:
                label = -1
            elif not parts:
                continue
            else:
                raise SvkitError(f"{path}:{lineno}: malformed trial line")
            enroll.append(parts[0])
            test.append(parts[1])
            labels.append(label)
    return enroll, test, labels


def read_scores_oracle(path, enroll, test):
    """The scores of a score file read one line at a time against the
    trials (enroll[i], test[i]); errors in the order: the first malformed
    line, then MisalignedTrials, then the first score that is not
    finite."""
    rows = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            parts = line.split()
            if not parts:
                continue
            try:
                e, t, text = parts
                rows.append((e, t, text, float(text), lineno))
            except ValueError:
                raise SvkitError(
                    f"{path}:{lineno}: malformed score line") from None
    if [(e, t) for e, t, *_ in rows] != list(zip(enroll, test)):
        raise MisalignedTrials(f"{path} does not match the trial list")
    for _, _, text, value, lineno in rows:
        if not math.isfinite(value):
            raise SvkitError(f"{path}:{lineno}: score '{text}' is not finite")
    return [value for *_, value, _ in rows]


def csv_rows_oracle(path, header_ok, columns):
    """(lineno, utt_id, values of `columns`) of each data row of a CSV
    file, read by `csv.reader` one line at a time from the file opened
    with newline="", as `csv.DictReader` would pick them: blank rows
    skipped, "" for a column the header or a short row lacks, the last
    column of a repeated header name. A header row failing `header_ok`,
    or text that does not decode (named by its file offset), raises
    SvkitError."""
    try:
        with open(path, encoding="utf-8", newline="") as f:
            reader = csv.reader(f)
            header = next(reader, None)
            if not header_ok(header or []):
                raise SvkitError(f"{path}: bad header {header}")
            position = {name: i for i, name in enumerate(header)}
            at = [position["utt_id"], *(position.get(c) for c in columns)]
            rows = []
            for row in reader:
                if row:
                    picked = ["" if p is None or p >= len(row) else row[p]
                              for p in at]
                    rows.append((reader.line_num, picked[0],
                                 tuple(picked[1:])))
    except csv.Error as e:
        raise SvkitError(f"{path}: unreadable text ({e})") from None
    except UnicodeDecodeError:
        with open(path, "rb") as f:
            try:
                f.read().decode("utf-8")
            except UnicodeDecodeError as e:
                raise SvkitError(f"{path}: unreadable text ({e})") from None
    return rows


def _keyed_oracle(path, rows, parse):
    out = {}
    for lineno, key, values in rows:
        if key in out:
            raise DuplicateId(f"{path}:{lineno}: duplicate id '{key}'")
        try:
            out[key] = parse(*values)
        except (ValueError, SvkitError) as e:
            raise SvkitError(
                f"{path}:{lineno}: malformed row ({e})") from None
    return out


def read_metadata_oracle(path):
    """{utt_id: UttMeta} of a metadata CSV, each row parsed and checked
    by UttMeta in line order (`csv_rows_oracle`); the first repeated id
    or bad row raises, naming `path:lineno`."""
    rows = csv_rows_oracle(
        path, {"utt_id", "speech_frames", "duration_s"}.issubset,
        ("speech_frames", "duration_s", "speaker"))
    return _keyed_oracle(path, rows, lambda frames, duration, speaker:
                         UttMeta(int(frames), float(duration),
                                 speaker or None))


def read_qmf_cache_oracle(path):
    """{utt_id: (dur_q, imp_q)} of a QMF cache CSV, read as
    `read_metadata_oracle` reads; both values must be finite."""
    def parse(dur_q, imp_q):
        q = float(dur_q), float(imp_q)
        if not all(map(math.isfinite, q)):
            raise SvkitError("qmf values must be finite")
        return q

    rows = csv_rows_oracle(
        path, lambda names: names == ["utt_id", "dur_q", "imp_q"],
        ("dur_q", "imp_q"))
    return _keyed_oracle(path, rows, parse)
