"""Trial scoring, imposter cohorts, adaptive s-normalization and fusion."""

from __future__ import annotations

import math
import weakref
from array import array

import numpy as np

from .embeddings import (
    _ROW_BLOCK,
    EmbeddingSet,
    _check_text_ids,
    _frozen,
    _reading,
    _row_norms,
    _write_blocks,
)
from .errors import (
    DegenerateCohort,
    DimMismatch,
    MisalignedTrials,
    SvkitError,
    TopNTooLarge,
    UnknownId,
    ZeroVector,
)

TARGET = 1
NONTARGET = 0
UNKNOWN = -1

_SIGMA_FLOOR = 1e-12
# rows per slice of a block's cosine division in `_cohort_stats`: each
# slice is divided into a scratch of this many rows, a sixteenth of the
# block buffer, so the block keeps its raw inner products
_SCRATCH_ROWS = 16


class TrialList:
    """Ordered (enroll_id, test_id, label) triples."""

    def __init__(self, enroll_ids, test_ids, labels=None):
        self._take(list(enroll_ids), list(test_ids), labels)

    @classmethod
    def _adopt(cls, enroll_ids, test_ids, labels=None):
        """A TrialList that holds the two given lists themselves, without
        the constructor's copies: for fresh lists no caller keeps."""
        trials = cls.__new__(cls)
        trials._take(enroll_ids, test_ids, labels)
        return trials

    def _take(self, enroll_ids, test_ids, labels):
        self.enroll_ids = enroll_ids
        self.test_ids = test_ids
        if len(self.enroll_ids) != len(self.test_ids):
            raise SvkitError("enroll/test id lists disagree in length")
        n = len(self.enroll_ids)
        if labels is None:
            labels = np.full(n, UNKNOWN, dtype=np.int8)
        else:
            labels = np.asarray(labels)
            if labels.shape != (n,):
                raise SvkitError("labels length mismatch")
            bad = ~np.isin(labels, (UNKNOWN, NONTARGET, TARGET))
            if bad.any():
                raise SvkitError(f"label {labels[bad][0].item()!r} is not -1 "
                                 "(unknown), 0 or 1")
            labels = labels.astype(np.int8)
        self.labels = labels
        self.labels.setflags(write=False)

    def __len__(self):
        return len(self.enroll_ids)

    def __iter__(self):
        return zip(self.enroll_ids, self.test_ids, self.labels)

    def same_trials(self, other):
        return (
            self.enroll_ids == other.enroll_ids
            and self.test_ids == other.test_ids
        )


class ScoreSet:
    """Per-trial scores aligned with a TrialList."""

    def __init__(self, trials: TrialList, scores):
        scores = np.asarray(scores, dtype=np.float64)
        if scores.shape != (len(trials),):
            raise SvkitError("scores length mismatch with trial list")
        if not np.all(np.isfinite(scores)):
            raise SvkitError("scores must be finite")
        self.trials = trials
        self.scores = scores
        self.scores.setflags(write=False)

    def __len__(self):
        return len(self.trials)

    def with_scores(self, scores):
        return ScoreSet(self.trials, scores)


def build_cohort(emb_set: EmbeddingSet) -> EmbeddingSet:
    """One vector per speaker, keyed by speaker id in lexicographic order:
    the mean of its (already length-normalized) embeddings, deliberately
    NOT re-normalized, so inner-product and cosine comparisons differ. A
    speaker whose embeddings cancel to a zero mean raises DegenerateCohort."""
    meta = emb_set.meta
    table, spk = meta.speakers_at(meta.rows(emb_set.ids), emb_set.ids)
    means = _group_sums(spk, emb_set.vectors, len(table))
    means /= np.bincount(spk)[:, None]
    zero = np.flatnonzero(~means.any(axis=1))
    if zero.size:
        raise DegenerateCohort(
            f"cohort speaker '{table[zero[0]]}' has a zero mean embedding")
    return EmbeddingSet(table, means)


def _rows(index, ids, missing="unknown utterance id"):
    """Rows of `ids` in the id -> row dict `index`, in one C-level pass."""
    try:
        return np.fromiter(map(index.__getitem__, ids), np.intp, len(ids))
    except KeyError as e:
        raise UnknownId(f"{missing} '{e.args[0]}'") from None


def _row_dots(a, a_rows, b, b_rows):
    """a[a_rows[i]] . b[b_rows[i]] for every i, `_ROW_BLOCK` rows at a time:
    extra memory is O(_ROW_BLOCK x dim) for any number of rows, and as a
    row's dot product does not depend on its batch, the result is
    bit-identical to gathering every row at once."""
    out = np.empty(len(a_rows))
    for lo in range(0, len(a_rows), _ROW_BLOCK):
        hi = lo + _ROW_BLOCK
        np.einsum("ij,ij->i", a[a_rows[lo:hi]], b[b_rows[lo:hi]],
                  out=out[lo:hi])
    return out


def _group_sums(labels, vectors, n_groups, rows=None):
    """(n_groups, dim) sums of each group's rows (labels in
    [0, n_groups)): the vectors[rows[i]] with labels[i] == g, or the
    vectors[i] without `rows`, so a caller never gathers vectors[rows].
    One one-hot CSR product, built directly from a stable sort of the
    labels: each group lists its rows in their order in `labels`, and a
    repeated row stays a separate entry. CSR adds them in that order
    starting from 0, as `np.add.at` does, so the sums are bit-identical
    to sequential addition; an empty group sums to 0."""
    # imported here: only group sums pay for scipy.sparse's import
    from scipy import sparse
    order = np.argsort(labels, kind="stable")
    indptr = np.zeros(n_groups + 1, dtype=np.intp)
    np.cumsum(np.bincount(labels, minlength=n_groups), out=indptr[1:])
    onehot = sparse.csr_matrix(
        (np.ones(len(labels)), order if rows is None else rows[order],
         indptr), shape=(n_groups, len(vectors)))
    return onehot @ vectors


def _check_same_dim(enroll, test):
    if test.dim != enroll.dim:
        raise DimMismatch(
            f"enroll set is {enroll.dim}-dim, test set {test.dim}-dim")


def cosine_score(
    trials: TrialList, enroll: EmbeddingSet, test: EmbeddingSet | None = None
) -> ScoreSet:
    """Dot product of the (unit) enroll and test vectors, in bounded
    memory (`_row_dots`)."""
    if test is None:
        test = enroll
    _check_same_dim(enroll, test)
    return ScoreSet(trials, _row_dots(
        enroll.vectors, _rows(enroll._index, trials.enroll_ids),
        test.vectors, _rows(test._index, trials.test_ids)))


def _topn_desc(scores, n):
    """The n largest entries of each row of `scores`, in descending order,
    as a view of `scores`, which is partitioned and sorted in place.

    A partition keeps the top n, so only n values per row are sorted. The
    ordered top-n values are the same whichever tied entry is kept, so any
    statistic of them is independent of tie-breaking.
    """
    m = scores.shape[1]
    if n < m:
        scores.partition(m - n, axis=1)
        scores = scores[:, m - n:]
    np.negative(scores, out=scores)
    scores.sort(axis=1)
    return np.negative(scores, out=scores)


def _top_stats(scores, top_n, mu, sigma, lo):
    """mu and sigma from row lo on: the mean and population std of the
    top_n largest entries of each row of `scores` (partitioned in place)."""
    top = _topn_desc(scores, top_n)
    mu[lo:lo + len(top)] = top.mean(axis=1)
    sigma[lo:lo + len(top)] = top.std(axis=1)


def _cohort_stats(emb_set, ids, cohort: EmbeddingSet, top_n, metric):
    """Mean and population std of the top_n (None: all) largest scores of
    each utterance of `ids` against the cohort means, under the imposter
    `metric`, "cosine" or "inner_product"; any other name is an error.

    Rows are gathered `_ROW_BLOCK` at a time and their product with the
    means is written into one reused buffer. Under the cosine it is divided
    `_SCRATCH_ROWS` rows at a time, into a reused scratch, by the rows'
    norms and by the means' norms, which are computed once per call. The
    top_n are partitioned and sorted in place. So memory stays
    O(_ROW_BLOCK x cohort) for any number of utterances. Under the cosine a
    zero-norm row raises ZeroVector naming its utterance. Only the multiset
    of the top_n values is used, so ties need no rule.

    A cosine pass over ids that all have metadata (every QMF needs it),
    while neither vector matrix can be written (`_frozen`), also partitions
    the raw block, which the division left intact, and so gets the
    inner-product statistics of the same products. These are left on the
    set with a weakref to the cohort, the resolved top_n, `ids` and the
    set's vector matrix. Every call takes them off. An inner-product call
    with the same cohort object, top_n, ids and matrix, both matrices still
    frozen, returns them instead of making a pass; they are bit-identical
    to that pass, as its blocks are the same."""
    if metric not in ("inner_product", "cosine"):
        raise SvkitError(f"unknown imposter metric '{metric}'")
    if top_n is None:
        top_n = len(cohort)
    if top_n < 1:
        raise SvkitError(f"top_n={top_n} must be >= 1")
    if top_n > len(cohort):
        raise TopNTooLarge(f"top_n={top_n} exceeds cohort size {len(cohort)}")
    if emb_set.dim != cohort.dim:
        raise DimMismatch(
            f"embeddings are {emb_set.dim}-dim, cohort {cohort.dim}-dim")
    kept, emb_set._kept_stats = emb_set._kept_stats, None
    frozen = _frozen(emb_set.vectors) and _frozen(cohort.vectors)
    if (kept is not None and frozen and metric == "inner_product"
            and kept[0]() is cohort and kept[1] == top_n and kept[2] == ids
            and kept[3] is emb_set.vectors):
        return kept[4]
    cosine = metric == "cosine"
    if cosine:
        mean_norms = _row_norms(cohort.vectors)
    keep = cosine and frozen and all(map(emb_set.meta.__contains__, ids))
    rows = _rows(emb_set._index, ids)
    mu, sigma = np.empty(len(rows)), np.empty(len(rows))
    inner = (np.empty_like(mu), np.empty_like(mu)) if keep else (mu, sigma)
    buf = np.empty((min(len(rows), _ROW_BLOCK), len(cohort)))
    if cosine:
        scratch = np.empty((min(len(rows), _SCRATCH_ROWS), len(cohort)))
    for lo in range(0, len(rows), _ROW_BLOCK):
        hi = lo + _ROW_BLOCK
        block = emb_set.vectors[rows[lo:hi]]
        sims = np.matmul(block, cohort.vectors.T, out=buf[:len(block)])
        if cosine:
            norms = np.linalg.norm(block, axis=1)
            zero = np.flatnonzero(norms == 0.0)
            if zero.size:
                raise ZeroVector(ids[lo + int(zero[0])])
            for a in range(0, len(block), _SCRATCH_ROWS):
                part = sims[a:a + _SCRATCH_ROWS]
                cos = np.divide(part, norms[a:a + _SCRATCH_ROWS, None],
                                out=scratch[:len(part)])
                cos /= mean_norms[None, :]
                _top_stats(cos, top_n, mu, sigma, lo + a)
        if keep or not cosine:
            _top_stats(sims, top_n, *inner, lo)
    if keep:
        emb_set._kept_stats = (weakref.ref(cohort), top_n, ids,
                               emb_set.vectors, inner)
    return mu, sigma


def _intern(ids):
    """Sorted unique `ids` and each id's position in that table."""
    table = sorted(dict.fromkeys(ids))
    return table, _rows({u: i for i, u in enumerate(table)}, ids)


def _side_rows(trials, enroll, test, per_utt):
    """Per-trial enroll and test rows of `per_utt(emb_set, ids)` (one row
    per id), run once per unique utterance of each side, or once over the
    union of both sides when enroll is test, then gathered by trial. Sets
    of different dims raise DimMismatch naming both, before any row is
    computed."""
    _check_same_dim(enroll, test)
    if enroll is test:
        ids, inv = _intern(trials.enroll_ids + trials.test_ids)
        rows = per_utt(enroll, ids)
        n = len(trials)
        return rows[inv[:n]], rows[inv[n:]]
    e_ids, inv_e = _intern(trials.enroll_ids)
    t_ids, inv_t = _intern(trials.test_ids)
    return per_utt(enroll, e_ids)[inv_e], per_utt(test, t_ids)[inv_t]


def snorm(
    scores: ScoreSet,
    enroll: EmbeddingSet,
    test: EmbeddingSet,
    cohort: EmbeddingSet,
    top_n: int | None = 100,
) -> ScoreSet:
    """Adaptive symmetric score normalization.

    Per trial with raw score s: take the enroll embedding's top_n largest
    cosine scores against the cohort and their mean/population-std
    (mu_e, sigma_e); same on the test side; return
    0.5 * ((s - mu_e) / sigma_e + (s - mu_t) / sigma_t). Ties among cohort
    scores do not matter: only the multiset of the top_n values is used.

    Statistics are computed once per unique utterance, in fixed row blocks,
    so memory stays O(block x cohort). top_n=None uses the whole cohort.
    A set with metadata for each of its trial utterances also keeps their
    inner-product top_n means from the same products (see `_cohort_stats`).
    The next cohort pass over that set uses them if it is the pass of a
    `calibration.trial_qmfs` call under the inner product with the same
    trials, cohort object and top_n. Keeping them costs `snorm` one more
    top_n partition per block whether or not that call follows, about a
    fifth of the time the call then saves. Nothing is kept while the
    set's or the cohort's vectors can be written.
    """
    if (len(cohort) if top_n is None else top_n) < 2:
        raise SvkitError(
            f"top_n={top_n} must be >= 2 (cohort size {len(cohort)})")

    def side_stats(emb_set, ids):
        mu, sigma = _cohort_stats(emb_set, ids, cohort, top_n, "cosine")
        bad = np.flatnonzero(sigma < _SIGMA_FLOOR)
        if bad.size:
            raise DegenerateCohort(
                f"constant cohort scores for '{ids[bad[0]]}'")
        return np.column_stack([mu, sigma])

    e, t = _side_rows(scores.trials, enroll, test, side_stats)
    s = scores.scores
    return scores.with_scores(
        0.5 * ((s - e[:, 0]) / e[:, 1] + (s - t[:, 0]) / t[:, 1]))


def mean_fuse(score_sets) -> ScoreSet:
    """Per-trial arithmetic mean across systems on one trial list."""
    score_sets = list(score_sets)
    if not score_sets:
        raise SvkitError("need at least one score set to fuse")
    first = score_sets[0]
    for other in score_sets[1:]:
        if not first.trials.same_trials(other.trials):
            raise MisalignedTrials("score sets cover different trials")
    # anchor on the first system so fusing identical sets is exact
    deltas = np.mean([s.scores - first.scores for s in score_sets], axis=0)
    return first.with_scores(first.scores + deltas)


# ---------------------------------------------------------------------------
# trial / score files

def _flat(*columns):
    """The columns interleaved row by row into one flat list, for one `%`
    format over a block of lines."""
    flat = [None] * sum(map(len, columns))
    for i, column in enumerate(columns):
        flat[i::len(columns)] = column
    return flat


def write_trials(trials: TrialList, path):
    """Text, one per line: `enroll_id test_id [1|0]` (label omitted when
    unknown), `_RECORD_BLOCK` lines at a time; each id must be one field."""
    _check_text_ids(path, trials.enroll_ids, trials.test_ids)
    labels = trials.labels
    line = {lab: f"%s %s {lab}\n" for lab in np.unique(labels).tolist()}
    line[UNKNOWN] = "%s %s\n"
    e, t = trials.enroll_ids, trials.test_ids

    def block(lo, hi):
        return ("".join(map(line.__getitem__, labels[lo:hi].tolist()))
                % tuple(_flat(e[lo:hi], t[lo:hi])))

    _write_blocks(path, len(labels), block)


_LABELS = {"0": 0, "1": 1}


def read_trials(path) -> TrialList:
    """Read a trial file. A repeated id is kept as one `str` object, so the
    lists hold one string per distinct id, not two per line; the labels
    take one byte a line."""
    enroll, test, labels = [], [], array("b")
    one = {}.setdefault
    with _reading(path) as f:
        for lineno, parts in enumerate(map(str.split, f), 1):
            if len(parts) == 3 and parts[2] in _LABELS:
                e, t, lab = parts
                lab = _LABELS[lab]
            elif len(parts) == 2:
                e, t = parts
                lab = UNKNOWN
            elif not parts:
                continue
            else:
                raise SvkitError(f"{path}:{lineno}: malformed trial line")
            enroll.append(one(e, e))
            test.append(one(t, t))
            labels.append(lab)
    return TrialList._adopt(enroll, test, labels)


def write_scores(score_set: ScoreSet, path):
    """Text `enroll_id test_id score` at 9 significant digits, written
    `_RECORD_BLOCK` lines at a time; each id must be one field."""
    e, t = score_set.trials.enroll_ids, score_set.trials.test_ids
    _check_text_ids(path, e, t)
    s = score_set.scores

    def block(lo, hi):
        return (("%s %s %.9g\n" * (hi - lo))
                % tuple(_flat(e[lo:hi], t[lo:hi], s[lo:hi].tolist())))

    _write_blocks(path, len(s), block)


def read_scores(path, trials: TrialList) -> ScoreSet:
    """Read a score file that must align with `trials` (labels are taken
    from the trial list), in one pass that checks each line's ids against
    its trial and keeps only the scores. The first malformed line raises
    SvkitError naming `path:lineno`; else a file whose lines do not match
    the trial list raises MisalignedTrials; else the first score that is
    not finite raises SvkitError naming its line."""
    enroll, test = trials.enroll_ids, trials.test_ids
    n = len(enroll)
    vals = array("d")
    append, isfinite = vals.append, math.isfinite
    aligned, not_finite = True, None
    with _reading(path) as f:
        for lineno, parts in enumerate(map(str.split, f), 1):
            if not parts:
                continue
            try:
                e, t, text = parts
                v = float(text)
            except ValueError:
                raise SvkitError(
                    f"{path}:{lineno}: malformed score line") from None
            if aligned:
                i = len(vals)
                aligned = i < n and e == enroll[i] and t == test[i]
            if not_finite is None and not isfinite(v):
                not_finite = f"{path}:{lineno}: score '{text}' is not finite"
            append(v)
    if not aligned or len(vals) != n:
        raise MisalignedTrials(f"{path} does not match the trial list")
    if not_finite is not None:
        raise SvkitError(not_finite)
    return ScoreSet(trials, vals)
