"""Trial scoring, imposter cohorts, adaptive s-normalization and fusion."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .embeddings import EmbeddingSet, _metas, _reading
from .errors import (
    DegenerateCohort,
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
# rows of each utterance x cohort score block: bounds peak memory at
# O(_ROW_BLOCK x cohort) whatever the number of utterances
_ROW_BLOCK = 1024


@dataclass(frozen=True)
class Cohort:
    """Per-speaker mean embeddings. Means of unit vectors are deliberately
    NOT re-normalized, so inner-product and cosine comparisons differ."""

    speaker_ids: tuple
    means: np.ndarray  # (n_speakers, dim)

    def __len__(self):
        return len(self.speaker_ids)

    @property
    def dim(self):
        return self.means.shape[1]


class TrialList:
    """Ordered (enroll_id, test_id, label) triples."""

    def __init__(self, enroll_ids, test_ids, labels=None):
        self.enroll_ids = list(enroll_ids)
        self.test_ids = list(test_ids)
        if len(self.enroll_ids) != len(self.test_ids):
            raise SvkitError("enroll/test id lists disagree in length")
        n = len(self.enroll_ids)
        if labels is None:
            labels = np.full(n, UNKNOWN, dtype=np.int8)
        else:
            labels = np.asarray(labels, dtype=np.int8)
            if labels.shape != (n,):
                raise SvkitError("labels length mismatch")
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


def build_cohort(emb_set: EmbeddingSet) -> Cohort:
    """Mean of each speaker's (already length-normalized) embeddings, one
    vector per speaker, speakers in lexicographic order. A speaker whose
    embeddings cancel to a zero mean raises DegenerateCohort."""
    metas = _metas(emb_set, emb_set.ids, speaker=True)
    table, spk = _intern([m.speaker for m in metas])
    means = _group_sums(spk, emb_set.vectors, len(table))
    means /= np.bincount(spk)[:, None]
    zero = np.flatnonzero(~means.any(axis=1))
    if zero.size:
        raise DegenerateCohort(
            f"cohort speaker '{table[zero[0]]}' has a zero mean embedding")
    return Cohort(tuple(table), means)


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


def _group_sums(labels, rows, n_groups):
    """(n_groups, dim) sums of the `rows` of each group (labels in
    [0, n_groups)), as one one-hot CSR product. CSR adds each group's rows
    in row order starting from 0, as `np.add.at` does, so the sums are
    bit-identical to sequential addition; an empty group sums to 0."""
    n = len(labels)
    onehot = sparse.csr_matrix((np.ones(n), (labels, np.arange(n))),
                               shape=(n_groups, n))
    return onehot @ rows


def cosine_score(
    trials: TrialList, enroll: EmbeddingSet, test: EmbeddingSet | None = None
) -> ScoreSet:
    """Dot product of the (unit) enroll and test vectors, in bounded
    memory (`_row_dots`)."""
    if test is None:
        test = enroll
    return ScoreSet(trials, _row_dots(
        enroll.vectors, _rows(enroll._index, trials.enroll_ids),
        test.vectors, _rows(test._index, trials.test_ids)))


def _inner_product_matrix(vecs, cohort_means, out=None):
    """Inner product of each row of `vecs` with each cohort mean, written
    into `out` when given."""
    return np.matmul(vecs, cohort_means.T, out=out)


def _cosine_matrix(vecs, cohort_means, out=None):
    """Cosine of each row of `vecs` with each cohort mean, written into
    `out` when given. A zero-norm row raises ZeroVector with the row's
    position in `vecs` (`_cohort_stats` names its utterance)."""
    norms = np.linalg.norm(vecs, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ZeroVector(int(zero[0]))
    sims = _inner_product_matrix(vecs, cohort_means, out)
    sims /= norms[:, None]
    sims /= np.linalg.norm(cohort_means, axis=1)[None, :]
    return sims


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


def _cohort_stats(emb_set, ids, cohort: Cohort, top_n, similarity=None):
    """Mean and population std of the top_n (None: all) largest similarity
    scores of each utterance of `ids` against the cohort means.

    `similarity(vecs, means, out)` (default: `_cosine_matrix`) returns the
    score matrix of a block of rows, preferably written into `out`; the
    result is partitioned and sorted in place. Rows are gathered and scored
    `_ROW_BLOCK` at a time into one reused buffer, so memory stays
    O(_ROW_BLOCK x cohort) for any number of utterances. Only the multiset
    of the top_n values is used, so ties need no rule."""
    if top_n is None:
        top_n = len(cohort)
    similarity = similarity or _cosine_matrix
    if top_n < 1:
        raise SvkitError(f"top_n={top_n} must be >= 1")
    if top_n > len(cohort):
        raise TopNTooLarge(f"top_n={top_n} exceeds cohort size {len(cohort)}")
    rows = _rows(emb_set._index, ids)
    mu = np.empty(len(rows))
    sigma = np.empty(len(rows))
    buf = np.empty((min(len(rows), _ROW_BLOCK), len(cohort)))
    for lo in range(0, len(rows), _ROW_BLOCK):
        hi = lo + _ROW_BLOCK
        block = emb_set.vectors[rows[lo:hi]]
        try:
            sims = similarity(block, cohort.means, buf[:len(block)])
        except ZeroVector as e:
            raise ZeroVector(ids[lo + e.utt_id]) from None
        top = _topn_desc(sims, top_n)
        mu[lo:hi], sigma[lo:hi] = top.mean(axis=1), top.std(axis=1)
    return mu, sigma


def _intern(ids):
    """Sorted unique `ids` and each id's position in that table."""
    table = sorted(dict.fromkeys(ids))
    return table, _rows({u: i for i, u in enumerate(table)}, ids)


def _side_rows(trials, enroll, test, per_utt):
    """Per-trial enroll and test rows of `per_utt(emb_set, ids)` (one row
    per id), run once per unique utterance of each side, or once over the
    union of both sides when enroll is test, then gathered by trial."""
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
    cohort: Cohort,
    top_n: int | None = 100,
    similarity=None,
) -> ScoreSet:
    """Adaptive symmetric score normalization.

    Per trial with raw score s: take the enroll embedding's top_n largest
    cosine scores against the cohort and their mean/population-std
    (mu_e, sigma_e); same on the test side; return
    0.5 * ((s - mu_e) / sigma_e + (s - mu_t) / sigma_t). Ties among cohort
    scores do not matter: only the multiset of the top_n values is used.

    Statistics are computed once per unique utterance, in fixed row blocks,
    so memory stays O(block x cohort). top_n=None uses the whole cohort.
    `similarity` overrides the cohort scoring function (for property
    testing); it maps (vectors, cohort_means) to a score matrix, which is
    then partitioned and sorted in place.
    """
    if (len(cohort) if top_n is None else top_n) < 2:
        raise SvkitError("top_n must be >= 2")
    if similarity is not None:
        scores_of = similarity

        def similarity(vecs, means, out):
            return scores_of(vecs, means)

    def side_stats(emb_set, ids):
        mu, sigma = _cohort_stats(emb_set, ids, cohort, top_n, similarity)
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
    format over the whole file."""
    flat = [None] * sum(map(len, columns))
    for i, column in enumerate(columns):
        flat[i::len(columns)] = column
    return flat


def write_trials(trials: TrialList, path):
    """Text, one per line: `enroll_id test_id [1|0]` (label omitted when
    unknown)."""
    labels = trials.labels.tolist()
    line = {lab: f"%s %s {lab}\n" for lab in set(labels)}
    line[UNKNOWN] = "%s %s\n"
    with open(path, "w") as f:
        f.write("".join(map(line.__getitem__, labels))
                % tuple(_flat(trials.enroll_ids, trials.test_ids)))


_LABELS = {"0": 0, "1": 1}


def read_trials(path) -> TrialList:
    enroll, test, labels = [], [], []
    with _reading(path) as f:
        for lineno, parts in enumerate(map(str.split, f), 1):
            if len(parts) == 3 and parts[2] in _LABELS:
                lab = _LABELS[parts[2]]
            elif len(parts) == 2:
                lab = UNKNOWN
            elif not parts:
                continue
            else:
                raise SvkitError(f"{path}:{lineno}: malformed trial line")
            enroll.append(parts[0])
            test.append(parts[1])
            labels.append(lab)
    return TrialList(enroll, test, labels)


def write_scores(score_set: ScoreSet, path):
    """Text `enroll_id test_id score` at 9 significant digits."""
    trials = score_set.trials
    with open(path, "w") as f:
        f.write(("%s %s %.9g\n" * len(trials)) % tuple(_flat(
            trials.enroll_ids, trials.test_ids, score_set.scores.tolist())))


def read_scores(path, trials: TrialList | None = None) -> ScoreSet:
    """Read a score file; if `trials` is given, scores must align with it
    (labels are taken from the trial list). The first malformed line, or
    else the first score that is not finite, raises SvkitError naming
    `path:lineno`."""
    enroll, test, texts, blank = [], [], [], []
    bad_line = None
    with _reading(path) as f:
        for lineno, parts in enumerate(map(str.split, f), 1):
            if len(parts) == 3:
                enroll.append(parts[0])
                test.append(parts[1])
                texts.append(parts[2])
            elif parts:
                bad_line = lineno
                break
            else:
                blank.append(lineno)
    try:
        vals = np.fromiter(map(float, texts), np.float64, len(texts))
    except ValueError:  # a score before `bad_line`, if any, is not a number
        bad_line = _line_of(blank, next(
            i for i, text in enumerate(texts) if not _is_float(text)))
    if bad_line is not None:
        raise SvkitError(f"{path}:{bad_line}: malformed score line")
    if trials is None:
        trials = TrialList(enroll, test)
    elif enroll != trials.enroll_ids or test != trials.test_ids:
        raise MisalignedTrials(f"{path} does not match the trial list")
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        row = int(bad[0])
        raise SvkitError(f"{path}:{_line_of(blank, row)}: score "
                         f"'{texts[row]}' is not finite")
    return ScoreSet(trials, vals)


def _is_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def _line_of(blank_lines, row):
    """Line number of the `row`-th (from 0) non-blank line of a file whose
    blank lines are `blank_lines` (ascending)."""
    line = row + 1
    for blank in blank_lines:
        if blank > line:
            break
        line += 1
    return line
