"""Trial scoring, imposter cohorts, adaptive s-normalization and fusion."""

from __future__ import annotations

import functools
import weakref
from array import array
from collections import defaultdict
from itertools import compress, count, islice, repeat

import numpy as np

from .embeddings import (
    _ROW_BLOCK,
    EmbeddingSet,
    _check_text_ids,
    _frozen,
    _id_array,
    _intern,
    _line_blocks,
    _reading,
    _row_norms,
    _sorted_codes,
    _used,
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
    """Ordered (enroll_id, test_id, label) triples.

    Each distinct id is held once: `_ids` is the sorted table of the ids
    of both sides, and `_enroll` / `_test` hold each trial's two codes,
    its ids' positions in that table (read-only int32). `enroll_ids` and
    `test_ids` are lists built from them on first use, holding one string
    object per distinct id.
    """

    def __init__(self, enroll_ids, test_ids, labels=None):
        enroll_ids, test_ids = list(enroll_ids), list(test_ids)
        if len(enroll_ids) != len(test_ids):
            raise SvkitError("enroll/test id lists disagree in length")
        n = len(enroll_ids)
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
        ids, codes = _intern(enroll_ids + test_ids)
        self._take(ids, codes[:n], codes[n:], labels)

    @classmethod
    def _coded(cls, ids, enroll, test, labels):
        """The TrialList of the int32 codes `enroll` and `test` into `ids`,
        the sorted table of the distinct ids they use, and of the valid
        `labels`; the arrays are held as they are."""
        trials = cls.__new__(cls)
        trials._take(ids, enroll, test, labels)
        return trials

    def _take(self, ids, enroll, test, labels):
        self._ids, self._enroll, self._test = ids, enroll, test
        self.labels = np.asarray(labels, dtype=np.int8)
        for a in (enroll, test, self.labels):
            a.setflags(write=False)

    @functools.cached_property
    def enroll_ids(self):
        return _id_array(self._ids)[self._enroll].tolist()

    @functools.cached_property
    def test_ids(self):
        return _id_array(self._ids)[self._test].tolist()

    def __len__(self):
        return len(self._enroll)

    def __iter__(self):
        return zip(self.enroll_ids, self.test_ids, self.labels)

    def same_trials(self, other):
        return (self._ids == other._ids
                and np.array_equal(self._enroll, other._enroll)
                and np.array_equal(self._test, other._test))


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


def _rows(index, ids):
    """Rows of `ids` in the id -> row dict `index`, in one C-level pass."""
    try:
        return np.fromiter(map(index.__getitem__, ids), np.intp, len(ids))
    except KeyError as e:
        raise UnknownId(f"unknown utterance id '{e.args[0]}'") from None


def _trial_rows(index, trials, codes, missing="unknown utterance id"):
    """index[u] (a row >= 0) for the id u of each code in `codes`, one
    side of `trials`, looked up once per id of its table; UnknownId names
    the first trial whose id `index` lacks."""
    ids = trials._ids
    rows = np.fromiter(map(index.get, ids, repeat(-1)), np.intp,
                       len(ids))[codes]
    bad = np.flatnonzero(rows < 0)
    if bad.size:
        raise UnknownId(f"{missing} '{ids[codes[bad[0]]]}'")
    return rows


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
        enroll.vectors, _trial_rows(enroll._index, trials, trials._enroll),
        test.vectors, _trial_rows(test._index, trials, trials._test)))


def _topn_desc(scores, n):
    """The n largest entries of each row of `scores`, in descending order,
    as a view of `scores`, which is partitioned and sorted in place.

    A partition keeps the top n, so only n values per row are sorted. The
    ordered top-n values are the same whichever tied entry is kept, so any
    statistic of them is independent of tie-breaking.

    Up to half the row, the partition runs on the rows' bits read as int64
    keys, which numpy partitions faster than doubles. A double >= +0.0
    orders like its key, and every other double (negative, or -0.0) has a
    negative key, below all of those. So a row whose kept keys are all
    >= 0 kept its n largest doubles; a row that kept a negative key (fewer
    than n scores >= +0.0) is partitioned again as doubles, in place. A
    top n over more than half the row would often need that, so it is
    taken on the doubles alone.
    """
    m = scores.shape[1]
    if 2 * n <= m:
        keys = scores.view(np.int64)
        keys.partition(m - n, axis=1)
        for i in np.flatnonzero(keys[:, m - n] < 0).tolist():
            scores[i].partition(m - n)
    elif n < m:
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


def _side_rows(trials, enroll, test, per_utt):
    """Per-trial enroll and test rows of `per_utt(emb_set, ids)` (one row
    per id), run once over the ids of each side in sorted order, or once
    over the trials' table when enroll is test, then gathered by code. Sets
    of different dims raise DimMismatch naming both, before any row is
    computed."""
    _check_same_dim(enroll, test)
    if enroll is test:
        rows = per_utt(enroll, trials._ids)
        return rows[trials._enroll], rows[trials._test]
    e_ids, inv_e = _used(trials._ids, trials._enroll)
    t_ids, inv_t = _used(trials._ids, trials._test)
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
    sixth of the time the call then saves. Nothing is kept while the
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
    """The columns (sequences or arrays of one length) interleaved row by
    row into one flat list, for one `%` format over a block of lines; an
    array's values become Python objects, as `tolist` makes them."""
    flat = np.empty((len(columns[0]), len(columns)), dtype=object)
    for i, column in enumerate(columns):
        flat[:, i] = column
    return flat.ravel().tolist()


def _check_trial_ids(path, trials):
    """`_check_text_ids` over the trials' ids in line order, testing each
    id of their table once."""
    if not all(u.split() == [u] for u in trials._ids):
        _check_text_ids(path, trials.enroll_ids, trials.test_ids)


def write_trials(trials: TrialList, path):
    """Text, one per line: `enroll_id test_id [1|0]` (label omitted when
    unknown), `_RECORD_BLOCK` lines at a time; each id must be one field."""
    _check_trial_ids(path, trials)
    labels = trials.labels
    line = {lab: f"%s %s {lab}\n" for lab in np.unique(labels).tolist()}
    line[UNKNOWN] = "%s %s\n"
    ids, e, t = _id_array(trials._ids), trials._enroll, trials._test

    def block(lo, hi):
        return ("".join(map(line.__getitem__, labels[lo:hi].tolist()))
                % tuple(_flat(ids[e[lo:hi]], ids[t[lo:hi]])))

    _write_blocks(path, len(labels), block)


# ASCII whitespace but the newline, mapped to a space, and every other
# byte, deleted, leave a block's whitespace skeleton
_SPACES = bytes.maketrans(b"\t\x0b\x0c\r\x1c\x1d\x1e\x1f", b" " * 8)
_NOT_SPACE = bytes(b for b in range(256) if b > 127 or not chr(b).isspace())
# a block's bytes to 2 for a newline, 0 for other whitespace, 1 for the
# bytes of fields
_CLASSES = bytes(2 if b == 10 else int(b > 127 or not chr(b).isspace())
                 for b in range(256))
# the whitespace beyond ASCII that `str.split` splits on
_WIDE_SPACE = ("\x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006"
               "\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000")


def _fields(block):
    """(fields, sizes): the fields of `block`, which are those of its lines
    in turn, and a byte a line giving its number of fields where that is
    0, 2 or 3, the sizes of blank, trial and score lines; a line of any
    other size gives at least one byte outside those.

    The block's whitespace skeleton (each separator a space, each line
    end a newline) gives the sizes when the block is tight, as the
    writers write: each field parted from the next on its line by one
    whitespace character, and no line blank or starting or ending in
    whitespace. A line of f fields holds at least f - 1 separators and
    its line end, so as many skeleton characters as fields means a tight
    block, whose line of f fields is f - 1 spaces and its newline. Any
    other block counts each line's field starts. Whitespace beyond ASCII
    is made a space first, which splits the lines as before."""
    if not block.isascii():
        for space in filter(block.__contains__, _WIDE_SPACE):
            block = block.replace(space, " ")
    fields = block.split()
    raw = block.encode()
    lines = block.count("\n")
    skeleton = raw.translate(_SPACES, _NOT_SPACE)
    if len(skeleton) == len(fields):
        k = len(fields) // lines
        if skeleton == (b" " * (k - 1) + b"\n") * lines:
            return fields, bytes([min(k, 255)]) * lines
        # a line of one field leaves its newline, one of four or more a
        # space
        return fields, skeleton.replace(b"  \n", b"\x03").replace(
            b" \n", b"\x02")
    # after a newline put first, each line's field starts, from the
    # newline before it
    classes = np.frombuffer((b"\n" + raw).translate(_CLASSES), np.uint8)
    field = classes == 1
    sizes = np.add.reduceat(field[1:] > field[:-1],
                            np.flatnonzero(classes[:-1] == 2), dtype=np.intp)
    return fields, np.minimum(sizes, 255).astype(np.uint8).tobytes()


def _malformed(path, lineno, block, kind, valid):
    """The SvkitError naming the first nonblank line of `block`, after
    `lineno` lines, whose fields `valid` rejects: a malformed `kind`
    line."""
    for lineno, parts in enumerate(map(str.split, block.split("\n")),
                                   lineno + 1):
        if parts and not valid(parts):
            return SvkitError(f"{path}:{lineno}: malformed {kind} line")


_LABELS = {"0": 0, "1": 1}
# a block's label fields, joined, to their int8 labels
_LABEL_BYTES = bytes.maketrans(b"01", b"\x00\x01")
# a block's field kinds (`_trial_fields`) to true for its labels, or ids
_LABEL_FIELD = bytes.maketrans(b"\x00\x01\x02", b"\x01\x00\x00")
_ID_FIELD = bytes.maketrans(b"\x02", b"\x01")


def _trial_line(parts):
    return len(parts) == 2 or len(parts) == 3 and parts[2] in _LABELS


def _trial_fields(block):
    """(ids, labels) of the trial lines of `block`: the enroll and test id
    of each trial in turn, and an int8 array of the labels, taken with
    C-level calls; None if a line is malformed (`_trial_line`)."""
    fields, sizes = _fields(block)
    n = len(fields)
    if sizes == b"\x03" * len(sizes):
        labels = "".join(fields[2::3])
        # one character a label, and each a 0 or a 1
        if len(labels) * 3 != n or labels.strip("01"):
            return None
        del fields[2::3]
        return fields, array("b", labels.encode().translate(_LABEL_BYTES))
    if sizes == b"\x02" * len(sizes):
        return fields, array("b", [UNKNOWN]) * (n // 2)
    if sizes.translate(None, b"\x00\x02\x03"):
        return None  # a line of one field, or of four or more
    # one character a field: \x01 for an id, or for the last id of a line
    # of two \x02, for a label \x00
    kinds = sizes.translate(None, b"\x00").replace(
        b"\x02", b"\x01\x02").replace(b"\x03", b"\x01\x01\x00")
    labels = "".join(compress(fields, kinds.translate(_LABEL_FIELD)))
    ends = kinds.translate(None, b"\x01")  # a line's last field
    if len(labels) != ends.count(0) or labels.strip("01"):
        return None
    out = np.full(len(ends), UNKNOWN, dtype=np.int8)
    out[np.frombuffer(ends, np.uint8) == 0] = np.frombuffer(
        labels.encode().translate(_LABEL_BYTES), np.int8)
    return list(compress(fields, kinds.translate(_ID_FIELD))), array(
        "b", out.tobytes())


def read_trials(path) -> TrialList:
    """Read a trial file a block of lines at a time (`_line_blocks`), each
    split, coded and label-checked with C-level calls (`_trial_fields`).
    The results and `path:lineno` errors are those of a reader that
    takes one line at a time. Each id gets a code when first
    seen and is kept as one `str` object, and the codes are renumbered in
    sorted id order at the end (`_sorted_codes`). So the list holds two
    int32 codes and a label byte a line beyond its distinct ids."""
    code = defaultdict(count().__next__)
    pairs, labels = array("i"), array("b")
    lineno = 0
    with _reading(path) as f:
        for block in _line_blocks(f):
            parsed = _trial_fields(block)
            if parsed is None:
                raise _malformed(path, lineno, block, "trial", _trial_line)
            ids, labs = parsed
            pairs.fromlist(list(map(code.__getitem__, ids)))
            labels += labs
            lineno += block.count("\n")
    ids, codes = _sorted_codes(code, np.frombuffer(pairs, np.int32))
    return TrialList._coded(ids, codes[0::2], codes[1::2], labels)


def write_scores(score_set: ScoreSet, path):
    """Text `enroll_id test_id score` at 9 significant digits, written
    `_RECORD_BLOCK` lines at a time; each id must be one field."""
    trials = score_set.trials
    _check_trial_ids(path, trials)
    ids, e, t = _id_array(trials._ids), trials._enroll, trials._test
    s = score_set.scores

    def block(lo, hi):
        return (("%s %s %.9g\n" * (hi - lo))
                % tuple(_flat(ids[e[lo:hi]], ids[t[lo:hi]], s[lo:hi])))

    _write_blocks(path, len(s), block)


def _score_line(parts):
    if len(parts) != 3:
        return False
    try:
        float(parts[2])
    except ValueError:
        return False
    return True


def _score_fields(block):
    """(enroll ids, test ids, scores) of the score lines of `block`, taken
    with C-level calls; None if a line is malformed (`_score_line`)."""
    fields, sizes = _fields(block)
    if sizes.translate(None, b"\x00\x03"):
        return None
    try:
        return fields[0::3], fields[1::3], list(map(float, fields[2::3]))
    except ValueError:
        return None


def _not_finite(path, i):
    """The SvkitError naming score line i (from 0) of the file at `path`,
    whose score is not finite: found by reading the file again, line by
    line, on this error path only."""
    with _reading(path) as f:
        lines = ((n, p) for n, p in enumerate(map(str.split, f), 1) if p)
        lineno, parts = next(islice(lines, i, None))
    return SvkitError(f"{path}:{lineno}: score '{parts[2]}' is not finite")


def read_scores(path, trials: TrialList) -> ScoreSet:
    """Read a score file that must align with `trials` (labels are taken
    from the trial list), a block of lines at a time as `read_trials`
    reads, checking each block's ids against those of its trials,
    gathered from the list's id table, and keeping only the scores. The
    first malformed line raises SvkitError naming `path:lineno`; else a
    file whose lines do not match the trial list raises MisalignedTrials;
    else the first score that is not finite raises SvkitError naming its
    line."""
    ids, n = _id_array(trials._ids), len(trials)
    vals = array("d")
    aligned = True
    lineno = 0
    with _reading(path) as f:
        for block in _line_blocks(f):
            parsed = _score_fields(block)
            if parsed is None:
                raise _malformed(path, lineno, block, "score", _score_line)
            lineno += block.count("\n")
            e, t, values = parsed
            if aligned:
                lo, hi = len(vals), len(vals) + len(values)
                aligned = (hi <= n
                           and e == ids[trials._enroll[lo:hi]].tolist()
                           and t == ids[trials._test[lo:hi]].tolist())
            vals.fromlist(values)
    if not aligned or len(vals) != n:
        raise MisalignedTrials(f"{path} does not match the trial list")
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise _not_finite(path, bad[0])
    return ScoreSet(trials, vals)
