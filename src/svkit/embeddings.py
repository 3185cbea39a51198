"""Embedding containers, file formats and the synthetic dataset generator.

On disk vectors are 32-bit floats (binary format below); in memory all math
runs in float64. Frame rate for duration <-> speech-frame conversion is fixed
at 100 frames/s (10 ms shift).

Binary embedding file layout (little-endian):
    magic "SVEB" | u32 version=1 | u32 dim | u64 count
    per record: u16 id_len | id (UTF-8) | dim * f32
The k-means model file (`clustering.write_kmeans`) shares the 20-byte
header with magic "SVKM".
"""

from __future__ import annotations

import codecs
import contextlib
import csv
import itertools
import math
import operator
import os
import struct
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadMagic,
    DuplicateId,
    MissingLabel,
    MissingMeta,
    SvkitError,
    TruncatedFile,
    UnknownId,
    ZeroVector,
    check_seed,
)

FRAME_RATE = 100.0  # VAD / feature frames per second

_MAGIC = b"SVEB"
_VERSION = 1
_HEADER = struct.Struct("<4sIIQ")  # magic, version, dim, count
_ID_LEN = struct.Struct("<H")
# records per block of file I/O: .svb records cast per write and converted
# per frombuffer, and text lines formatted per write, so a reader or
# writer holds one block beyond its in-memory result or input
_RECORD_BLOCK = 1024
# rows per block of the loops that bound memory by rows: the row
# normalizer here, the utterance x cohort score blocks and the trial row
# dot products in scoring. A block's temporaries stay in cache, and peak
# memory is O(_ROW_BLOCK x cohort) whatever the number of utterances.
_ROW_BLOCK = 256
# pairs per block of the loops over all pairs of a set: the candidate
# masks of calibration-trial generation and the Ward linkage's distance
# blocks. A block of up to 2^18 values stays in cache (2 MB of float64),
# and memory is O(_PAIR_BLOCK) beyond the loop's own result.
_PAIR_BLOCK = 1 << 18
# bytes per read when a text file is decoded again to name the offset of
# a byte that does not decode
_DECODE_CHUNK = 1 << 16


@dataclass(frozen=True, slots=True)
class UttMeta:
    """Per-utterance metadata: VAD speech-frame count, duration, speaker.
    The frame count is an integer in [0, 2**63), the range of the int64
    column a metadata table stores it in."""

    speech_frames: int
    duration_s: float
    speaker: str | None = None

    def __post_init__(self):
        frames = self.speech_frames
        # an int or a numpy integer; a bool is not a frame count
        if ((type(frames) is not int and not isinstance(frames, np.integer))
                or frames < 0):
            raise SvkitError(
                f"speech_frames={frames} must be a non-negative integer")
        if frames >= 2**63:
            raise SvkitError(f"speech_frames={frames} must be below 2**63")
        if not (math.isfinite(self.duration_s) and self.duration_s >= 0):
            raise SvkitError("duration_s must be finite and nonnegative")
        # allow half a frame of slack for rounding at the boundary
        if self.speech_frames > self.duration_s * FRAME_RATE + 0.5:
            raise SvkitError(
                f"speech_frames={self.speech_frames} inconsistent with "
                f"duration_s={self.duration_s} at {FRAME_RATE} fps"
            )


# UttMeta's slot setters: a metadata table fills the UttMeta of a row
# with them, which skips __init__'s check; the row's columns passed it
_set_frames = UttMeta.speech_frames.__set__
_set_duration = UttMeta.duration_s.__set__
_set_speaker = UttMeta.speaker.__set__


def _keeps_meta_rules(frames, durations):
    """True when every row of the int64 `frames` and float64 `durations`
    columns keeps UttMeta's rules. The frame bound is compared exactly, as
    Python compares an int with a float: an integer exceeds a float b
    exactly when it exceeds floor(b), and an integral float64 below 2**63
    converts to int64 exactly, where casting the frames to float64 would
    round them above 2**53."""
    if not ((frames >= 0).all() and np.isfinite(durations).all()
            and (durations >= 0).all()):
        return False
    with np.errstate(over="ignore"):  # an inf bound, as in Python
        bound = np.floor(durations * FRAME_RATE + 0.5)
    small = bound < 2.0**63  # no int64 exceeds a larger bound
    return not (frames[small] > bound[small].astype(np.int64)).any()


def _interned(speakers):
    """(codes, names): the distinct `speakers` in first-seen order, and
    each row's position in them."""
    names = list(dict.fromkeys(speakers))
    position = {s: i for i, s in enumerate(names)}
    return (np.fromiter(map(position.__getitem__, speakers), np.intp,
                        len(speakers)), names)


class _MetaTable(Mapping):
    """Read-only {utt_id: UttMeta} stored as columns aligned with its ids:
    `speech_frames` (int64), `duration_s` (float64) and `speaker_codes`,
    each row's position in `speakers`, which holds one entry per distinct
    speaker (None for no speaker). A lookup builds that row's UttMeta;
    gathers read the columns, whose write flags are cleared, at `rows`.
    The columns given must keep UttMeta's rules and the ids be unique."""

    __slots__ = ("_index", "speech_frames", "duration_s", "speaker_codes",
                 "speakers")

    def __init__(self, ids, speech_frames, duration_s, speaker_codes,
                 speakers):
        self._index = dict(zip(ids, range(len(speech_frames))))
        self.speech_frames = speech_frames
        self.duration_s = duration_s
        self.speaker_codes = speaker_codes
        self.speakers = tuple(speakers)
        for column in (speech_frames, duration_s, speaker_codes):
            column.setflags(write=False)

    def __reduce__(self):
        # rebuilt through the constructor, so the columns stay read-only
        return _MetaTable, (list(self._index), self.speech_frames,
                            self.duration_s, self.speaker_codes,
                            self.speakers)

    @classmethod
    def of(cls, meta):
        """`meta` itself when it is a table; else the table of a mapping
        of UttMeta (None: empty), made once. A value that is not a
        UttMeta raises SvkitError naming its id."""
        if isinstance(meta, _MetaTable):
            return meta
        meta = dict(meta or {})
        for utt_id, m in meta.items():
            if not isinstance(m, UttMeta):
                raise SvkitError(
                    f"metadata of '{utt_id}' is not a UttMeta: {m!r}")
        metas = list(meta.values())

        def column(name):
            return list(map(operator.attrgetter(name), metas))

        return cls(meta, np.array(column("speech_frames"), dtype=np.int64),
                   np.array(column("duration_s"), dtype=np.float64),
                   *_interned(column("speaker")))

    def __getitem__(self, utt_id):
        i = self._index[utt_id]
        m = object.__new__(UttMeta)
        _set_frames(m, self.speech_frames.item(i))
        _set_duration(m, self.duration_s.item(i))
        _set_speaker(m, self.speakers[self.speaker_codes.item(i)])
        return m

    def __iter__(self):
        return iter(self._index)

    def __len__(self):
        return len(self._index)

    def __contains__(self, utt_id):
        return utt_id in self._index

    def keys(self):
        return self._index.keys()

    def rows(self, ids):
        """The row of each of `ids`; MissingMeta names the first id that
        has none."""
        try:
            return np.fromiter(map(self._index.__getitem__, ids), np.intp,
                               len(ids))
        except KeyError as e:
            raise MissingMeta(e.args[0]) from None

    def speakers_at(self, rows, ids):
        """(table, codes): the distinct speakers of `rows` in
        lexicographic order, and each row's position in that table.
        MissingLabel names the first of `ids`, the rows' ids, whose row
        has no (or an empty) speaker."""
        codes = self.speaker_codes[rows]
        unlabeled = np.array([not s for s in self.speakers], dtype=bool)
        bad = np.flatnonzero(unlabeled[codes])
        if bad.size:
            raise MissingLabel(ids[bad[0]])
        used = np.bincount(codes, minlength=len(self.speakers)).nonzero()[0]
        order = sorted(used.tolist(), key=self.speakers.__getitem__)
        rank = np.empty(len(self.speakers), dtype=np.intp)
        rank[order] = np.arange(len(order))
        return [self.speakers[c] for c in order], rank[codes]


def _frozen(a):
    """True when neither `a` nor any array it is a view of can be written,
    so its values cannot change."""
    while isinstance(a, np.ndarray) and not a.flags.writeable:
        a = a.base
    return a is None


def _read_only(a):
    """`a` made read-only, or a read-only copy of it when it is a view of
    an array that can still be written, so that writes through that base
    cannot reach it. A frozen array (`_frozen`) or one that owns its data
    is kept."""
    if a.base is not None and not _frozen(a):
        a = a.copy()
    a.setflags(write=False)
    return a


class EmbeddingSet:
    """Ordered collection of same-dimension embeddings, immutable after load.

    Vectors are stored as a single read-only (n, dim) float64 matrix
    (`_read_only`: a view of an array that can still be written is
    copied). `meta` is a read-only mapping from a subset of the ids
    to UttMeta, stored as columns (`_MetaTable`): a table such as
    `read_metadata` returns is kept as it is, and a mapping of UttMeta is
    converted once.
    """

    def __init__(self, ids, vectors, meta=None):
        ids = list(ids)
        vectors = _checked_vectors(vectors, ids)
        index = {u: i for i, u in enumerate(ids)}
        if not all(index):
            raise SvkitError("utterance id must be non-empty")
        if len(index) < len(ids):
            dup = next(u for i, u in enumerate(ids) if index[u] != i)
            raise DuplicateId(f"duplicate utterance id '{dup}'")
        meta = _MetaTable.of(meta)
        unknown = meta.keys() - index.keys()
        if unknown:
            raise SvkitError(f"metadata for unknown ids: {sorted(unknown)[:5]}")
        self._take(ids, index, meta, vectors)

    def _take(self, ids, index, meta, vectors):
        self.ids = ids
        self.vectors = _read_only(vectors)
        self._meta = meta
        self._index = index
        # inner-product cohort statistics a cosine pass left for the next
        # pass over this set (`scoring._cohort_stats`)
        self._kept_stats = None

    def __reduce__(self):
        # rebuilt through the constructor: read-only arrays and no keep,
        # whose weakref does not pickle
        return EmbeddingSet, (self.ids, self.vectors, self._meta)

    @property
    def meta(self):
        return self._meta

    @property
    def dim(self):
        return self.vectors.shape[1]

    def __len__(self):
        return len(self.ids)

    def vector(self, utt_id):
        return self.vectors[self.index(utt_id)]

    def index(self, utt_id):
        try:
            return self._index[utt_id]
        except KeyError:
            raise UnknownId(f"unknown utterance id '{utt_id}'") from None

    def with_vectors(self, vectors):
        """New set with the same ids and replaced vectors, which are
        checked as the constructor checks them. It gets its own copy of
        this set's ids and shares its id index and metadata table, which
        are never changed after they are built, with no new check."""
        return self._with(_checked_vectors(vectors, self.ids))

    def _with(self, vectors):
        """`with_vectors` for vectors that already passed its checks."""
        new = object.__new__(EmbeddingSet)
        new._take(list(self.ids), self._index, self._meta, vectors)
        return new


def _checked_vectors(vectors, ids):
    """`vectors` as a float64 (len(ids), dim) matrix, dim >= 1 unless
    it has no rows; SvkitError on another shape, or naming the id of
    the first row that is not finite."""
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2:
        raise SvkitError(f"vectors must be an (n, dim) matrix, "
                         f"not of shape {vectors.shape}")
    if len(ids) != vectors.shape[0]:
        raise SvkitError("ids and vectors disagree in length")
    if vectors.shape[0] > 0 and vectors.shape[1] < 1:
        raise SvkitError("embedding dimension must be >= 1")
    for lo in range(0, len(vectors), _ROW_BLOCK):  # no n x dim mask
        bad = np.flatnonzero(
            ~np.isfinite(vectors[lo:lo + _ROW_BLOCK]).all(axis=1))
        if bad.size:
            raise SvkitError(
                f"embedding '{ids[lo + bad[0]]}' is not finite")
    return vectors


def _row_norms(vectors):
    """The Euclidean norm of each row of `vectors`, taken `_ROW_BLOCK`
    rows at a time, so no n x dim temporary is built. A row's norm does
    not depend on its block, so the norms are those of one whole call."""
    norms = np.empty(len(vectors))
    for lo in range(0, len(vectors), _ROW_BLOCK):
        norms[lo:lo + _ROW_BLOCK] = np.linalg.norm(
            vectors[lo:lo + _ROW_BLOCK], axis=1)
    return norms


def _normalize_rows(vectors, ids, out=None):
    """Each row of `vectors` divided by its Euclidean norm (`_row_norms`),
    written into `out` (a new array when None; `vectors` itself to
    normalize in place). Raises ZeroVector naming the id of the first
    zero-norm row."""
    norms = _row_norms(vectors)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ZeroVector(ids[int(zero[0])])
    return np.divide(vectors, norms[:, None], out=out)


def length_normalize(emb_set: EmbeddingSet) -> EmbeddingSet:
    """Scale every vector to unit Euclidean norm. Raises ZeroVector on a
    zero-norm input (corrupt data)."""
    # a finite row divided by its nonzero norm is finite (an overflowed
    # norm of inf gives zeros), so the rows need no new finiteness scan
    return emb_set._with(_normalize_rows(emb_set.vectors, emb_set.ids))


# ---------------------------------------------------------------------------
# file formats

@contextlib.contextmanager
def _reading(path, newline=None):
    """Open the text file at `path`; bytes that do not decode, or CSV the
    csv module cannot parse, raise SvkitError naming the path. A byte that
    does not decode is named by its offset in the file (`_undecodable`)."""
    try:
        with open(path, encoding="utf-8", newline=newline) as f:
            yield f
    except UnicodeDecodeError as e:
        raise SvkitError(
            f"{path}: unreadable text ({_undecodable(path) or e})") from None
    except csv.Error as e:
        raise SvkitError(f"{path}: unreadable text ({e})") from None


def _undecodable(path):
    """The UnicodeDecodeError text for the first byte of the file at
    `path` that does not decode as UTF-8, with the byte's offset in the
    file, or None if the whole file decodes. A text file is decoded a
    chunk at a time, and its error gives the position in the chunk; here
    the bytes are decoded again `_DECODE_CHUNK` at a time, counting the
    bytes before each chunk, so memory stays at one chunk."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    done = 0  # bytes read before the current chunk
    with open(path, "rb") as f:
        while True:
            chunk = f.read(_DECODE_CHUNK)
            try:
                decoder.decode(chunk, final=not chunk)
            except UnicodeDecodeError as e:
                # e.object is the chunk behind a partial character the
                # last chunk left pending
                at = done + len(chunk) - len(e.object)
                if e.end - e.start == 1:
                    return (f"'{e.encoding}' codec can't decode byte "
                            f"0x{e.object[e.start]:02x} in position "
                            f"{at + e.start}: {e.reason}")
                return (f"'{e.encoding}' codec can't decode bytes in "
                        f"position {at + e.start}-{at + e.end - 1}: "
                        f"{e.reason}")
            if not chunk:
                return None
            done += len(chunk)


def _write_blocks(path, n, block, header=""):
    """Write the UTF-8 text file at `path`: `header`, then the text
    block(lo, hi) of lines lo .. hi-1 for each `_RECORD_BLOCK` of the n
    lines, so only one block's text is held whatever n."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(header)
        for lo in range(0, n, _RECORD_BLOCK):
            f.write(block(lo, min(lo + _RECORD_BLOCK, n)))


def _check_text_ids(path, *columns):
    """SvkitError naming the first id of the `columns`, in line order, that
    is empty or contains whitespace as `str.split` sees it, so that a text
    reader would not read it back as one field. Distinct ids are tested."""
    if any(u.split() != [u] for u in set().union(*columns)):
        bad = next(u for u in itertools.chain.from_iterable(zip(*columns))
                   if u.split() != [u])
        raise SvkitError(f"{path}: id {bad!r} is empty or contains "
                         "whitespace, so it cannot be a field of a text line")


def _keyed_rows(path, rows, parse):
    """{key: parse(fields)} over `rows` of (lineno, key, fields). A repeated
    key raises DuplicateId, and a ValueError or SvkitError from `parse` an
    SvkitError, both naming `path:lineno`."""
    out = {}
    for lineno, key, fields in rows:
        if key in out:
            raise DuplicateId(f"{path}:{lineno}: duplicate id '{key}'")
        try:
            out[key] = parse(fields)
        except (ValueError, SvkitError) as e:
            raise SvkitError(
                f"{path}:{lineno}: malformed row ({e})") from None
    return out


def _csv_rows(path, header_ok, columns):
    """The data rows of the CSV file at `path` as columns, each a tuple:
    their line numbers, their utt_id values, then their values of each of
    `columns` in that order. A header row that fails `header_ok` raises
    SvkitError; one that passes names utt_id and one of `columns` at
    least. Rows follow `csv.DictReader`'s rules: blank rows are skipped, a
    column the header or a short row lacks reads "", a repeated header
    name means its last column, and extra fields are ignored."""
    with _reading(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if not header_ok(header or []):
            raise SvkitError(f"{path}: bad header {header}")
        position = {name: i for i, name in enumerate(header)}
        at = [position["utt_id"], *(position.get(c) for c in columns)]
        present = [i for i in at if i is not None]
        pick = operator.itemgetter(*present)
        # only a row too short for a picked field is padded, with ""
        top = max(present)
        pad = [""] * (top + 1)
        rows = [(reader.line_num, *pick(row if len(row) > top else row + pad))
                for row in reader if row]
    lines, *picked = zip(*rows) if rows else [()] * (1 + len(present))
    picked = iter(picked)
    return (lines, *(("",) * len(rows) if i is None else next(picked)
                     for i in at))


def _write_header(f, magic, dim, count):
    f.write(_HEADER.pack(magic, _VERSION, dim, count))


def _read_header(f, path, magic, extra, what):
    """(dim, count) from the header `_write_header` wrote with `magic`.
    The count records that follow (`what`, in messages) hold dim f32s and
    at least `extra` more bytes each; TruncatedFile unless the file is
    that long, so a corrupt header's counts allocate nothing."""
    header = f.read(_HEADER.size)
    if len(header) < _HEADER.size:
        raise TruncatedFile(f"{path}: header truncated")
    got, version, dim, count = _HEADER.unpack(header)
    if got != magic:
        raise BadMagic(f"{path}: bad magic {got!r}")
    if version != _VERSION:
        raise SvkitError(f"{path}: unsupported version {version}")
    need = count * (4 * dim + extra)
    left = os.fstat(f.fileno()).st_size - f.tell()
    if need > left:
        raise TruncatedFile(
            f"{path}: header claims {count} {what} of dim {dim} "
            f"({need} bytes at least), but {left} bytes follow")
    return dim, count


def write_embeddings(emb_set: EmbeddingSet, path):
    """Records cast and written `_RECORD_BLOCK` at a time, so a write holds
    one block of f32 vectors and encoded ids whatever the set's size."""
    with open(path, "wb") as f:
        _write_header(f, _MAGIC, emb_set.dim, len(emb_set))
        for lo in range(0, len(emb_set), _RECORD_BLOCK):
            hi = lo + _RECORD_BLOCK
            raw_ids = [u.encode("utf-8") for u in emb_set.ids[lo:hi]]
            f.writelines(itertools.chain.from_iterable(zip(
                map(_ID_LEN.pack, map(len, raw_ids)), raw_ids,
                np.ascontiguousarray(emb_set.vectors[lo:hi], dtype="<f4"))))


def read_embeddings(path) -> EmbeddingSet:
    """The set in the .svb file at `path`, read with one call per
    `_RECORD_BLOCK` records: a read is sized as if each record were as
    long as the mean of those in the last read, so a block of
    equal-length ids takes one call, and it stops at the file's end. The
    records in the buffer are walked by offset, and their vectors
    converted through one strided view, after they are moved to the
    buffer's front when the ids differ in length. So a read holds about
    one block beyond the set it returns."""
    with open(path, "rb") as f:
        # a record is at least a u16 length, a 1-byte id and dim f32s
        dim, count = _read_header(f, path, _MAGIC, 3, "records")
        size = 4 * dim
        left = os.fstat(f.fileno()).st_size - f.tell()
        ids = []
        vecs = np.empty((count, dim))
        buf = bytearray()
        r = pos = end = 0
        mean = 2 + size  # mean record bytes of the last read; at first no id
        while r < count:
            del buf[:pos]
            # the record at r lacks `short` bytes beyond the buffer, if any
            short = end - pos - len(buf)
            stop = min(r + _RECORD_BLOCK, count)
            want = min(left, max(0, short, (stop - r) * mean - len(buf)))
            buf += f.read(want)
            left -= want
            first, n, pos, bounds = r, len(buf), 0, [0]
            try:
                while r < stop:
                    end = pos + 2
                    if end > n:
                        break
                    end += (buf[pos] | buf[pos + 1] << 8) + size
                    if end > n:
                        break
                    ids.append(buf[pos + 2:end - size].decode("utf-8"))
                    pos = end
                    bounds.append(pos)
                    r += 1
            except UnicodeDecodeError:
                raise SvkitError(
                    f"{path}: record {r} id is not UTF-8") from None
            if r > first:
                mean = -(-pos // (r - first))
                offset, step = bounds[1] - size, bounds[1]
                if bounds != list(range(0, pos + 1, step)):
                    # ids of several lengths: each vector moved to the
                    # buffer's front, which stays before its record's end
                    for i, b in enumerate(bounds[1:]):
                        buf[i * size:(i + 1) * size] = buf[b - size:b]
                    offset, step = 0, size
                vecs[first:r] = np.ndarray((r - first, dim), "<f4", buf,
                                           offset, (step, 4))
            if r < stop and not left:
                raise TruncatedFile(f"{path}: record {r} truncated")
        if pos < len(buf) or f.read(1):
            raise SvkitError(f"{path}: trailing bytes after {count} records")
    try:
        return EmbeddingSet(ids, vecs)
    except SvkitError as e:
        raise type(e)(f"{path}: {e}") from None


def write_metadata(meta, path):
    """CSV `utt_id,speech_frames,duration_s[,speaker]` with header row,
    one row per entry of `meta` in its order: a metadata table (a set's
    `meta`, what `read_metadata` returns) or a mapping of UttMeta. The
    speaker column is written when an entry has a speaker."""
    meta = _MetaTable.of(meta)
    header = ["utt_id", "speech_frames", "duration_s"]
    columns = [meta.keys(), meta.speech_frames.tolist(),
               map(repr, meta.duration_s.tolist())]
    if any(s is not None for s in meta.speakers):
        header.append("speaker")
        names = ["" if s is None else s for s in meta.speakers]
        columns.append(map(names.__getitem__, meta.speaker_codes.tolist()))
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(zip(*columns))


def _meta_row(fields):
    """The UttMeta of one metadata row's (speech_frames, duration_s,
    speaker) fields; an empty speaker is none."""
    return UttMeta(speech_frames=int(fields[0]), duration_s=float(fields[1]),
                   speaker=fields[2] or None)


def _meta_columns(ids, frames, durations, speakers):
    """The table of the text columns of a metadata file, parsed as
    `_meta_row` parses a row and checked in bulk (`_keeps_meta_rules`).
    A field that does not parse, a row that breaks a rule, or a repeated
    id raises ValueError, OverflowError or SvkitError, naming no row."""
    n = len(ids)
    frames = np.fromiter(map(int, frames), np.int64, n)
    durations = np.fromiter(map(float, durations), np.float64, n)
    if not _keeps_meta_rules(frames, durations):
        raise SvkitError("a row breaks UttMeta's rules")
    codes, names = _interned(speakers)
    table = _MetaTable(ids, frames, durations, codes,
                       [s or None for s in names])
    if len(table) < n:
        raise DuplicateId("a repeated utterance id")
    return table


def read_metadata(path):
    """The metadata CSV at `path` (`write_metadata`'s columns, in any
    order, with or without a speaker column) as a read-only table of
    UttMeta, stored as columns (`_MetaTable`). The rows are parsed and
    checked against UttMeta's rules in bulk. When one fails, the file's
    rows are read again one at a time, as `_keyed_rows` reads them and
    UttMeta checks them, to raise the first failing row's error naming
    `path:lineno`; within a row a repeated id comes before a parse error.
    A frame count of 2**63 or more is such an error (int64 column)."""
    required = {"utt_id", "speech_frames", "duration_s"}
    lines, ids, *fields = _csv_rows(path, required.issubset,
                                    ("speech_frames", "duration_s",
                                     "speaker"))
    try:
        return _meta_columns(ids, *fields)
    except (ValueError, OverflowError, SvkitError) as e:
        error = e
    _keyed_rows(path, zip(lines, ids, zip(*fields)), _meta_row)
    raise error  # only if the bulk check and UttMeta disagree


# ---------------------------------------------------------------------------
# synthetic data

def synth_dataset(
    num_speakers,
    utts_per_speaker,
    dim,
    concentration,
    duration_range_s=(2.0, 12.0),
    seed=0,
) -> EmbeddingSet:
    """Labeled embeddings on the unit sphere for desk-scale experiments.

    Speaker means are uniform on the sphere; each utterance is the normalized
    sum of its speaker mean and isotropic noise scaled by 1/concentration.
    Larger concentration = tighter speakers. Durations are uniform in
    [lo, hi]; speech frames fill the whole duration.
    """
    if num_speakers < 1:
        raise SvkitError(f"num_speakers={num_speakers} must be >= 1")
    if utts_per_speaker < 1:
        raise SvkitError(f"utts_per_speaker={utts_per_speaker} must be >= 1")
    if dim < 1:
        raise SvkitError(f"dim={dim} must be >= 1")
    if not concentration >= 0:
        raise SvkitError(f"concentration={concentration} must be >= 0")
    lo, hi = duration_range_s
    if not (0 <= lo <= hi and hi * FRAME_RATE < 2.0**63):
        raise SvkitError(f"duration range [{lo}, {hi}] s must have "
                         f"0 <= lo <= hi and hi * {FRAME_RATE:g} frames "
                         "below 2**63")

    rng = np.random.default_rng(check_seed(seed))
    means = rng.standard_normal((num_speakers, dim))
    means /= np.linalg.norm(means, axis=1, keepdims=True)

    # the loop only draws, in the stream's order: each speaker's noise
    # rows into the output matrix, then its durations. The arithmetic then
    # runs in place over the whole matrix and duration array; each step
    # works per element or per row, so the bits are those of a
    # per-speaker loop, and memory is the output plus the means.
    n = num_speakers * utts_per_speaker
    vecs = np.empty((n, dim))
    durations = np.empty(n)
    for s in range(num_speakers):
        rows = slice(s * utts_per_speaker, (s + 1) * utts_per_speaker)
        rng.standard_normal(out=vecs[rows])
        rng.random(out=durations[rows])
    # rng.uniform(lo, hi) is lo + (hi - lo) * rng.random(), bit for bit
    durations *= hi - lo
    durations += lo
    if concentration > 0:
        vecs /= concentration
        per_speaker = vecs.reshape(num_speakers, utts_per_speaker, dim)
        per_speaker += means[:, None, :]
    names = [f"spk{s:04d}" for s in range(num_speakers)]
    suffixes = [f"_utt{u:03d}" for u in range(utts_per_speaker)]
    ids = [name + suffix for name in names for suffix in suffixes]
    _normalize_rows(vecs, ids, out=vecs)
    # int(dur * FRAME_RATE) per utterance: truncation, below 2**63
    meta = _MetaTable(ids, (durations * FRAME_RATE).astype(np.int64),
                      durations,
                      np.repeat(np.arange(num_speakers), utts_per_speaker),
                      names)
    return EmbeddingSet(ids, vecs, meta)
