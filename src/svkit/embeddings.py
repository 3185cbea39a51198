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

import contextlib
import csv
import itertools
import math
import operator
import os
import struct
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


@dataclass(frozen=True)
class UttMeta:
    """Per-utterance metadata: VAD speech-frame count, duration, speaker."""

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
        if not (math.isfinite(self.duration_s) and self.duration_s >= 0):
            raise SvkitError("duration_s must be finite and nonnegative")
        # allow half a frame of slack for rounding at the boundary
        if self.speech_frames > self.duration_s * FRAME_RATE + 0.5:
            raise SvkitError(
                f"speech_frames={self.speech_frames} inconsistent with "
                f"duration_s={self.duration_s} at {FRAME_RATE} fps"
            )


def _frozen(a):
    """True when neither `a` nor any array it is a view of can be written,
    so its values cannot change."""
    while isinstance(a, np.ndarray) and not a.flags.writeable:
        a = a.base
    return a is None


class EmbeddingSet:
    """Ordered collection of same-dimension embeddings, immutable after load.

    Vectors are stored as a single (n, dim) float64 matrix; `meta` maps a
    subset of the ids to UttMeta. A view of an array that can still be
    written is copied, so writes through its base do not reach the set;
    a frozen array (`_frozen`) or one that owns its data is kept.
    """

    def __init__(self, ids, vectors, meta=None):
        vectors = np.asarray(vectors, dtype=np.float64)
        ids = list(ids)
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
        index = {u: i for i, u in enumerate(ids)}
        if not all(index):
            raise SvkitError("utterance id must be non-empty")
        if len(index) < len(ids):
            dup = next(u for i, u in enumerate(ids) if index[u] != i)
            raise DuplicateId(f"duplicate utterance id '{dup}'")
        meta = dict(meta) if meta else {}
        unknown = meta.keys() - index.keys()
        if unknown:
            raise SvkitError(f"metadata for unknown ids: {sorted(unknown)[:5]}")
        if vectors.base is not None and not _frozen(vectors):
            vectors = vectors.copy()
        self.ids = ids
        self.vectors = vectors
        self.vectors.setflags(write=False)
        self.meta = meta
        self._index = index
        # inner-product cohort statistics a cosine pass left for the next
        # pass over this set (`scoring._cohort_stats`)
        self._kept_stats = None

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
        """New set with the same ids/meta but replaced vectors."""
        return EmbeddingSet(self.ids, vectors, self.meta)


def _metas(emb_set: EmbeddingSet, ids, speaker=False):
    """The UttMeta of each of `ids`. An id without a metadata row raises
    MissingMeta; with `speaker`, one whose row has no (or an empty)
    speaker raises MissingLabel."""
    try:
        metas = list(map(emb_set.meta.__getitem__, ids))
    except KeyError as e:
        raise MissingMeta(e.args[0]) from None
    if speaker:
        for utt_id, m in zip(ids, metas):
            if not m.speaker:
                raise MissingLabel(utt_id)
    return metas


def _normalize_rows(vectors, ids, out=None):
    """Each row of `vectors` divided by its Euclidean norm, written into
    `out` (a new array when None; `vectors` itself to normalize in
    place). The norms are taken `_ROW_BLOCK` rows at a time, so no
    n x dim temporary is built. Raises ZeroVector naming the id of the
    first zero-norm row."""
    norms = np.empty(len(vectors))
    for lo in range(0, len(vectors), _ROW_BLOCK):
        norms[lo:lo + _ROW_BLOCK] = np.linalg.norm(
            vectors[lo:lo + _ROW_BLOCK], axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ZeroVector(ids[int(zero[0])])
    return np.divide(vectors, norms[:, None], out=out)


def length_normalize(emb_set: EmbeddingSet) -> EmbeddingSet:
    """Scale every vector to unit Euclidean norm. Raises ZeroVector on a
    zero-norm input (corrupt data)."""
    return emb_set.with_vectors(_normalize_rows(emb_set.vectors, emb_set.ids))


# ---------------------------------------------------------------------------
# file formats

@contextlib.contextmanager
def _reading(path, newline=None):
    """Open the text file at `path`; bytes that do not decode, or CSV the
    csv module cannot parse, raise SvkitError naming the path."""
    try:
        with open(path, encoding="utf-8", newline=newline) as f:
            yield f
    except (UnicodeDecodeError, csv.Error) as e:
        raise SvkitError(f"{path}: unreadable text ({e})") from None


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
    """(lineno, utt_id, fields) per data row of the CSV file at `path`, with
    `fields` the row's values of `columns` in that order; a header row that
    fails `header_ok` raises SvkitError. Rows follow `csv.DictReader`'s
    rules: blank rows are skipped, a column the header or a short row lacks
    reads "", a repeated header name means its last column, and extra
    fields are ignored."""
    with _reading(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if not header_ok(header or []):
            raise SvkitError(f"{path}: bad header {header}")
        # index len(header) of a row cut to the header and padded is ""
        width = len(header)
        position = {name: i for i, name in enumerate(header)}
        pick = operator.itemgetter(
            position["utt_id"], *(position.get(c, width) for c in columns))
        pad = [""] * (width + 1)
        for row in reader:
            if row:
                utt_id, *fields = pick(row[:width] + pad)
                yield reader.line_num, utt_id, fields


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
    with open(path, "rb") as f:
        # a record is at least a u16 length, a 1-byte id and dim f32s
        dim, count = _read_header(f, path, _MAGIC, 3, "records")
        ids = []
        vecs = np.empty((count, dim))
        for lo in range(0, count, _RECORD_BLOCK):
            hi = min(lo + _RECORD_BLOCK, count)
            block = []
            for r in range(lo, hi):
                lenbuf = f.read(2)
                if len(lenbuf) < 2:
                    raise TruncatedFile(f"{path}: record {r} truncated")
                (id_len,) = _ID_LEN.unpack(lenbuf)
                raw = f.read(id_len)
                vector = f.read(4 * dim)
                if len(raw) < id_len or len(vector) < 4 * dim:
                    raise TruncatedFile(f"{path}: record {r} truncated")
                try:
                    ids.append(raw.decode("utf-8"))
                except UnicodeDecodeError:
                    raise SvkitError(
                        f"{path}: record {r} id is not UTF-8") from None
                block.append(vector)
            vecs[lo:hi] = np.frombuffer(b"".join(block), "<f4").reshape(
                hi - lo, dim)
        if f.read(1):
            raise SvkitError(f"{path}: trailing bytes after {count} records")
    try:
        return EmbeddingSet(ids, vecs)
    except SvkitError as e:
        raise type(e)(f"{path}: {e}") from None


def write_metadata(meta, path):
    """CSV `utt_id,speech_frames,duration_s[,speaker]` with header row."""
    has_speaker = any(m.speaker is not None for m in meta.values())
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        header = ["utt_id", "speech_frames", "duration_s"]
        if has_speaker:
            header.append("speaker")
        w.writerow(header)
        for utt_id, m in meta.items():
            row = [utt_id, m.speech_frames, repr(float(m.duration_s))]
            if has_speaker:
                row.append(m.speaker if m.speaker is not None else "")
            w.writerow(row)


def read_metadata(path):
    required = {"utt_id", "speech_frames", "duration_s"}
    return _keyed_rows(
        path,
        _csv_rows(path, required.issubset,
                  ("speech_frames", "duration_s", "speaker")),
        lambda fields: UttMeta(speech_frames=int(fields[0]),
                               duration_s=float(fields[1]),
                               speaker=fields[2] or None))


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
    if not (0 <= lo <= hi and math.isfinite(hi * FRAME_RATE)):
        raise SvkitError(f"duration range [{lo}, {hi}] s must have "
                         f"0 <= lo <= hi and a finite hi * {FRAME_RATE:g} "
                         "frames")

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
    speakers = [name for name in names for _ in suffixes]
    _normalize_rows(vecs, ids, out=vecs)
    meta = {utt_id: UttMeta(int(dur * FRAME_RATE), dur, spk)
            for utt_id, dur, spk in zip(ids, durations.tolist(), speakers)}
    return EmbeddingSet(ids, vecs, meta)
