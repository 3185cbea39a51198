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
)

FRAME_RATE = 100.0  # VAD / feature frames per second

_MAGIC = b"SVEB"
_VERSION = 1
_HEADER = struct.Struct("<4sIIQ")  # magic, version, dim, count
_ID_LEN = struct.Struct("<H")
# .svb records converted per frombuffer: a read holds one block of f32
# bytes beyond its float64 vectors
_RECORD_BLOCK = 1024


@dataclass(frozen=True)
class UttMeta:
    """Per-utterance metadata: VAD speech-frame count, duration, speaker."""

    speech_frames: int
    duration_s: float
    speaker: str | None = None

    def __post_init__(self):
        if self.speech_frames < 0:
            raise SvkitError("speech_frames must be nonnegative")
        if not (math.isfinite(self.duration_s) and self.duration_s >= 0):
            raise SvkitError("duration_s must be finite and nonnegative")
        # allow half a frame of slack for rounding at the boundary
        if self.speech_frames > self.duration_s * FRAME_RATE + 0.5:
            raise SvkitError(
                f"speech_frames={self.speech_frames} inconsistent with "
                f"duration_s={self.duration_s} at {FRAME_RATE} fps"
            )


class EmbeddingSet:
    """Ordered collection of same-dimension embeddings, immutable after load.

    Vectors are stored as a single (n, dim) float64 matrix; `meta` maps a
    subset of the ids to UttMeta.
    """

    def __init__(self, ids, vectors, meta=None):
        vectors = np.asarray(vectors, dtype=np.float64)
        ids = list(ids)
        if vectors.ndim != 2:
            vectors = vectors.reshape(len(ids), -1)
        if len(ids) != vectors.shape[0]:
            raise SvkitError("ids and vectors disagree in length")
        if vectors.shape[0] > 0 and vectors.shape[1] < 1:
            raise SvkitError("embedding dimension must be >= 1")
        bad = np.flatnonzero(~np.isfinite(vectors).all(axis=1))
        if bad.size:
            raise SvkitError(f"embedding '{ids[bad[0]]}' is not finite")
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
        self.ids = ids
        self.vectors = vectors
        self.vectors.setflags(write=False)
        self.meta = meta
        self._index = index

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
    MissingMeta; with `speaker`, one whose row has no speaker raises
    MissingLabel."""
    try:
        metas = list(map(emb_set.meta.__getitem__, ids))
    except KeyError as e:
        raise MissingMeta(e.args[0]) from None
    if speaker:
        for utt_id, m in zip(ids, metas):
            if m.speaker is None:
                raise MissingLabel(utt_id)
    return metas


def length_normalize(emb_set: EmbeddingSet) -> EmbeddingSet:
    """Scale every vector to unit Euclidean norm. Raises ZeroVector on a
    zero-norm input (corrupt data)."""
    norms = np.linalg.norm(emb_set.vectors, axis=1)
    zero = np.where(norms == 0.0)[0]
    if zero.size:
        raise ZeroVector(emb_set.ids[int(zero[0])])
    return emb_set.with_vectors(emb_set.vectors / norms[:, None])


# ---------------------------------------------------------------------------
# file formats

@contextlib.contextmanager
def _reading(path, newline=None):
    """Open the text file at `path`; bytes that do not decode, or CSV the
    csv module cannot parse, raise SvkitError naming the path."""
    try:
        with open(path, newline=newline) as f:
            yield f
    except (UnicodeDecodeError, csv.Error) as e:
        raise SvkitError(f"{path}: unreadable text ({e})") from None


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
    raw_ids = [u.encode("utf-8") for u in emb_set.ids]
    with open(path, "wb") as f:
        _write_header(f, _MAGIC, emb_set.dim, len(emb_set))
        f.writelines(itertools.chain.from_iterable(zip(
            map(_ID_LEN.pack, map(len, raw_ids)), raw_ids,
            np.ascontiguousarray(emb_set.vectors, dtype="<f4"))))


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
    with open(path, "w", newline="") as f:
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
        raise SvkitError("num_speakers must be >= 1")
    if utts_per_speaker < 1:
        raise SvkitError("utts_per_speaker must be >= 1")
    if concentration < 0:
        raise SvkitError("concentration must be >= 0")
    lo, hi = duration_range_s
    if lo > hi:
        raise SvkitError("duration range lo must be <= hi")

    rng = np.random.default_rng(seed)
    means = rng.standard_normal((num_speakers, dim))
    means /= np.linalg.norm(means, axis=1, keepdims=True)

    ids, vecs, meta = [], [], {}
    for s in range(num_speakers):
        spk = f"spk{s:04d}"
        noise = rng.standard_normal((utts_per_speaker, dim))
        if concentration > 0:
            raw = means[s] + noise / concentration
        else:
            raw = noise
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        durations = rng.uniform(lo, hi, size=utts_per_speaker)
        for u in range(utts_per_speaker):
            utt_id = f"{spk}_utt{u:03d}"
            ids.append(utt_id)
            vecs.append(raw[u])
            dur = float(durations[u])
            meta[utt_id] = UttMeta(
                speech_frames=int(dur * FRAME_RATE),
                duration_s=dur,
                speaker=spk,
            )
    return EmbeddingSet(ids, np.array(vecs), meta)
