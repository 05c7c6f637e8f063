"""Load, validate, persist, and split embedding datasets.

Binary format "EMBF", version 1, little-endian throughout:

    bytes 0-3    magic b"EMBF"
    byte  4      version (1)
    byte  5      has_labels flag (0 or 1)
    bytes 6-7    reserved, must be zero
    bytes 8-11   count (u32)
    bytes 12-15  dim   (u32)
    payload      count*dim float32 values, row-major
    labels       count u32 values, only present when has_labels = 1

Vectors are stored as float32 on disk and promoted to float64 in memory;
all in-memory math runs at 64-bit precision. EMBF is the one file format:
a matrix held as text becomes an EMBF file through
`save_embeddings(EmbeddingDataset(np.loadtxt(...)), path)`. `split`
draws train and test row indices from a label vector, stratified by class.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, ShapeError, ValidationError
from .utils import atomic_write, block_rows

MAGIC = b"EMBF"
VERSION = 1

_HEADER = struct.Struct("<4sBBHII")  # magic, version, has_labels, reserved, count, dim

_MAX_LABEL = 2**32 - 1  # labels persist as u32


@dataclass(frozen=True)
class EmbeddingDataset:
    """An N x d matrix of finite embeddings plus optional integer class labels.

    Instances are immutable: the backing arrays are marked read-only, so
    no caller can change a dataset another caller holds.
    """

    vectors: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.vectors, dtype=np.float64))
        if v.ndim != 2:
            raise ShapeError(f"vectors must be 2-D, got shape {v.shape}")
        if v.shape[1] < 1:
            raise ValidationError("embedding dimension must be >= 1")
        # one block's bool mask at a time, never one for the whole matrix
        rows = block_rows(v.shape[1], len(v))
        if not all(np.isfinite(v[r:r + rows]).all() for r in range(0, len(v), rows)):
            raise ValidationError("vectors contain NaN or Inf")
        v.flags.writeable = False
        object.__setattr__(self, "vectors", v)

        if self.labels is not None:
            raw = np.asarray(self.labels)
            if raw.ndim != 1 or raw.shape[0] != v.shape[0]:
                raise ValidationError(
                    f"labels must be a vector of length {v.shape[0]}, got shape {raw.shape}"
                )
            # the cast to int64 would store a float label 0.5 as 0, so a label array
            # that is not of an integer type must hold finite whole numbers
            whole = raw.dtype.kind in "iu"
            if not whole and raw.size and not np.isfinite(raw).all():
                raise ValidationError("labels contain NaN or Inf")
            if raw.size and (raw.min() < 0 or raw.max() > _MAX_LABEL):
                raise ValidationError("labels must be nonnegative 32-bit integers")
            lab = np.ascontiguousarray(raw, dtype=np.int64)
            if not whole and not np.array_equal(lab, raw):
                raise ValidationError("labels must be integers, got a fractional value")
            lab.flags.writeable = False
            object.__setattr__(self, "labels", lab)

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def has_labels(self) -> bool:
        return self.labels is not None

    def __eq__(self, other) -> bool:
        if not isinstance(other, EmbeddingDataset):
            return NotImplemented
        if not np.array_equal(self.vectors, other.vectors):
            return False
        if (self.labels is None) != (other.labels is None):
            return False
        return self.labels is None or np.array_equal(self.labels, other.labels)


def dataset_fingerprint(dataset: EmbeddingDataset) -> str:
    """SHA-256 over the dataset's storage-precision content."""
    h = hashlib.sha256()
    h.update(struct.pack("<II", dataset.count, dataset.dim))
    h.update(dataset.vectors.astype("<f4"))  # C-contiguous: hashed as a buffer
    if dataset.labels is not None:
        h.update(b"L")
        h.update(dataset.labels.astype("<u4"))
    return h.hexdigest()


def save_embeddings(dataset: EmbeddingDataset, path) -> None:
    """Write the dataset to `path` in the EMBF layout, streaming the header
    and each array's buffer to the file.

    A vector value beyond float32 range would be stored as Inf, which no
    reader accepts; such a dataset raises ValidationError and nothing is
    written."""
    with np.errstate(over="ignore"):
        vectors = dataset.vectors.astype("<f4")
    if not np.all(np.isfinite(vectors)):
        raise ValidationError(
            f"vectors overflow float32 storage: largest magnitude "
            f"{np.abs(dataset.vectors).max():.6g} exceeds {np.finfo(np.float32).max:.6g}")
    header = _HEADER.pack(MAGIC, VERSION, int(dataset.has_labels), 0, dataset.count, dataset.dim)
    chunks = [header, vectors]
    if dataset.has_labels:
        chunks.append(dataset.labels.astype("<u4"))
    atomic_write(path, chunks)


def load_embeddings(path) -> EmbeddingDataset:
    """Read an EMBF file, validating magic, version, payload length, and
    that every vector value is finite."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise FormatError(f"{path}: file too short for EMBF header")
    magic, version, has_labels, reserved, count, dim = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if has_labels not in (0, 1):
        raise FormatError(f"{path}: has_labels flag must be 0 or 1, got {has_labels}")
    if reserved != 0:
        raise FormatError(f"{path}: reserved header bytes must be zero")
    if dim < 1:
        raise FormatError(f"{path}: header dim must be >= 1, got {dim}")
    expected = _HEADER.size + count * dim * 4 + (count * 4 if has_labels else 0)
    if len(raw) != expected:
        raise FormatError(
            f"{path}: payload length {len(raw)} does not match header (expected {expected})"
        )
    off = _HEADER.size
    vectors = np.frombuffer(raw, dtype="<f4", count=count * dim, offset=off)
    if not np.all(np.isfinite(vectors)):
        raise FormatError(f"{path}: vector payload holds NaN or Inf")
    vectors = vectors.reshape(count, dim).astype(np.float64)
    labels = None
    if has_labels:
        off += count * dim * 4
        labels = np.frombuffer(raw, dtype="<u4", count=count, offset=off).astype(np.int64)
    return EmbeddingDataset(vectors, labels)


def split(
    labels: np.ndarray | None,
    train_fraction: float,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic stratified train/test split: the row indices of each part.

    Train size is the larger of floor(train_fraction * count) and the sum of
    the per-class floors (float rounding can lift a share to a whole number),
    at least one row. Each class is shuffled and allocated in proportion by
    largest-remainder rounding; both parts list rows class by class.
    """
    if labels is None:
        raise ValidationError("split requires labels (it stratifies by class)")
    count = len(labels)
    if count < 2:
        raise ValidationError("split needs at least 2 rows")
    if not (0.0 < train_fraction < 1.0):
        raise ValidationError(f"train_fraction must lie in (0,1), got {train_fraction}")
    n_train = int(np.floor(train_fraction * count))
    if n_train == 0:
        raise ValidationError(f"train_fraction {train_fraction} of {count} rows "
                              f"leaves no training rows")

    rng = np.random.default_rng(seed)
    classes = np.unique(labels)
    per_class = {c: rng.permutation(np.flatnonzero(labels == c)) for c in classes}
    base = {c: int(np.floor(train_fraction * len(per_class[c]))) for c in classes}
    short = max(n_train - sum(base.values()), 0)
    # hand the leftover slots to the largest fractional remainders (ties: lower class id)
    remainders = sorted(
        classes,
        key=lambda c: (-(train_fraction * len(per_class[c]) - base[c]), c),
    )
    for c in remainders[:short]:
        base[c] += 1
    return (np.concatenate([per_class[c][:base[c]] for c in classes]),
            np.concatenate([per_class[c][base[c]:] for c in classes]))
