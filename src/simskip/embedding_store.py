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
all in-memory math runs at 64-bit precision. The CSV interchange format is
one row per embedding: dim comma-separated decimal literals, with an
optional final integer label column.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, ShapeError, ValidationError
from .utils import atomic_write

MAGIC = b"EMBF"
VERSION = 1

_HEADER = struct.Struct("<4sBBHII")  # magic, version, has_labels, reserved, count, dim

_MAX_LABEL = 2**32 - 1  # labels persist as u32


@dataclass(frozen=True)
class EmbeddingDataset:
    """An N x d matrix of finite embeddings plus optional integer class labels.

    Instances are immutable: the backing arrays are marked read-only so a
    loaded dataset can be shared across threads.
    """

    vectors: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.vectors, dtype=np.float64))
        if v.ndim != 2:
            raise ShapeError(f"vectors must be 2-D, got shape {v.shape}")
        if v.shape[1] < 1:
            raise ValidationError("embedding dimension must be >= 1")
        if not np.all(np.isfinite(v)):
            raise ValidationError("vectors contain NaN or Inf")
        v.flags.writeable = False
        object.__setattr__(self, "vectors", v)

        if self.labels is not None:
            lab = np.ascontiguousarray(np.asarray(self.labels, dtype=np.int64))
            if lab.ndim != 1 or lab.shape[0] != v.shape[0]:
                raise ValidationError(
                    f"labels must be a vector of length {v.shape[0]}, got shape {lab.shape}"
                )
            if lab.size and (lab.min() < 0 or lab.max() > _MAX_LABEL):
                raise ValidationError("labels must be nonnegative 32-bit integers")
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
    h.update(dataset.vectors.astype("<f4").tobytes())
    if dataset.labels is not None:
        h.update(b"L")
        h.update(dataset.labels.astype("<u4").tobytes())
    return h.hexdigest()


def save_embeddings(dataset: EmbeddingDataset, path) -> None:
    """Write the dataset to `path` in the EMBF layout."""
    has_labels = dataset.labels is not None
    header = _HEADER.pack(MAGIC, VERSION, int(has_labels), 0, dataset.count, dataset.dim)
    blob = bytearray(header)
    blob += dataset.vectors.astype("<f4").tobytes()
    if has_labels:
        blob += dataset.labels.astype("<u4").tobytes()
    atomic_write(path, bytes(blob))


def load_embeddings(path) -> EmbeddingDataset:
    """Read an EMBF file, validating magic, version, and payload length."""
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
    expected = _HEADER.size + count * dim * 4 + (count * 4 if has_labels else 0)
    if len(raw) != expected:
        raise FormatError(
            f"{path}: payload length {len(raw)} does not match header (expected {expected})"
        )
    off = _HEADER.size
    vectors = np.frombuffer(raw, dtype="<f4", count=count * dim, offset=off)
    vectors = vectors.reshape(count, dim).astype(np.float64)
    labels = None
    if has_labels:
        off += count * dim * 4
        labels = np.frombuffer(raw, dtype="<u4", count=count, offset=off).astype(np.int64)
    return EmbeddingDataset(vectors, labels)


def save_csv(dataset: EmbeddingDataset, path) -> None:
    """Write one comma-separated row per embedding, label (if any) last."""
    lines = []
    for i in range(dataset.count):
        cells = [repr(float(v)) for v in dataset.vectors[i]]
        if dataset.labels is not None:
            cells.append(str(int(dataset.labels[i])))
        lines.append(",".join(cells))
    atomic_write(path, "\n".join(lines) + ("\n" if lines else ""))


def load_csv(path, labeled: bool = False) -> EmbeddingDataset:
    """Parse a CSV of embedding rows; `labeled` treats the last column as a label."""
    rows = []
    labels = [] if labeled else None
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        try:
            if labeled:
                if len(cells) < 2:
                    raise ValueError("need at least one feature and a label")
                rows.append([float(c) for c in cells[:-1]])
                labels.append(int(cells[-1]))
            else:
                rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
        if len(rows) > 1 and len(rows[-1]) != len(rows[0]):
            raise FormatError(f"{path}:{lineno}: inconsistent column count")
    if not rows:
        raise FormatError(f"{path}: no embedding rows found")
    return EmbeddingDataset(np.asarray(rows, dtype=np.float64),
                            np.asarray(labels) if labeled else None)


def split_indices(
    count: int,
    train_fraction: float,
    seed: int,
    labels: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Row indices for a deterministic train/test partition.

    Train size is floor(train_fraction * count); the remainder is test.
    Passing `labels` stratifies the allocation per class (largest-remainder
    rounding keeps the total train size exact).
    """
    if count < 2:
        raise ValidationError("split needs at least 2 rows")
    if not (0.0 < train_fraction < 1.0):
        raise ValidationError(f"train_fraction must lie in (0,1), got {train_fraction}")

    rng = np.random.default_rng(seed)
    n_train = int(np.floor(train_fraction * count))

    if labels is None:
        order = rng.permutation(count)
        return order[:n_train], order[n_train:]

    labels = np.asarray(labels)
    classes = np.unique(labels)
    per_class = {c: rng.permutation(np.flatnonzero(labels == c)) for c in classes}
    base = {c: int(np.floor(train_fraction * len(per_class[c]))) for c in classes}
    short = n_train - sum(base.values())
    # hand the leftover slots to the largest fractional remainders (ties: lower class id)
    remainders = sorted(
        classes,
        key=lambda c: (-(train_fraction * len(per_class[c]) - base[c]), c),
    )
    for c in remainders[:short]:
        base[c] += 1
    train_parts, test_parts = [], []
    for c in classes:
        idx = per_class[c]
        train_parts.append(idx[: base[c]])
        test_parts.append(idx[base[c]:])
    return np.concatenate(train_parts), np.concatenate(test_parts)


def take_rows(dataset: EmbeddingDataset, idx: np.ndarray) -> EmbeddingDataset:
    """Dataset restricted to the given row indices."""
    labels = dataset.labels[idx] if dataset.labels is not None else None
    return EmbeddingDataset(dataset.vectors[idx], labels)


def split(
    dataset: EmbeddingDataset,
    train_fraction: float,
    seed: int,
    stratify: bool = False,
) -> tuple[EmbeddingDataset, EmbeddingDataset]:
    """Deterministic train/test split; see `split_indices` for the contract."""
    if stratify and dataset.labels is None:
        raise ValidationError("stratified split requires labels")
    train_idx, test_idx = split_indices(
        dataset.count, train_fraction, seed,
        labels=dataset.labels if stratify else None,
    )
    return take_rows(dataset, train_idx), take_rows(dataset, test_idx)
