"""Synthetic labeled embedding datasets.

Two generators cover the experiments: a separable Gaussian mixture (class
means spaced along the first axis) and a "class mixing" corruption that
blends each row with a random row of the same dataset, degrading class
structure while keeping labels fixed. Together they reproduce, at desk
scale, the good-encoder / mixed-encoder contrast that motivates refinement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding_store import EmbeddingDataset
from .errors import ValidationError

# fraction of the pooled per-coordinate std added as jitter when mixing
_MIX_JITTER = 0.1


@dataclass(frozen=True)
class MixtureSpec:
    num_classes: int
    dim: int
    points_per_class: int
    class_separation: float = 10.0
    cluster_sigma: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name in ("num_classes", "dim", "points_per_class"):
            if (value := getattr(self, name)) < 1:
                raise ValidationError(f"{name} must be >= 1, got {value}")
        for name in ("class_separation", "cluster_sigma"):
            value = getattr(self, name)
            if not 0 < value < np.inf:
                raise ValidationError(f"{name} must be finite and > 0, got {value}")


def class_means(spec: MixtureSpec) -> np.ndarray:
    """Default class-mean layout: class c sits at c * separation along axis 0."""
    means = np.zeros((spec.num_classes, spec.dim))
    means[:, 0] = np.arange(spec.num_classes) * spec.class_separation
    return means


def generate_gaussian_mixture(spec: MixtureSpec, means: np.ndarray | None = None) -> EmbeddingDataset:
    """Sample an isotropic Gaussian blob per class; deterministic per seed."""
    if means is None:
        means = class_means(spec)
    means = np.asarray(means, dtype=np.float64)
    if means.shape != (spec.num_classes, spec.dim):
        raise ValidationError(
            f"means must have shape ({spec.num_classes}, {spec.dim}), got {means.shape}"
        )
    rng = np.random.default_rng(spec.seed)
    n = spec.num_classes * spec.points_per_class
    labels = np.repeat(np.arange(spec.num_classes), spec.points_per_class)
    vectors = means[labels] + spec.cluster_sigma * rng.standard_normal((n, spec.dim))
    return EmbeddingDataset(vectors, labels)


def apply_class_mixing(dataset: EmbeddingDataset, mix_strength: float, seed: int) -> EmbeddingDataset:
    """Blend each row with a random (jittered) row of the pooled dataset.

    Output row i is (1 - s) * x_i + s * y_i where y_i is a shuffled row plus
    a small amount of pooled-scale noise. s = 0 is the exact identity; s = 1
    destroys the label/vector association entirely. Labels pass through
    unchanged.
    """
    if dataset.labels is None:
        raise ValidationError("apply_class_mixing requires labels")
    if not (0.0 <= mix_strength <= 1.0):
        raise ValidationError(f"mix_strength must lie in [0,1], got {mix_strength}")
    if mix_strength == 0.0:
        return EmbeddingDataset(dataset.vectors, dataset.labels)

    rng = np.random.default_rng(seed)
    perm = rng.permutation(dataset.count)
    pooled_std = dataset.vectors.std(axis=0)
    jitter = _MIX_JITTER * pooled_std * rng.standard_normal(dataset.vectors.shape)
    partners = dataset.vectors[perm] + jitter
    mixed = (1.0 - mix_strength) * dataset.vectors + mix_strength * partners
    return EmbeddingDataset(mixed, dataset.labels)
