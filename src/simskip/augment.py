"""Embedding-space augmentations used to build positive pairs.

Two primitives operate elementwise on arrays of any shape:

* random masking: each coordinate is independently zeroed with probability
  `mask_prob` (the experiments mask 20% of coordinates);
* Gaussian noise: adds `noise_scale` times a standard normal draw per
  coordinate (the experiments use noise variance 0.13, i.e. scale
  sqrt(0.13)).

A positive pair is two independently augmented views of the same input.
`make_positive_pairs` is the one function that draws views: it takes a
batch of inputs and draws view a of the whole batch, then view b, into
interleaved rows of one new array, so no view aliases its input or its
partner. `AugmentConfig` holds one strength per primitive, and a view
applies every primitive whose strength is nonzero: masking first, so the
noise statistics are uniform across coordinates, then noise. A zero
strength skips its step and its random draws, so noise alone (the
default), masking alone, and both draw exactly the numbers of their own
steps. A single input is the one-row batch `x[i:i + 1]`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

DEFAULT_NOISE_SCALE = math.sqrt(0.13)


@dataclass(frozen=True)
class AugmentConfig:
    mask_prob: float = 0.0
    noise_scale: float = DEFAULT_NOISE_SCALE

    def __post_init__(self):
        if not (0.0 <= self.mask_prob <= 1.0):
            raise ValidationError(f"mask_prob must lie in [0,1], got {self.mask_prob}")
        if not 0 <= self.noise_scale < np.inf:
            raise ValidationError(f"noise_scale must be finite and >= 0, got {self.noise_scale}")


def random_mask(x: np.ndarray, mask_prob: float, rng: np.random.Generator) -> np.ndarray:
    """Zero each coordinate independently with probability mask_prob."""
    if not (0.0 <= mask_prob <= 1.0):
        raise ValidationError(f"mask_prob must lie in [0,1], got {mask_prob}")
    x = np.asarray(x, dtype=np.float64)
    keep = rng.random(x.shape) >= mask_prob
    return x * keep


def gaussian_noise(x: np.ndarray, noise_scale: float, rng: np.random.Generator) -> np.ndarray:
    """Add iid zero-mean Gaussian noise with stddev noise_scale per coordinate."""
    if not 0 <= noise_scale < np.inf:
        raise ValidationError(f"noise_scale must be finite and >= 0, got {noise_scale}")
    x = np.asarray(x, dtype=np.float64)
    return x + noise_scale * rng.standard_normal(x.shape)


def make_positive_pairs(
    x_batch: np.ndarray, cfg: AugmentConfig, rng: np.random.Generator
) -> np.ndarray:
    """(N, d) in, (2N, d) out: rows 0::2 hold view a of every input row and
    rows 1::2 view b, so rows 2i, 2i+1 form pair i. View a of the whole
    batch is drawn before view b."""
    x_batch = np.asarray(x_batch, dtype=np.float64)
    out = np.empty((2 * x_batch.shape[0], x_batch.shape[1]))
    for rows in (out[0::2], out[1::2]):
        view = x_batch
        if cfg.mask_prob > 0:
            view = random_mask(view, cfg.mask_prob, rng)
        if cfg.noise_scale > 0:
            view = gaussian_noise(view, cfg.noise_scale, rng)
        rows[...] = view
    return out
