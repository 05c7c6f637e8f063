"""Similarity and loss functions.

`nt_xent` is the normalized temperature-scaled cross-entropy over a batch
of 2N projector outputs where rows 2i and 2i+1 form positive pair i. For
each anchor the positive's cosine similarity is contrasted against all
other rows:

    loss_i = -log( exp(sim(z_i, z_p)/tau) / sum_{k != i} exp(sim(z_i, z_k)/tau) )

and the total is the mean over all 2N anchors. The denominator includes
the positive term (the standard form, guaranteeing loss > 0); pass
`exclude_positive=True` for the variant whose denominator ranges over
k != i, p only.

The loss and its gradient are evaluated over blocks of `_BLOCK_ROWS`
anchor rows. Each block forms its slice of the similarity matrix once and
works on it in place, so memory is O(block x 2N) rather than several
2N x 2N temporaries. Every row's logits are shifted by that row's own max
before `exp`, so the denominator cannot underflow however small tau is.

`hinge_loss` and `logistic_loss` are the margin losses of the
bound-checking machinery for one margin vector: max(0, 1 - min_i v_i)
and log2(1 + sum_i exp(-v_i)). Both are monotonically decreasing in every
coordinate of v. `theory` evaluates the same formulas row-wise over a
whole margin matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, ShapeError, ValidationError

LN2 = math.log(2.0)

# anchor rows per block of the similarity matrix in `nt_xent`
_BLOCK_ROWS = 256


@dataclass(frozen=True)
class LossValue:
    value: float
    grad: np.ndarray  # d(loss)/d(input rows)


def cosine_sim(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of the angle between two nonzero vectors, clamped to [-1, 1]."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0 or not (np.isfinite(na) and np.isfinite(nb)):
        raise NumericsError("cosine similarity undefined for zero-norm input")
    return float(np.clip(a @ b / (na * nb), -1.0, 1.0))


def nt_xent(z: np.ndarray, tau: float, exclude_positive: bool = False) -> LossValue:
    """Contrastive loss and its gradient for paired rows (2i, 2i+1)."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2:
        raise ShapeError(f"z must be 2-D, got shape {z.shape}")
    rows = z.shape[0]
    if rows % 2 != 0 or rows // 2 < 2:
        raise ValidationError(f"need 2N rows with N >= 2, got {rows}")
    if tau <= 0:
        raise ValidationError(f"temperature must be > 0, got {tau}")
    norms = np.linalg.norm(z, axis=1)
    if np.any(norms == 0.0) or not np.all(np.isfinite(norms)):
        raise NumericsError("nt_xent requires all rows nonzero and finite")

    zh = z / norms[:, None]
    partner = np.arange(rows) ^ 1  # 2i <-> 2i+1
    scale = tau * rows
    per_anchor = np.empty(rows)
    d_zh = np.zeros_like(zh)
    for r0 in range(0, rows, _BLOCK_ROWS):
        r1 = min(r0 + _BLOCK_ROWS, rows)
        local = np.arange(r1 - r0)
        pos = partner[r0:r1]

        # this block's logits, then the positives before they are masked
        s = zh[r0:r1] @ zh.T
        np.clip(s, -1.0, 1.0, out=s)
        s /= tau
        pos_logits = s[local, pos]
        s[local, local + r0] = -np.inf
        if exclude_positive:
            s[local, pos] = -np.inf

        row_max = s.max(axis=1)
        s -= row_max[:, None]
        np.exp(s, out=s)
        denom = s.sum(axis=1)
        per_anchor[r0:r1] = row_max + np.log(denom) - pos_logits

        # d(loss)/d(sims): softmax over allowed entries minus the positive indicator
        s /= (denom * scale)[:, None]
        s[local, pos] -= 1.0 / scale

        # back through sims = zh @ zh.T; g + g.T splits into the block's rows and columns
        d_zh[r0:r1] += s @ zh
        d_zh += s.T @ zh[r0:r1]
    value = float(per_anchor.mean())

    # then through row normalization
    radial = (d_zh * zh).sum(axis=1, keepdims=True)
    grad = (d_zh - radial * zh) / norms[:, None]
    return LossValue(value, grad)


def hinge_loss(v: np.ndarray) -> float:
    """max(0, 1 - min_i v_i)."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise ValidationError("hinge_loss needs at least one margin")
    if not np.all(np.isfinite(v)):
        raise ValidationError("hinge_loss requires finite margins")
    return float(max(0.0, 1.0 - v.min()))


def logistic_loss(v: np.ndarray) -> float:
    """log2(1 + sum_i exp(-v_i)), stabilized against large -v_i."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise ValidationError("logistic_loss needs at least one margin")
    if not np.all(np.isfinite(v)):
        raise ValidationError("logistic_loss requires finite margins")
    a = -v
    m = max(float(a.max()), 0.0)
    s = math.exp(-m) + float(np.exp(a - m).sum())
    return (m + math.log(s)) / LN2
