"""Similarity and loss functions.

`nt_xent` returns (value, grad): the normalized temperature-scaled
cross-entropy over a batch z of 2N projector outputs, where rows 2i and
2i+1 form positive pair i, and its gradient d(loss)/dz. For each anchor
the positive's cosine similarity is contrasted against all other rows:

    loss_i = -log( exp(sim(z_i, z_p)/tau) / sum_{k != i} exp(sim(z_i, z_k)/tau) )

and the total is the mean over all 2N anchors. The denominator includes
the positive term (the standard SimCLR form, guaranteeing loss > 0).

The loss and its gradient are evaluated over blocks of anchor rows, as
many as `utils.block_rows` fits in the cache budget at 8 * 2N bytes a row.
One block x 2N buffer is allocated per call; each block forms its slice of
the similarity matrix in it and works on it in place, so every pass over
the block stays in cache and memory is O(block x 2N) rather than several
2N x 2N temporaries. The gradient is then formed in place in the call's
own normalized rows and their gradient, two 2N x d arrays, with one more
made in passing. Every row's logits are shifted by that row's own max
before `exp`, so the denominator cannot underflow however small tau is.
Both functions here ignore underflow, which rounds to the right value.

`logistic_loss` is the margin loss of the bound-checking machinery,
log2(1 + sum_i exp(-v_i)), reduced over the last axis: a margin vector
gives one value and a (T, k) margin matrix gives T, one per row. It is
monotonically decreasing in every coordinate of v.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericsError, ShapeError, ValidationError
from .utils import block_rows

LN2 = math.log(2.0)


@np.errstate(under="ignore")
def nt_xent(z: np.ndarray, tau: float) -> tuple[float, np.ndarray]:
    """Contrastive loss for paired rows (2i, 2i+1) and d(loss)/dz."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2:
        raise ShapeError(f"z must be 2-D, got shape {z.shape}")
    rows = z.shape[0]
    if rows % 2 != 0 or rows // 2 < 2:
        raise ValidationError(f"need 2N rows with N >= 2, got {rows}")
    if not 0 < tau < np.inf:
        raise ValidationError(f"temperature tau must be finite and > 0, got {tau}")
    norms = np.linalg.norm(z, axis=1)
    if np.any(norms == 0.0) or not np.all(np.isfinite(norms)):
        raise NumericsError("nt_xent requires all rows nonzero and finite")

    zh = z / norms[:, None]
    partner = np.arange(rows) ^ 1  # 2i <-> 2i+1
    scale = tau * rows
    per_anchor = np.empty(rows)
    d_zh = np.zeros_like(zh)
    block = block_rows(8 * rows, rows)
    buf = np.empty((block, rows))
    for r0 in range(0, rows, block):
        r1 = min(r0 + block, rows)
        local = np.arange(r1 - r0)
        pos = partner[r0:r1]

        # this block's logits, then the positives before they are masked
        s = buf[:r1 - r0]
        np.matmul(zh[r0:r1], zh.T, out=s)
        s /= tau
        pos_logits = s[local, pos]
        s[local, local + r0] = -np.inf

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

    # then through row normalization: (d_zh - radial * zh) / norms, in place
    radial = (d_zh * zh).sum(axis=1, keepdims=True)
    zh *= radial
    d_zh -= zh
    d_zh /= norms[:, None]
    return value, d_zh


@np.errstate(under="ignore")
def logistic_loss(v) -> float | np.ndarray:
    """log2(1 + sum_i exp(-v_i)) over the last axis of `v`, each row shifted
    by max(0, max_i -v_i) so that a large -v_i cannot overflow."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise ValidationError("logistic_loss needs at least one margin")
    if not np.all(np.isfinite(v)):
        raise ValidationError("logistic_loss requires finite margins")
    a = -v
    m = np.maximum(a.max(axis=-1), 0.0)
    s = np.exp(-m) + np.exp(a - m[..., None]).sum(axis=-1)
    return (m + np.log(s)) / LN2
