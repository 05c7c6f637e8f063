"""Numerical checks of the loss-bound machinery.

The pieces fit together as follows. Triplets (anchor x, same-label positive
x+, k negatives x-) are sampled from a labeled dataset and held as one
`Triplets` of row-index arrays: anchors (T,), positives (T,) and negatives
(T, k), drawn by three vectorised calls with no per-triplet loop. The
empirical unsupervised loss L_un of an embedding is the mean of
l({x^T (x+ - x-_i)}_i) over triplets, with l the logistic loss of `losses`,
applied row-wise to the whole (T, k) margin matrix. The margins are filled
in cache-sized blocks of triplets, one negative column at a time, so
memory stays O(block * d) plus the (T, k) result whatever T and k are.
Doubling the identity map (f = 2I, the idealized effect of adding an
identity branch to an identity network) scales every margin by 4, and
because the loss is monotonically decreasing, l(4u) <= l(u) whenever
u >= 0. `skip_inequality_check` measures how often that margin condition
holds on real triplets and whether the implied loss ordering comes out;
its `L_un_identity` is the L_un of the dataset's own embedding.

`gen_m` evaluates the generalization-error expression

    R * sqrt(k) * RADEMACHER / M + (R^2 + ln k) * sqrt(ln(1/DELTA_CONF) / M)

with the asymptotic constants fixed at 1 and natural logs, and `bound_rhs`
assembles ALPHA * L_un + ETA * gen + EPS_SLACK. `bound_report` measures R
and takes M and k from its triplets, which `gen_m` checks are finite; the
five other values are fixed module constants, and none is estimated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embedding_store import EmbeddingDataset
from .errors import NumericsError, ValidationError
from .losses import logistic_loss
from .utils import block_rows

# R_s, delta, alpha, eta, eps: nothing measures them, so no caller sets them
RADEMACHER, DELTA_CONF, ALPHA, ETA, EPS_SLACK = 1.0, 0.05, 1.0, 1.0, 0.0


@dataclass(frozen=True, eq=False)
class Triplets:
    """T triplets as row indices: `anchors` (T,), `positives` (T,) and
    `negatives` (T, k), all nonnegative integers, T >= 1 and k >= 1."""

    anchors: np.ndarray
    positives: np.ndarray
    negatives: np.ndarray

    def __post_init__(self):
        for name in ("anchors", "positives", "negatives"):
            arr = np.asarray(getattr(self, name))
            if not np.issubdtype(arr.dtype, np.integer):
                raise ValidationError(f"triplet {name} must be integers, got dtype {arr.dtype}")
            if arr.size and arr.min() < 0:
                raise ValidationError(f"triplet {name} must be nonnegative row indices")
            object.__setattr__(self, name, arr)
        t = self.anchors.shape[0] if self.anchors.ndim == 1 else 0
        if t < 1 or self.positives.shape != (t,):
            raise ValidationError(f"anchors and positives must both have shape (T,) with "
                                  f"T >= 1, got {self.anchors.shape} and {self.positives.shape}")
        if self.negatives.ndim != 2 or self.negatives.shape[0] != t or self.negatives.shape[1] < 1:
            raise ValidationError(f"negatives must have shape ({t}, k) with k >= 1, "
                                  f"got {self.negatives.shape}")

    def __len__(self) -> int:
        return self.anchors.shape[0]

    @property
    def k(self) -> int:
        return self.negatives.shape[1]


def sample_triplets(dataset: EmbeddingDataset, k: int, count: int, seed: int) -> Triplets:
    """Uniform anchors, same-label positives, dataset-wide uniform negatives.

    A positive sits a uniform offset in [1, class size) past its anchor's
    rank within their class, wrapping around, so it is uniform over the
    class's other members and never the anchor.
    """
    if dataset.labels is None:
        raise ValidationError("sample_triplets requires labels")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if count < 1:
        raise ValidationError(f"count must be >= 1, got {count}")
    if dataset.count == 0:
        raise ValidationError("sample_triplets needs a non-empty dataset")
    classes, cls, sizes = np.unique(dataset.labels, return_inverse=True, return_counts=True)
    if sizes.min() < 2:
        c = int(np.argmin(sizes))
        raise ValidationError(f"class {classes[c]} has only {sizes[c]} member(s); need >= 2")
    # rows grouped by class; class c occupies members[starts[c]:starts[c] + sizes[c]]
    members = np.argsort(cls, kind="stable")
    starts = np.cumsum(sizes) - sizes
    rank = np.empty_like(members)
    rank[members] = np.arange(dataset.count) - starts[cls[members]]

    rng = np.random.default_rng(seed)
    anchors = rng.integers(dataset.count, size=count)
    c = cls[anchors]
    offsets = rng.integers(1, sizes[c])
    positives = members[starts[c] + (rank[anchors] + offsets) % sizes[c]]
    negatives = rng.integers(dataset.count, size=(count, k))
    return Triplets(anchors, positives, negatives)


def triplet_margins(embedded: np.ndarray, triplets: Triplets) -> np.ndarray:
    """(T, k) matrix of f(x)^T (f(x+) - f(x-_i)) values.

    Filled in blocks of triplets, as many as `utils.block_rows` fits in
    the cache budget at 32 * d bytes a row: each block gathers its own
    anchors and positives and fills its k columns one at a time, gathering
    each column's negatives into one block x d buffer and differencing
    through another, so memory stays O(block * d) plus the (T, k) result
    whatever T and k are. Each margin is the same per-row dot product at
    any block size.
    """
    top = max(triplets.anchors.max(), triplets.positives.max(), triplets.negatives.max())
    if top >= embedded.shape[0]:
        raise ValidationError(f"triplet row index {top} out of range for "
                              f"{embedded.shape[0]} rows")
    t = len(triplets)
    margins = np.empty(triplets.negatives.shape)
    rows = block_rows(32 * embedded.shape[1], t)
    neg, diff = (np.empty((rows, embedded.shape[1]), dtype=embedded.dtype) for _ in range(2))
    for r0 in range(0, t, rows):
        r1 = min(r0 + rows, t)
        fa = embedded[triplets.anchors[r0:r1]]
        fp = embedded[triplets.positives[r0:r1]]
        gathered, block = neg[:r1 - r0], diff[:r1 - r0]
        for j in range(triplets.k):
            # the indices are checked above; mode "raise" would gather through a copy
            np.take(embedded, triplets.negatives[r0:r1, j], axis=0, out=gathered, mode="clip")
            np.subtract(fp, gathered, out=block)
            margins[r0:r1, j] = np.einsum("td,td->t", fa, block)
    return margins


def skip_inequality_check(dataset: EmbeddingDataset, triplets: Triplets) -> dict:
    """Compare logistic L_un under the identity map and the doubled map.

    Doubling the identity map multiplies every margin by 4, so on triplets
    whose margins are all nonnegative the loss cannot increase. Each map's
    per-triplet losses are computed once: L_un is their mean over every
    row, and `holds` compares their means over the all-nonnegative rows
    (vacuously true when there are none; their count is reported
    alongside). Returns a JSON-ready dict keyed as `theory.json` is.
    """
    margins = triplet_margins(dataset.vectors, triplets)
    nonneg = margins >= 0.0
    nonneg_rows = nonneg.all(axis=1)
    loss_identity = logistic_loss(margins)
    loss_doubled = logistic_loss(4.0 * margins)
    holds = (not nonneg_rows.any()
             or loss_doubled[nonneg_rows].mean() <= loss_identity[nonneg_rows].mean())
    return {
        "nonneg_margin_fraction": float(nonneg.mean()),
        "L_un_identity": float(loss_identity.mean()),
        "L_un_doubled": float(loss_doubled.mean()),
        "holds": bool(holds),
        "nonneg_triplet_count": int(nonneg_rows.sum()),
        "triplet_count": len(triplets),
    }


def gen_m(R: float, M: int, k: int) -> float:
    """Generalization-error expression with implied constants set to 1."""
    if not 0 < R < math.inf:
        raise ValidationError(f"R must be finite and > 0, got {R}")
    if not 1 <= M < math.inf:
        raise ValidationError(f"M must be finite and >= 1, got {M}")
    if not 1 <= k < math.inf:
        raise ValidationError(f"k must be finite and >= 1, got {k}")
    first = R * math.sqrt(k) * RADEMACHER / M
    try:
        second = (R**2 + math.log(k)) * math.sqrt(math.log(1.0 / DELTA_CONF) / M)
    except OverflowError as exc:  # R**2 past the largest float
        raise NumericsError(f"Gen_M overflows: R = {R} squared is out of range") from exc
    return first + second


def bound_rhs(l_un_value: float, gen: float) -> float:
    """ALPHA * L_un + ETA * Gen_M + EPS_SLACK."""
    return ALPHA * l_un_value + ETA * gen + EPS_SLACK


def bound_report(dataset: EmbeddingDataset, triplets: Triplets) -> dict:
    """JSON-ready summary: margin stats, both L_un values, Gen_M, bound RHS.

    R is the embedding's largest row norm and M and k the triplets' count and
    negatives per triplet. The bound RHS uses the identity-map L_un, i.e. the
    bound as it applies to the dataset's own embedding.
    """
    # first: it rejects a triplet index past the last row, so the rows the max reads exist
    report = skip_inequality_check(dataset, triplets)
    radius = math.sqrt(np.einsum("ij,ij->i", dataset.vectors, dataset.vectors).max())
    g = gen_m(radius, len(triplets), triplets.k)
    report["gen_m"] = g
    report["bound_rhs"] = bound_rhs(report["L_un_identity"], g)
    report["config"] = {"R": radius, "rademacher": RADEMACHER, "M": len(triplets),
                        "delta_conf": DELTA_CONF, "k": triplets.k, "alpha": ALPHA, "eta": ETA,
                        "eps_slack": EPS_SLACK, "loss": "logistic"}
    return report
