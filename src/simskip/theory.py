"""Numerical checks of the loss-bound machinery.

The pieces fit together as follows. Triplets (anchor x, same-label
positive x+, k negatives x-) are sampled from a labeled dataset; the
empirical unsupervised loss of an embedding map f is the mean of
l({f(x)^T (f(x+) - f(x-_i))}_i) over triplets, with l the hinge or
logistic margin loss. For the identity map the margins are
u_i = x^T (x+ - x-_i); doubling the map (f = 2I, the idealized effect of
adding an identity branch to an identity network) scales every margin by
4, and because both losses are monotonically decreasing, l(4u) <= l(u)
whenever u >= 0. `skip_inequality_check` measures how often that margin
condition holds on real triplets and whether the implied loss ordering
comes out.

`gen_m` evaluates the generalization-error expression

    R * sqrt(k) * rademacher / M + (R^2 + ln k) * sqrt(ln(1/delta_conf) / M)

with the asymptotic constants fixed at 1 and natural logs, and `bound_rhs`
assembles alpha * L_un + eta * gen + eps_slack. The Rademacher average is
always a user-supplied input, never estimated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embedding_store import EmbeddingDataset
from .errors import NumericsError, ShapeError, ValidationError
from .losses import LN2

HINGE = "hinge"
LOGISTIC = "logistic"


@dataclass(frozen=True)
class TripletSample:
    anchor: int
    positive: int
    negatives: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.negatives)


@dataclass(frozen=True)
class BoundInputs:
    R: float = 1.0            # norm bound on the embedding map
    rademacher: float = 1.0   # user-supplied R_s of the function class
    M: int = 100              # sample size
    delta_conf: float = 0.05  # confidence parameter inside log(1/.)
    k: int = 1                # negatives per triplet
    alpha: float = 1.0
    eta: float = 1.0
    eps_slack: float = 0.0

    def __post_init__(self):
        if self.R <= 0:
            raise ValidationError("R must be > 0")
        if self.rademacher < 0 or self.alpha < 0 or self.eta < 0 or self.eps_slack < 0:
            raise ValidationError("rademacher, alpha, eta, eps_slack must be >= 0")
        if self.M < 1:
            raise ValidationError("M must be >= 1")
        if not (0.0 < self.delta_conf < 1.0):
            raise ValidationError("delta_conf must lie in (0,1)")
        if self.k < 1:
            raise ValidationError("k must be >= 1")


def sample_triplets(
    dataset: EmbeddingDataset, k: int, count: int, seed: int
) -> list[TripletSample]:
    """Uniform anchors, same-label positives, dataset-wide uniform negatives."""
    if dataset.labels is None:
        raise ValidationError("sample_triplets requires labels")
    if k < 1 or count < 1:
        raise ValidationError("k and count must be >= 1")
    labels = dataset.labels
    members = {c: np.flatnonzero(labels == c) for c in np.unique(labels)}
    for c, idx in members.items():
        if idx.size < 2:
            raise ValidationError(f"class {c} has only {idx.size} member(s); need >= 2")

    rng = np.random.default_rng(seed)
    triplets = []
    for _ in range(count):
        anchor = int(rng.integers(dataset.count))
        same = members[int(labels[anchor])]
        pos = anchor
        while pos == anchor:
            pos = int(same[rng.integers(same.size)])
        negs = tuple(int(j) for j in rng.integers(dataset.count, size=k))
        triplets.append(TripletSample(anchor, pos, negs))
    return triplets


def triplet_margins(embedded: np.ndarray, triplets: list[TripletSample]) -> np.ndarray:
    """(T, k) matrix of f(x)^T (f(x+) - f(x-_i)) values."""
    anchors = np.array([t.anchor for t in triplets])
    positives = np.array([t.positive for t in triplets])
    negatives = np.array([t.negatives for t in triplets])
    fa = embedded[anchors]
    diff = embedded[positives][:, None, :] - embedded[negatives]
    return np.einsum("td,tkd->tk", fa, diff)


def _margin_loss(margins: np.ndarray, loss_kind: str) -> float:
    """Mean over rows of `hinge_loss` or `logistic_loss`, in one array pass."""
    if loss_kind not in (HINGE, LOGISTIC):
        raise ValidationError(f"loss_kind must be {HINGE!r} or {LOGISTIC!r}, got {loss_kind!r}")
    if margins.size == 0:
        raise ValidationError(f"{loss_kind} loss needs at least one margin")
    if not np.all(np.isfinite(margins)):
        raise ValidationError(f"{loss_kind} loss requires finite margins")
    if loss_kind == HINGE:
        per_row = np.maximum(0.0, 1.0 - margins.min(axis=1))
    else:
        # log2(1 + sum_i exp(-v_i)), each row shifted by max(0, max_i -v_i)
        a = -margins
        m = np.maximum(a.max(axis=1), 0.0)
        s = np.exp(-m) + np.exp(a - m[:, None]).sum(axis=1)
        per_row = (m + np.log(s)) / LN2
    return float(per_row.mean())


def apply_embedding(embed_fn, dataset: EmbeddingDataset) -> np.ndarray:
    """Run a vector -> vector map over every row, validating finiteness."""
    rows = []
    for x in dataset.vectors:
        fx = np.asarray(embed_fn(x), dtype=np.float64)
        if fx.ndim != 1:
            raise ShapeError(f"embed_fn must return a vector, got shape {fx.shape}")
        if not np.all(np.isfinite(fx)):
            raise NumericsError("embed_fn produced non-finite values")
        rows.append(fx)
    return np.stack(rows)


def empirical_unsup_loss(
    embed_fn,
    dataset: EmbeddingDataset,
    triplets: list[TripletSample],
    loss_kind: str = LOGISTIC,
) -> float:
    """Mean margin loss of an embedding map over sampled triplets."""
    if not triplets:
        raise ValidationError("need at least one triplet")
    embedded = apply_embedding(embed_fn, dataset)
    return _margin_loss(triplet_margins(embedded, triplets), loss_kind)


@dataclass(frozen=True)
class SkipInequalityReport:
    nonneg_margin_fraction: float
    l_un_identity: float
    l_un_doubled: float
    holds: bool
    nonneg_triplet_count: int
    triplet_count: int

    def to_json_dict(self) -> dict:
        return {
            "nonneg_margin_fraction": self.nonneg_margin_fraction,
            "L_un_identity": self.l_un_identity,
            "L_un_doubled": self.l_un_doubled,
            "holds": self.holds,
            "nonneg_triplet_count": self.nonneg_triplet_count,
            "triplet_count": self.triplet_count,
        }


def skip_inequality_check(
    dataset: EmbeddingDataset, triplets: list[TripletSample]
) -> SkipInequalityReport:
    """Compare logistic L_un under the identity map and the doubled map.

    Doubling the identity map multiplies every margin by 4, so on triplets
    whose margins are all nonnegative the loss cannot increase. `holds`
    states that ordering restricted to that subset (vacuously true when
    the subset is empty; the subset size is reported alongside).
    """
    if not triplets:
        raise ValidationError("need at least one triplet")
    margins = triplet_margins(dataset.vectors, triplets)
    nonneg_rows = np.all(margins >= 0.0, axis=1)
    l_identity = _margin_loss(margins, LOGISTIC)
    l_doubled = _margin_loss(4.0 * margins, LOGISTIC)
    if nonneg_rows.any():
        sub = margins[nonneg_rows]
        holds = _margin_loss(4.0 * sub, LOGISTIC) <= _margin_loss(sub, LOGISTIC)
    else:
        holds = True
    return SkipInequalityReport(
        nonneg_margin_fraction=float((margins >= 0.0).mean()),
        l_un_identity=l_identity,
        l_un_doubled=l_doubled,
        holds=bool(holds),
        nonneg_triplet_count=int(nonneg_rows.sum()),
        triplet_count=len(triplets),
    )


def gen_m(inputs: BoundInputs) -> float:
    """Generalization-error expression with implied constants set to 1."""
    first = inputs.R * math.sqrt(inputs.k) * inputs.rademacher / inputs.M
    second = (inputs.R**2 + math.log(inputs.k)) * math.sqrt(
        math.log(1.0 / inputs.delta_conf) / inputs.M
    )
    return first + second


def bound_rhs(l_un_value: float, gen: float, inputs: BoundInputs) -> float:
    """alpha * L_un + eta * Gen_M + eps_slack."""
    return inputs.alpha * l_un_value + inputs.eta * gen + inputs.eps_slack


def bound_report(
    dataset: EmbeddingDataset,
    triplets: list[TripletSample],
    inputs: BoundInputs,
) -> dict:
    """JSON-ready summary: margin stats, both L_un values, Gen_M, bound RHS.

    The bound RHS uses the identity-map L_un, i.e. the bound as it applies
    to the dataset's own embedding.
    """
    skip_rep = skip_inequality_check(dataset, triplets)
    g = gen_m(inputs)
    report = skip_rep.to_json_dict()
    report["gen_m"] = g
    report["bound_rhs"] = bound_rhs(skip_rep.l_un_identity, g, inputs)
    report["config"] = {
        "R": inputs.R, "rademacher": inputs.rademacher, "M": inputs.M,
        "delta_conf": inputs.delta_conf, "k": inputs.k,
        "alpha": inputs.alpha, "eta": inputs.eta, "eps_slack": inputs.eps_slack,
        "loss": LOGISTIC,
    }
    return report
