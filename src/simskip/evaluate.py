"""Downstream quality measures for embeddings.

Two metrics:

* k-nearest-neighbor same-label score: for every labeled point, the
  fraction of its k nearest Euclidean neighbors (self excluded, distance
  ties broken toward the lower row index) that share its label, averaged
  over all points. Query rows are handled in blocks, as many as
  `utils.block_rows` fits in the cache budget at 16 * N bytes a row: each
  block forms its block x N squared distances once, finds the k-th
  smallest by partitioning a copy, and counts the entries below it plus
  the lowest-index entries equal to it. The blocks run in one loop on the
  calling thread through two block x N buffers allocated once per call.
* probe accuracy: a classifier trained on frozen embeddings. A probe's
  kind is its config type, which holds exactly the settings its fit reads.
  `LinearProbe` (kind "linear": learning_rate, epochs) is a single layer,
  multinomial logistic regression started at zero and fit by full-batch
  gradient descent; `MLP3Probe` (kind "mlp3": hidden_dim, learning_rate,
  epochs, seed) is a 3-layer ReLU network (input -> hidden -> hidden ->
  classes) drawn from its seed and fit with the trainer's Adam. Both are
  a list of (weight, bias) layers with ReLU between them, run by one
  forward/backward pair. Features are standardized with train-split
  statistics inside the probe. A fit packs every weight and bias into one
  vector, the layers being views of it, and allocates one workspace
  (activations, input-gradient buffers, one gradient vector of the same
  layout) before its first step. Every step writes through it, softmax
  cross-entropy gradient included, and updates the weight vector in one
  pass. The ReLU backward reads its mask off the stored activation,
  positive exactly where its input is, and the first layer's input
  gradient is never formed. Prediction runs the same forward pass through
  activation buffers only, once per test set, for the accuracy and the
  per-class accuracies alike.

`evaluate_embeddings` is the one path that scores a dataset: stratified
split, kNN, probe fit, one prediction and fingerprint. kNN runs before the
fit, so a k the dataset cannot serve fails before any probe trains.
`compare_embeddings` runs it on an original/refined pair, which must share
row count and labels, so both get the same split, and reports the deltas.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .embedding_store import EmbeddingDataset, dataset_fingerprint, split
from .errors import ShapeError, ValidationError
from .nn_core import flat_views, linear_init
from .trainer import adam_init, adam_step
from .utils import block_rows

LINEAR = "linear"
MLP3 = "mlp3"

_Layers = list[tuple[np.ndarray, np.ndarray]]  # each layer's (weight, bias), input layer first


class _Probe:
    """A probe type's rate and epoch checks, and its report record: its
    kind and every setting its fit reads."""

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:
            raise ValidationError("probe learning_rate must be finite and > 0")
        if self.epochs < 0:
            raise ValidationError("probe epochs must be >= 0")

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, **dataclasses.asdict(self)}


@dataclass(frozen=True)
class LinearProbe(_Probe):
    """One layer, started at zero and fit by full-batch gradient descent,
    so it has no width and no seed."""

    kind: ClassVar[str] = LINEAR
    learning_rate: float = 0.5
    epochs: int = 500


@dataclass(frozen=True)
class MLP3Probe(_Probe):
    """Two ReLU hidden layers of `hidden_dim` units, drawn from `seed` and
    fit with the trainer's Adam."""

    kind: ClassVar[str] = MLP3
    hidden_dim: int = 64
    learning_rate: float = 0.01
    epochs: int = 300
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.hidden_dim < 1:
            raise ValidationError("hidden_dim must be >= 1")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class SplitConfig:
    train_fraction: float = 0.8
    seed: int = 0


# ---------------------------------------------------------------------------
# kNN same-label score


def knn_same_label_score(dataset: EmbeddingDataset, k: int = 10) -> float:
    if dataset.labels is None:
        raise ValidationError("knn_same_label_score requires labels")
    if k < 1:
        raise ValidationError("k must be >= 1")
    if dataset.count <= k:
        raise ValidationError(f"need more than k={k} points, got {dataset.count}")

    x = dataset.vectors
    labels = dataset.labels
    n = dataset.count
    sq = (x * x).sum(axis=1)
    fractions = np.empty(n)
    block = block_rows(16 * n, n)
    dist_buf, part_buf = np.empty((block, n)), np.empty((block, n))
    for r0 in range(0, n, block):
        r1 = min(r0 + block, n)
        d, part = dist_buf[:r1 - r0], part_buf[:r1 - r0]
        np.matmul(x[r0:r1], x.T, out=d)
        d *= -2.0
        d += sq[r0:r1, None]
        d += sq[None, :]
        local = np.arange(r1 - r0)
        d[local, local + r0] = np.inf  # exclude self
        part[...] = d
        part.partition(k - 1, axis=1)
        kth = part[:, k - 1:k]
        same = labels[None, :] == labels[r0:r1, None]
        within = d <= kth
        hits = (within & same).sum(axis=1)
        # ties at the k-th distance go to the lower index: where more than
        # k entries are within reach, drop the surplus highest-index ties
        surplus = within.sum(axis=1) - k
        over = np.flatnonzero(surplus > 0)
        if over.size:
            ties = d[over] == kth[over]
            kept = ties.sum(axis=1) - surplus[over]
            dropped = ties & (np.cumsum(ties, axis=1) > kept[:, None])
            hits[over] -= (dropped & same[over]).sum(axis=1)
        fractions[r0:r1] = hits / k
    return float(fractions.mean())


# ---------------------------------------------------------------------------
# probes


@dataclass
class ProbeModel:
    classes: np.ndarray     # original label values, sorted
    feat_mean: np.ndarray
    feat_scale: np.ndarray
    layers: _Layers

    def predict(self, vectors: np.ndarray) -> np.ndarray:
        vectors = np.asarray(vectors, dtype=np.float64)
        in_dim = self.layers[0][0].shape[1]
        if vectors.ndim != 2 or vectors.shape[1] != in_dim:
            raise ShapeError(f"probe expects dim {in_dim}, got {vectors.shape}")
        xs = (vectors - self.feat_mean) / self.feat_scale
        acts = [np.empty((len(xs), weight.shape[0])) for weight, _ in self.layers]
        return self.classes[_probe_forward(self.layers, xs, acts).argmax(axis=1)]


class _ProbeWorkspace:
    """Every buffer one forward/backward pass of a fit of the layer `widths`
    writes over its rows, whose class indices are `y`, allocated once so
    that its steps reuse them."""

    def __init__(self, widths: list[int], y: np.ndarray):
        n = len(y)
        # each layer's output; a hidden layer's holds its ReLU output
        self.acts = [np.empty((n, width)) for width in widths[1:]]
        # gradient with respect to the input of layers 1.. (never layer 0's)
        self.dins = [np.empty((n, width)) for width in widths[1:-1]]
        # one gradient vector laid out like the fit's weight vector
        self.grad = np.empty(sum((n_in + 1) * n_out for n_in, n_out in zip(widths, widths[1:])))
        self.grads = _layer_views(self.grad, widths)
        # flat index of each row's label logit in the last layer's output
        self.label_logits = np.arange(n) * widths[-1] + y
        self.col = np.empty((n, 1))


def _layer_views(flat: np.ndarray, widths: list[int]) -> _Layers:
    """(weight, bias) of each layer, views of `flat` laid end to end;
    layer i maps widths[i] features to widths[i + 1]."""
    views = flat_views(flat, [shape for n_in, n_out in zip(widths, widths[1:])
                              for shape in ((n_out, n_in), (n_out,))])
    return list(zip(views[::2], views[1::2]))


def _probe_forward(layers: _Layers, x: np.ndarray, acts: list[np.ndarray]) -> np.ndarray:
    """Logits of the layer stack, x @ W.T + b with ReLU between layers,
    written into `acts`, one buffer a layer; the last of them is returned."""
    h = x
    for i, (weight, bias) in enumerate(layers):
        out = acts[i]
        np.matmul(h, weight.T, out=out)
        out += bias
        if i < len(layers) - 1:
            np.maximum(out, 0.0, out=out)
        h = out
    return h


def _probe_backward(layers: _Layers, x: np.ndarray, ws: _ProbeWorkspace,
                    dlogits: np.ndarray) -> np.ndarray:
    """`ws.grad`, filled after a `_probe_forward` of `x` through `ws`."""
    dh = dlogits
    for i in reversed(range(len(layers))):
        if i < len(layers) - 1:
            np.multiply(dh, ws.acts[i] > 0.0, out=dh)  # ReLU: subgradient 0 at 0
        dw, db = ws.grads[i]
        np.matmul(dh.T, ws.acts[i - 1] if i else x, out=dw)
        np.einsum("ij->j", dh, out=db)  # rows summed in order
        if i:
            dh = np.matmul(dh, layers[i][0], out=ws.dins[i - 1])
    return ws.grad


def _softmax_xent_grad(logits: np.ndarray, ws: _ProbeWorkspace) -> np.ndarray:
    """Overwrite `logits`, the last layer output in `ws`, with the gradient
    of the mean softmax cross-entropy with respect to them, and return it.

    The row max is a running maximum over the logit columns; max is exact,
    so it equals the reduction along rows."""
    row_max = ws.col[:, 0]
    np.copyto(row_max, logits[:, 0])
    for j in range(1, logits.shape[1]):
        np.maximum(row_max, logits[:, j], out=row_max)
    logits -= ws.col
    np.exp(logits, out=logits)
    np.sum(logits, axis=1, keepdims=True, out=ws.col)
    logits /= ws.col
    logits.reshape(-1)[ws.label_logits] -= 1.0
    logits /= logits.shape[0]
    return logits


def train_probe(train: EmbeddingDataset,
                cfg: LinearProbe | MLP3Probe | None = None) -> ProbeModel:
    cfg = cfg or LinearProbe()
    if train.labels is None:
        raise ValidationError("train_probe requires labels")
    classes = np.unique(train.labels)
    if classes.size < 2:
        raise ValidationError("probe training needs at least 2 classes")
    y = np.searchsorted(classes, train.labels)
    mean = train.vectors.mean(axis=0)
    scale = np.maximum(train.vectors.std(axis=0), 1e-12)
    xs = (train.vectors - mean) / scale
    n_classes = classes.size

    widths = [train.dim, *([cfg.hidden_dim] * 2 if cfg.kind == MLP3 else []), n_classes]
    ws = _ProbeWorkspace(widths, y)
    # every weight and bias is a view of one vector laid out like the gradient
    # vector; the linear probe starts at zero
    flat = np.zeros_like(ws.grad)
    layers = _layer_views(flat, widths)
    if cfg.kind == MLP3:
        rng = np.random.default_rng(cfg.seed)
        for weight, bias in layers:
            linear_init(weight, bias, rng)
    state = adam_init(flat) if cfg.kind == MLP3 else None
    for t in range(1, cfg.epochs + 1):
        logits = _probe_forward(layers, xs, ws.acts)
        grad = _probe_backward(layers, xs, ws, _softmax_xent_grad(logits, ws))
        if cfg.kind == LINEAR:
            grad *= cfg.learning_rate
            flat -= grad
        else:
            adam_step(flat, grad, state, t, cfg.learning_rate)

    return ProbeModel(classes, mean, scale, layers)


def evaluate_probe(model: ProbeModel, test: EmbeddingDataset) -> tuple[float, dict[int, float]]:
    """The probe's accuracy on `test` and its accuracy on each class there,
    both from one prediction of the test rows."""
    if test.labels is None:
        raise ValidationError("evaluate_probe requires labels")
    if test.count == 0:
        raise ValidationError("test set is empty")
    correct = model.predict(test.vectors) == test.labels
    per_class = {int(c): float(correct[test.labels == c].mean())
                 for c in np.unique(test.labels)}
    return float(correct.mean()), per_class


# ---------------------------------------------------------------------------
# reports


@dataclass
class EvalReport:
    knn_score: float
    probe_accuracy: float
    per_class: dict[int, float]
    probe_config: LinearProbe | MLP3Probe
    split_config: SplitConfig
    knn_k: int
    fingerprint: str

    def to_json_dict(self) -> dict:
        return {
            "knn_score": self.knn_score,
            "probe_accuracy": self.probe_accuracy,
            "per_class_accuracy": {str(k): v for k, v in self.per_class.items()},
            "probe_config": self.probe_config.to_json_dict(),
            "split_config": dataclasses.asdict(self.split_config),
            "knn_k": self.knn_k,
            "dataset_fingerprint": self.fingerprint,
        }


@dataclass
class ComparisonReport:
    original: EvalReport
    refined: EvalReport
    knn_delta: float
    probe_delta: float


def evaluate_embeddings(
    dataset: EmbeddingDataset,
    probe_cfg: LinearProbe | MLP3Probe | None = None,
    split_cfg: SplitConfig | None = None,
    knn_k: int = 10,
) -> EvalReport:
    """One dataset's report: the probe fit on the train rows of its split
    and scored on the test rows, and the kNN score over all rows."""
    probe_cfg = probe_cfg or LinearProbe()
    split_cfg = split_cfg or SplitConfig()
    train, test = split(dataset, split_cfg.train_fraction, split_cfg.seed)
    knn_score = knn_same_label_score(dataset, k=knn_k)  # a bad k fails before any fit
    accuracy, per_class = evaluate_probe(train_probe(train, probe_cfg), test)
    return EvalReport(
        knn_score=knn_score,
        probe_accuracy=accuracy,
        per_class=per_class,
        probe_config=probe_cfg,
        split_config=split_cfg,
        knn_k=knn_k,
        fingerprint=dataset_fingerprint(dataset),
    )


def compare_embeddings(
    original: EmbeddingDataset,
    refined: EmbeddingDataset,
    probe_cfg: LinearProbe | MLP3Probe | None = None,
    split_cfg: SplitConfig | None = None,
    knn_k: int = 10,
) -> ComparisonReport:
    """Evaluate both datasets, which share rows and labels and so one
    train/test split, and report the deltas."""
    if original.labels is None or refined.labels is None:
        raise ValidationError("compare_embeddings requires labels on both datasets")
    if original.count != refined.count:
        raise ValidationError("datasets must have the same number of rows")
    if not np.array_equal(original.labels, refined.labels):
        raise ValidationError("datasets must carry identical labels")
    rep_orig = evaluate_embeddings(original, probe_cfg, split_cfg, knn_k)
    rep_ref = evaluate_embeddings(refined, probe_cfg, split_cfg, knn_k)
    return ComparisonReport(
        original=rep_orig,
        refined=rep_ref,
        knn_delta=rep_ref.knn_score - rep_orig.knn_score,
        probe_delta=rep_ref.probe_accuracy - rep_orig.probe_accuracy,
    )
