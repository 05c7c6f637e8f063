"""Downstream quality measures for embeddings.

Two metrics:

* k-nearest-neighbor same-label score: for every labeled point, the
  fraction of its k nearest neighbors (Euclidean by default, self
  excluded, distance ties broken toward the lower row index) that share
  its label, averaged over all points. Query rows are handled in fixed
  blocks of `_KNN_BLOCK_ROWS`: each block forms its block x N distances
  once, finds the k-th smallest by partitioning a copy, and counts the
  entries below it plus the lowest-index entries equal to it. Worker
  threads take the blocks in turn; memory is two block x N buffers per
  worker, and since the blocks do not depend on the thread count, neither
  does the score.
* probe accuracy: a classifier trained on frozen embeddings. "linear" is
  multinomial logistic regression fit by full-batch gradient descent;
  "mlp3" is a 3-layer ReLU network (input -> hidden -> hidden -> classes)
  built from the nn_core layer kit and fit with Adam. Features are
  standardized with train-split statistics inside the probe.

`compare_embeddings` applies one shared train/test index split to an
original/refined dataset pair and reports both metrics plus deltas.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .embedding_store import (
    EmbeddingDataset,
    dataset_fingerprint,
    split,
    split_indices,
    take_rows,
)
from .errors import ShapeError, ValidationError
from .nn_core import LinearLayer, linear_apply, linear_backward, linear_init, relu_apply, relu_backward
from .utils import worker_count

LINEAR = "linear"
MLP3 = "mlp3"

# anchor rows per block of the distance matrix in `knn_same_label_score`
_KNN_BLOCK_ROWS = 256


@dataclass(frozen=True)
class ProbeConfig:
    kind: str = LINEAR
    hidden_dim: int = 64
    learning_rate: float | None = None  # None -> per-kind default
    epochs: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in (LINEAR, MLP3):
            raise ValidationError(f"probe kind must be {LINEAR!r} or {MLP3!r}")
        if self.hidden_dim < 1:
            raise ValidationError("hidden_dim must be >= 1")

    @property
    def resolved_lr(self) -> float:
        if self.learning_rate is not None:
            return self.learning_rate
        return 0.5 if self.kind == LINEAR else 0.01

    @property
    def resolved_epochs(self) -> int:
        if self.epochs is not None:
            return self.epochs
        return 500 if self.kind == LINEAR else 300


@dataclass(frozen=True)
class SplitConfig:
    train_fraction: float = 0.8
    seed: int = 0
    stratified: bool = True


# ---------------------------------------------------------------------------
# kNN same-label score


def knn_same_label_score(dataset: EmbeddingDataset, k: int = 10,
                         metric: str = "euclidean") -> float:
    if dataset.labels is None:
        raise ValidationError("knn_same_label_score requires labels")
    if k < 1:
        raise ValidationError("k must be >= 1")
    if dataset.count <= k:
        raise ValidationError(f"need more than k={k} points, got {dataset.count}")
    if metric not in ("euclidean", "cosine"):
        raise ValidationError(f"metric must be 'euclidean' or 'cosine', got {metric!r}")

    x = dataset.vectors
    labels = dataset.labels
    n = dataset.count
    if metric == "euclidean":
        sq = (x * x).sum(axis=1)

        def distances(r0, r1, out):
            np.matmul(x[r0:r1], x.T, out=out)
            out *= -2.0
            out += sq[r0:r1, None]
            out += sq[None, :]
    else:
        norms = np.linalg.norm(x, axis=1)
        if np.any(norms == 0.0):
            raise ValidationError("cosine metric requires nonzero rows")
        xn = x / norms[:, None]

        def distances(r0, r1, out):
            np.matmul(xn[r0:r1], xn.T, out=out)
            np.subtract(1.0, out, out=out)

    fractions = np.empty(n)
    starts = range(0, n, _KNN_BLOCK_ROWS)
    workers = min(worker_count(), len(starts))
    # Two block x N buffers per worker, allocated by the calling thread: the
    # blocks that worker threads allocate themselves stay cached in their
    # malloc arenas after the call, where the rest of the process cannot
    # reuse them, and the process's peak RSS then varies from run to run.
    rows = min(_KNN_BLOCK_ROWS, n)
    scratch = [(np.empty((rows, n)), np.empty((rows, n))) for _ in range(workers)]

    def fill(worker: int):
        dist_buf, part_buf = scratch[worker]
        for r0 in starts[worker::workers]:
            r1 = min(r0 + _KNN_BLOCK_ROWS, n)
            d, part = dist_buf[:r1 - r0], part_buf[:r1 - r0]
            distances(r0, r1, out=d)
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

    if workers <= 1:
        fill(0)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, range(workers)))
    return float(fractions.mean())


# ---------------------------------------------------------------------------
# probes


@dataclass
class ProbeModel:
    kind: str
    classes: np.ndarray     # original label values, sorted
    feat_mean: np.ndarray
    feat_scale: np.ndarray
    layers: list[LinearLayer]

    @property
    def dim(self) -> int:
        return self.layers[0].in_dim

    def scores(self, vectors: np.ndarray) -> np.ndarray:
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise ShapeError(f"probe expects dim {self.dim}, got {vectors.shape}")
        h = (vectors - self.feat_mean) / self.feat_scale
        for i, layer in enumerate(self.layers):
            h, _ = linear_apply(layer, h)
            if i < len(self.layers) - 1:
                h, _ = relu_apply(h)
        return h

    def predict(self, vectors: np.ndarray) -> np.ndarray:
        return self.classes[self.scores(vectors).argmax(axis=1)]


def _softmax_xent_grad(logits: np.ndarray, y: np.ndarray):
    shifted = logits - logits.max(axis=1, keepdims=True)
    expl = np.exp(shifted)
    probs = expl / expl.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    loss = -np.log(probs[np.arange(n), y] + 1e-300).mean()
    dlogits = probs
    dlogits[np.arange(n), y] -= 1.0
    return loss, dlogits / n


def train_probe(train: EmbeddingDataset, cfg: ProbeConfig | None = None) -> ProbeModel:
    cfg = cfg or ProbeConfig()
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

    if cfg.kind == LINEAR:
        layer = LinearLayer(np.zeros((n_classes, train.dim)), np.zeros(n_classes))
        lr = cfg.resolved_lr
        for _ in range(cfg.resolved_epochs):
            logits, cache = linear_apply(layer, xs)
            _, dlogits = _softmax_xent_grad(logits, y)
            dw, db, _ = linear_backward(cache, dlogits)
            layer.weight -= lr * dw
            layer.bias -= lr * db
        layers = [layer]
    else:
        rng = np.random.default_rng(cfg.seed)
        layers = [
            linear_init(train.dim, cfg.hidden_dim, rng),
            linear_init(cfg.hidden_dim, cfg.hidden_dim, rng),
            linear_init(cfg.hidden_dim, n_classes, rng),
        ]
        arrays = {}
        for i, layer in enumerate(layers):
            arrays[f"w{i}"] = layer.weight
            arrays[f"b{i}"] = layer.bias
        m = {name: np.zeros_like(a) for name, a in arrays.items()}
        v = {name: np.zeros_like(a) for name, a in arrays.items()}
        lr, b1, b2, eps = cfg.resolved_lr, 0.9, 0.999, 1e-8
        for t in range(1, cfg.resolved_epochs + 1):
            h = xs
            caches = []
            for i, layer in enumerate(layers):
                h, c_lin = linear_apply(layer, h)
                c_relu = None
                if i < len(layers) - 1:
                    h, c_relu = relu_apply(h)
                caches.append((c_lin, c_relu))
            _, dh = _softmax_xent_grad(h, y)
            grads = {}
            for i in reversed(range(len(layers))):
                c_lin, c_relu = caches[i]
                if c_relu is not None:
                    dh = relu_backward(c_relu, dh)
                grads[f"w{i}"], grads[f"b{i}"], dh = linear_backward(c_lin, dh)
            for name in sorted(arrays):
                g = grads[name]
                m[name] = b1 * m[name] + (1 - b1) * g
                v[name] = b2 * v[name] + (1 - b2) * g * g
                arrays[name] -= (
                    lr * (m[name] / (1 - b1**t)) / (np.sqrt(v[name] / (1 - b2**t)) + eps)
                )

    return ProbeModel(cfg.kind, classes, mean, scale, layers)


def evaluate_probe(model: ProbeModel, test: EmbeddingDataset) -> float:
    if test.labels is None:
        raise ValidationError("evaluate_probe requires labels")
    if test.count == 0:
        raise ValidationError("test set is empty")
    return float((model.predict(test.vectors) == test.labels).mean())


def per_class_accuracy(model: ProbeModel, test: EmbeddingDataset) -> dict[int, float]:
    pred = model.predict(test.vectors)
    return {
        int(c): float((pred[test.labels == c] == c).mean())
        for c in np.unique(test.labels)
    }


# ---------------------------------------------------------------------------
# reports


@dataclass
class EvalReport:
    knn_score: float
    probe_accuracy: float
    per_class: dict[int, float]
    probe_config: ProbeConfig
    split_config: SplitConfig
    knn_k: int
    fingerprint: str

    def to_json_dict(self) -> dict:
        return {
            "knn_score": self.knn_score,
            "probe_accuracy": self.probe_accuracy,
            "per_class_accuracy": {str(k): v for k, v in self.per_class.items()},
            "probe_config": dataclasses.asdict(self.probe_config),
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

    def to_json_dict(self) -> dict:
        return {
            "original": self.original.to_json_dict(),
            "refined": self.refined.to_json_dict(),
            "deltas": {"knn_score": self.knn_delta, "probe_accuracy": self.probe_delta},
        }

    def to_csv_row(self) -> tuple[list[str], list[str]]:
        header = ["orig_knn", "orig_probe", "refined_knn", "refined_probe",
                  "knn_delta", "probe_delta"]
        row = [f"{v:.6f}" for v in (
            self.original.knn_score, self.original.probe_accuracy,
            self.refined.knn_score, self.refined.probe_accuracy,
            self.knn_delta, self.probe_delta,
        )]
        return header, row


def _evaluate_with_split(dataset, train_idx_ds, test_idx_ds, probe_cfg, split_cfg, knn_k):
    model = train_probe(train_idx_ds, probe_cfg)
    return EvalReport(
        knn_score=knn_same_label_score(dataset, k=knn_k),
        probe_accuracy=evaluate_probe(model, test_idx_ds),
        per_class=per_class_accuracy(model, test_idx_ds),
        probe_config=probe_cfg,
        split_config=split_cfg,
        knn_k=knn_k,
        fingerprint=dataset_fingerprint(dataset),
    )


def evaluate_embeddings(
    dataset: EmbeddingDataset,
    probe_cfg: ProbeConfig | None = None,
    split_cfg: SplitConfig | None = None,
    knn_k: int = 10,
) -> EvalReport:
    """Single-dataset report: kNN score on all points, probe on a fresh split."""
    probe_cfg = probe_cfg or ProbeConfig()
    split_cfg = split_cfg or SplitConfig()
    train, test = split(dataset, split_cfg.train_fraction, split_cfg.seed,
                        stratify=split_cfg.stratified)
    return _evaluate_with_split(dataset, train, test, probe_cfg, split_cfg, knn_k)


def compare_embeddings(
    original: EmbeddingDataset,
    refined: EmbeddingDataset,
    probe_cfg: ProbeConfig | None = None,
    split_cfg: SplitConfig | None = None,
    knn_k: int = 10,
) -> ComparisonReport:
    """Evaluate both datasets under one shared train/test index split."""
    probe_cfg = probe_cfg or ProbeConfig()
    split_cfg = split_cfg or SplitConfig()
    if original.labels is None or refined.labels is None:
        raise ValidationError("compare_embeddings requires labels on both datasets")
    if original.count != refined.count:
        raise ValidationError("datasets must have the same number of rows")
    if not np.array_equal(original.labels, refined.labels):
        raise ValidationError("datasets must carry identical labels")

    # split once on row indices, then apply to both datasets
    train_idx, test_idx = split_indices(
        original.count, split_cfg.train_fraction, split_cfg.seed,
        labels=original.labels if split_cfg.stratified else None,
    )
    rep_orig = _evaluate_with_split(
        original, take_rows(original, train_idx), take_rows(original, test_idx),
        probe_cfg, split_cfg, knn_k,
    )
    rep_ref = _evaluate_with_split(
        refined, take_rows(refined, train_idx), take_rows(refined, test_idx),
        probe_cfg, split_cfg, knn_k,
    )
    return ComparisonReport(
        original=rep_orig,
        refined=rep_ref,
        knn_delta=rep_ref.knn_score - rep_orig.knn_score,
        probe_delta=rep_ref.probe_accuracy - rep_orig.probe_accuracy,
    )
