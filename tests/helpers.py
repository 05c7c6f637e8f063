"""Independent oracles and test tools shared across test modules.

The oracles are deliberately written as plain loops over scalars, or as a
plain-NumPy copy of an earlier implementation, so they share no code path
with the implementations they check. The rest are not oracles:
`patch_block_budget` shrinks the blocked kernels' cache budget and counts
the blocks they run, `drawn_head_params` builds a model whose gradients
reach every layer, and `grad_check` and `hinge_loss` are package code that
only tests called, moved here unchanged.
"""

import dataclasses
import math

import numpy as np

from simskip import utils
from simskip.errors import NumericsError, ShapeError, ValidationError
from simskip.model import init_params


def patch_block_budget(mp, module, budget):
    """Set the blocked kernels' cache budget to `budget` bytes under the
    MonkeyPatch `mp`, and spy on the block sizes `module` takes from
    `utils.block_rows`. Returns a list that gets, per call, the number of
    blocks the kernel's rows split into."""
    mp.setattr(utils, "_CACHE_BLOCK_BYTES", budget)
    counts = []

    def spy(row_bytes, rows):
        block = utils.block_rows(row_bytes, rows)
        counts.append(math.ceil(rows / block))
        return block

    mp.setattr(module, "block_rows", spy)
    return counts


def drawn_head_params(d, seed, skip_enabled=True):
    """`init_params(d, seed)` with the residual head drawn like every other
    linear layer, whatever the skip flag: a zero head would zero the
    gradients of the layers before it."""
    return dataclasses.replace(init_params(d, seed, skip_enabled=False),
                               skip_enabled=skip_enabled)


def grad_check(loss_fn, arrays: dict[str, np.ndarray], h: float = 1e-5) -> float:
    """Compare analytic gradients against central finite differences.

    `loss_fn()` must be deterministic, read the (mutable) arrays in
    `arrays`, and return (loss, grads) where grads maps each key in
    `arrays` to the analytic gradient of the loss w.r.t. that array.
    Returns the max relative error over every coordinate of every array.
    The analytic gradients are copied first, so `loss_fn` may reuse buffers.
    """
    loss, grads = loss_fn()
    if not np.isfinite(loss):
        raise NumericsError("loss is non-finite")
    grads = {name: np.array(grads[name], dtype=np.float64) for name in arrays}
    max_rel = 0.0
    for name in sorted(arrays):
        arr = arrays[name]
        analytic = grads[name]
        if analytic.shape != arr.shape:
            raise ShapeError(f"gradient for {name!r} has shape {analytic.shape}, "
                             f"expected {arr.shape}")
        if not np.all(np.isfinite(analytic)):
            raise NumericsError(f"analytic gradient for {name!r} is non-finite")
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + h
            f_plus = loss_fn()[0]
            arr[idx] = orig - h
            f_minus = loss_fn()[0]
            arr[idx] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NumericsError(f"non-finite loss while perturbing {name!r}")
            numeric = (f_plus - f_minus) / (2.0 * h)
            denom = max(abs(analytic[idx]) + abs(numeric), 1e-8)
            max_rel = max(max_rel, abs(analytic[idx] - numeric) / denom)
    return max_rel


def hinge_loss(v):
    """max(0, 1 - min_i v_i) over the last axis of `v`."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise ValidationError("hinge_loss needs at least one margin")
    if not np.all(np.isfinite(v)):
        raise ValidationError("hinge_loss requires finite margins")
    return np.maximum(0.0, 1.0 - v.min(axis=-1))


def brute_force_nt_xent(z, tau):
    """O(N^2) literal evaluation of the paired contrastive loss."""
    z = np.asarray(z, dtype=np.float64)
    rows = z.shape[0]

    def cos(i, j):
        num = sum(float(z[i, t]) * float(z[j, t]) for t in range(z.shape[1]))
        ni = math.sqrt(sum(float(z[i, t]) ** 2 for t in range(z.shape[1])))
        nj = math.sqrt(sum(float(z[j, t]) ** 2 for t in range(z.shape[1])))
        return max(-1.0, min(1.0, num / (ni * nj)))

    total = 0.0
    for i in range(rows):
        partner = i + 1 if i % 2 == 0 else i - 1
        numer = math.exp(cos(i, partner) / tau)
        denom = 0.0
        for k in range(rows):
            if k == i:
                continue
            denom += math.exp(cos(i, k) / tau)
        total += -math.log(numer / denom)
    return total / rows


def log_space_nt_xent(z, tau):
    """The same literal loop as `brute_force_nt_xent`, with each anchor's
    log-sum-exp shifted by its largest logit, so tiny tau cannot overflow."""
    z = np.asarray(z, dtype=np.float64)
    rows, dim = z.shape
    norm = [math.sqrt(sum(float(z[i, t]) ** 2 for t in range(dim))) for i in range(rows)]

    def logit(i, j):
        num = sum(float(z[i, t]) * float(z[j, t]) for t in range(dim))
        return max(-1.0, min(1.0, num / (norm[i] * norm[j]))) / tau

    total = 0.0
    for i in range(rows):
        partner = i + 1 if i % 2 == 0 else i - 1
        others = [logit(i, k) for k in range(rows) if k != i]
        top = max(others)
        lse = top + math.log(sum(math.exp(x - top) for x in others))
        total += lse - logit(i, partner)
    return total / rows


def brute_force_knn_score(vectors, labels, k):
    """Per-query loop with (distance, index) sorting; ties go to lower index."""
    n = len(vectors)
    total = 0.0
    for i in range(n):
        dists = []
        for j in range(n):
            if j == i:
                continue
            d = math.sqrt(sum((float(a) - float(b)) ** 2 for a, b in zip(vectors[i], vectors[j])))
            dists.append((d, j))
        dists.sort()
        neighbors = [j for _, j in dists[:k]]
        total += sum(1 for j in neighbors if labels[j] == labels[i]) / k
    return total / n


def orthogonal_class_means(num_classes, dim, separation):
    """Class c sits at separation * e_c: directions away from the origin.

    Dot-product margins x . (x+ - x-) need classes in distinct directions
    with nonzero norms, which the default collinear layout (class 0 at the
    origin) does not give.
    """
    assert num_classes <= dim
    means = np.zeros((num_classes, dim))
    means[np.arange(num_classes), np.arange(num_classes)] = separation
    return means


def reference_train_probe(vectors, labels, kind, hidden_dim, lr, epochs, seed):
    """The probe fit as it was before `train_probe` shared the trainer's Adam:
    full-batch gradient descent for "linear", its own out-of-place Adam loop
    over a 3-layer ReLU network for "mlp3". Returns [(weight, bias), ...]."""
    classes = np.unique(labels)
    y = np.searchsorted(classes, labels)
    mean = vectors.mean(axis=0)
    scale = np.maximum(vectors.std(axis=0), 1e-12)
    xs = (vectors - mean) / scale
    n = xs.shape[0]

    def dlogits_of(logits):
        shifted = logits - logits.max(axis=1, keepdims=True)
        expl = np.exp(shifted)
        probs = expl / expl.sum(axis=1, keepdims=True)
        probs[np.arange(n), y] -= 1.0
        return probs / n

    if kind == "linear":
        w, b = np.zeros((classes.size, xs.shape[1])), np.zeros(classes.size)
        for _ in range(epochs):
            dout = dlogits_of(xs @ w.T + b)
            w -= lr * (dout.T @ xs)
            b -= lr * dout.sum(axis=0)
        return [(w, b)]

    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out in ((xs.shape[1], hidden_dim), (hidden_dim, hidden_dim),
                            (hidden_dim, classes.size)):
        bound = 1.0 / np.sqrt(fan_in)
        w = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        layers.append([w, rng.uniform(-bound, bound, size=fan_out)])
    m = [[np.zeros_like(a) for a in layer] for layer in layers]
    v = [[np.zeros_like(a) for a in layer] for layer in layers]
    b1, b2, eps = 0.9, 0.999, 1e-8
    for t in range(1, epochs + 1):
        h, inputs, masks = xs, [], []
        for i, (w, b) in enumerate(layers):
            inputs.append(h)
            h = h @ w.T + b
            if i < len(layers) - 1:
                masks.append(h > 0)
                h = np.maximum(h, 0.0)
        dh = dlogits_of(h)
        grads = [None] * len(layers)
        for i in reversed(range(len(layers))):
            if i < len(layers) - 1:
                dh = dh * masks[i]
            grads[i] = (dh.T @ inputs[i], dh.sum(axis=0))
            dh = dh @ layers[i][0]
        for i, layer in enumerate(layers):
            for j, g in enumerate(grads[i]):
                m[i][j] = b1 * m[i][j] + (1 - b1) * g
                v[i][j] = b2 * v[i][j] + (1 - b2) * g * g
                layer[j] -= lr * (m[i][j] / (1 - b1**t)) / (np.sqrt(v[i][j] / (1 - b2**t)) + eps)
    return [tuple(layer) for layer in layers]


def reference_triplet_margins(embedded, triplets):
    """Triplet margins as computed before the one-column-at-a-time loop: one
    einsum over T x k x d gathered negatives and their differences."""
    diff = embedded[triplets.positives][:, None, :] - embedded[triplets.negatives]
    return np.einsum("td,tkd->tk", embedded[triplets.anchors], diff)
