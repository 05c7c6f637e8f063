"""Independent oracles shared across test modules.

Everything here is deliberately written as plain loops over scalars, so it
shares no code path with the vectorized implementations it checks.
"""

import math

import numpy as np


def brute_force_nt_xent(z, tau, exclude_positive=False):
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
            if exclude_positive and k == partner:
                continue
            denom += math.exp(cos(i, k) / tau)
        total += -math.log(numer / denom)
    return total / rows


def log_space_nt_xent(z, tau, exclude_positive=False):
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
        others = [logit(i, k) for k in range(rows)
                  if k != i and not (exclude_positive and k == partner)]
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
