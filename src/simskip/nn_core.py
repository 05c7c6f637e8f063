"""Differentiable building blocks with explicit forward/backward passes, and Adam.

Every layer is a pair of functions over plain arrays: `*_apply` takes the
input and the layer's tensors and returns (output, cache), and the matching
`*_backward` consumes the cache plus the upstream gradient and returns the
input gradient; parameter gradients go into buffers the caller passes
(views laid out like the parameters, in `model`). Tensors may be views
too, and no function here rebinds one: training-pass batch norm writes its
running statistics into the arrays it is given. Assign to a tensor through
`[...]`. ReLU and dropout hold no tensors; dropout takes its rate as an
argument. `adam_step` is the one optimizer: training and the mlp3 probe call it.
Inputs are float64 arrays, converted by `model`'s forward passes, never here;
float64 lets analytic gradients be checked against central finite
differences to tight tolerances.

A cache holds what its backward pass reads and nothing more: linear's the
input and the weight; batch norm's the normalized input xhat, 1/std,
gamma and the pass's kind; ReLU's the boolean mask of positive inputs;
dropout's the boolean keep mask and the rate, the 1/(1-rate) scale being
formed only while it is used. Beyond the buffers it is given to write
(parameter gradients, running statistics, and Adam's parameters and
moments), no function writes to an array its caller passed in. Each forms
its result in place in arrays it allocated itself, so a result is a new
array, which the caller may overwrite, except where the layer is the
identity: dropout without a generator or at rate 0 returns its input.

A training pass (batch norm's `train`; dropout given a generator) uses
batch statistics and random masks; the eval pass is deterministic (batch
norm reads its running statistics, dropout is the identity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, ShapeError, ValidationError
from .utils import block_rows


def flat_views(flat: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Views of the vector `flat` with the given shapes, laid end to end and
    filling it exactly."""
    sizes = [math.prod(shape) for shape in shapes]
    if flat.shape != (sum(sizes),):
        raise ShapeError(f"tensors of {sum(sizes)} elements cannot fill shape {flat.shape}")
    parts = np.split(flat, np.cumsum(sizes)[:-1])
    return [part.reshape(shape) for part, shape in zip(parts, shapes)]


# ---------------------------------------------------------------------------
# linear


def linear_init(weight: np.ndarray, bias: np.ndarray | None, rng: np.random.Generator,
                zero: bool = False) -> None:
    """Fill `weight` (out_dim, in_dim), then `bias` (out_dim,; None for a
    layer without one), in place with Uniform(-1/sqrt(in_dim), +1/sqrt(in_dim)).

    The draws go straight into the (contiguous) arrays, bitwise the values
    of `rng.uniform(-bound, bound)`. Nonzero biases keep ReLU-dead rows away
    from the exact zero vector, where cosine similarity is undefined. `zero`
    zeroes the tensors (the residual output head, so the encoder starts as
    the identity).
    """
    bound = 1.0 / np.sqrt(weight.shape[1])
    for tensor in (t for t in (weight, bias) if t is not None):
        if zero:
            tensor[...] = 0.0
        else:
            rng.random(out=tensor)
            tensor *= 2 * bound
            tensor -= bound


def linear_apply(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None):
    """out = x @ weight.T + bias rowwise over the batch, or x @ weight.T when
    `bias` is None (a layer before batch norm, which cancels any bias)."""
    if x.ndim != 2 or x.shape[1] != weight.shape[1]:
        raise ShapeError(f"expected input (B, {weight.shape[1]}), got {x.shape}")
    out = x @ weight.T
    if bias is not None:
        out += bias
    return out, (x, weight)


def linear_backward(cache, dout: np.ndarray, dw: np.ndarray, db: np.ndarray | None,
                    input_grad: bool = True) -> np.ndarray | None:
    """Write the gradients into `dw` and `db` (None when the layer has no
    bias); return the input gradient, or None when `input_grad` is false."""
    x, weight = cache
    np.matmul(dout.T, x, out=dw)
    if db is not None:
        np.sum(dout, axis=0, out=db)
    return dout @ weight if input_grad else None


# ---------------------------------------------------------------------------
# batch normalization


BN_EPS = 1e-5
BN_MOMENTUM = 0.1  # new_running = (1 - momentum) * old + momentum * batch


def batchnorm_apply(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                    running_mean: np.ndarray, running_var: np.ndarray, train: bool = False):
    """Normalize per column. A training pass (`train`) uses the (biased)
    batch statistics and updates `running_mean` and `running_var` in place;
    the eval pass reads them."""
    if train:
        if x.shape[0] < 2:
            raise ValidationError("a batch norm training pass needs a batch of >= 2 rows")
        mean = x.mean(axis=0)
        var = x.var(axis=0)  # biased (divide by B)
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat = x - mean
        for running, batch in ((running_mean, mean), (running_var, var)):
            running *= 1 - BN_MOMENTUM
            running += BN_MOMENTUM * batch
    else:
        inv_std = 1.0 / np.sqrt(running_var + BN_EPS)
        xhat = x - running_mean
    xhat *= inv_std
    out = gamma * xhat
    out += beta
    return out, (xhat, inv_std, gamma, train)


def batchnorm_backward(cache, dout: np.ndarray, dgamma: np.ndarray,
                       dbeta: np.ndarray) -> np.ndarray:
    xhat, inv_std, gamma, train = cache
    scratch = dout * xhat
    np.sum(scratch, axis=0, out=dgamma)
    np.sum(dout, axis=0, out=dbeta)
    dx = dout * gamma  # dxhat, turned into dx in place
    if train:
        # through the batch mean and variance:
        # dx = (inv_std / b) * ((b * dxhat - sum(dxhat)) - xhat * sum(dxhat * xhat))
        b = xhat.shape[0]
        mean_term = dx.sum(axis=0)
        np.multiply(dx, xhat, out=scratch)
        var_term = np.multiply(xhat, scratch.sum(axis=0), out=scratch)
        dx *= b
        dx -= mean_term
        dx -= var_term
        dx *= inv_std / b
    else:
        dx *= inv_std
    return dx


# ---------------------------------------------------------------------------
# relu / dropout


def relu_apply(x: np.ndarray):
    return np.maximum(x, 0.0), (x > 0)


def relu_backward(cache, dout: np.ndarray):
    # subgradient at 0 is taken as 0
    return dout * cache


def dropout_apply(x: np.ndarray, rate: float, rng: np.random.Generator | None = None):
    """Inverted dropout: survivors are scaled by 1/(1-rate), with the mask
    drawn from `rng`; the identity when no generator is given. The cache is
    the boolean keep mask and the rate."""
    if not (0.0 <= rate < 1.0):
        raise ValidationError(f"dropout rate must lie in [0,1), got {rate}")
    if rng is None or rate == 0.0:
        return x, None
    out = rng.random(x.shape)
    keep = out >= rate
    np.divide(keep, 1.0 - rate, out=out)  # the scale, then the output in place
    out *= x
    return out, (keep, rate)


def dropout_backward(cache, dout: np.ndarray):
    if cache is None:
        return dout
    keep, rate = cache
    dx = keep / (1.0 - rate)
    dx *= dout
    return dx


# ---------------------------------------------------------------------------
# adam


# Adam's moment decay rates and denominator offset (Kingma & Ba 2015)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray


def adam_init(params: np.ndarray) -> AdamState:
    return AdamState(m=np.zeros_like(params), v=np.zeros_like(params))


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState, t: int,
              lr: float) -> None:
    """One bias-corrected Adam update at ADAM_BETA1, ADAM_BETA2 and ADAM_EPS
    of the 1-D vector `params` (one layer's slice of a model's arena, say),
    in place; t counts from 1. `grads` is only read.

    A gradient of the wrong shape or with a non-finite entry is rejected
    before anything changes. The update then runs over blocks of as many
    elements as `utils.block_rows` fits in the cache budget at 48 bytes an
    element (the parameters, m, v, g and two scratch arrays), each block
    kept in cache through every pass, in the order of the textbook form
    lr * m_hat / (sqrt(v_hat) + eps), so the result is bitwise the same as
    evaluating that expression.
    """
    if t < 1:
        raise ValidationError(f"step index must be >= 1, got {t}")
    if params.ndim != 1 or grads.shape != params.shape:
        raise ValidationError(f"gradient shape {grads.shape} does not match the "
                              f"parameter vector's {params.shape}")
    if not np.all(np.isfinite(grads)):
        raise NumericsError("non-finite gradient")
    width = block_rows(48, params.size)
    buf, step_buf = np.empty(width), np.empty(width)
    c1, c2 = 1 - ADAM_BETA1**t, 1 - ADAM_BETA2**t
    for b0 in range(0, params.size, width):
        b1 = b0 + width
        g, m, v = grads[b0:b1], state.m[b0:b1], state.v[b0:b1]
        scratch, step = buf[:g.size], step_buf[:g.size]
        # m = beta1 * m + (1 - beta1) * g
        np.multiply(g, 1 - ADAM_BETA1, out=scratch)
        m *= ADAM_BETA1
        m += scratch
        # v = beta2 * v + (1 - beta2) * g * g
        np.multiply(g, 1 - ADAM_BETA2, out=scratch)
        scratch *= g
        v *= ADAM_BETA2
        v += scratch
        # params -= lr * m_hat / (sqrt(v_hat) + eps)
        np.divide(v, c2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += ADAM_EPS
        np.divide(m, c1, out=step)
        step *= lr
        step /= scratch
        params[b0:b1] -= step
