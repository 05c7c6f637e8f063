"""The skip-connection encoder, projector, and checkpoint persistence.

Encoder (input width d, d even):

    block1 = Dropout(ReLU(BN(Linear d -> d/2, no bias)))
    block2 = Dropout(ReLU(BN(Linear d/2 -> d, no bias)))
    (batch norm's beta is the shift; both dropouts at the fixed rate DROPOUT_RATE)
    residual r(x) = Linear_dxd(block2(block1(x)))
    output = x + r(x)        when skip_enabled
           = r(x)            otherwise (the ablation variant)

Projector: z = W2 @ relu(W1 @ h + b1) + b2 with both layers d x d. The
projector exists only to feed the contrastive loss: `refine` returns the
encoder output, and `train` returns the encoder alone.

The residual head, the final d x d linear, follows the skip flag: with the
skip path it starts at zero, so the freshly initialized encoder is exactly
the identity map and refinement starts from the original embedding;
without it the head is drawn like every other linear layer, so the
ablation does not start as the zero map.

Every tensor has one name, its `PARAM_TABLE` key ("layer1.gamma"). A
model holds its tensors in `tensors`, keyed like the table, plus the skip
flag and the width: the training model (`init_params`) all 16, and the
encoder (`encoder_of`, `train`, `load_checkpoint`) the 12 of
`ENCODER_TABLE`, exactly those its checkpoint stores. Forward passes read
`tensors[key]`; backward passes write each parameter gradient into
`grads[key]`, buffers keyed the same way, and return the input's unless
told not to form it, as training does. The trainable tensors are views of
one float64 vector, the arena `flat`, laid end to end in table order, so
each layer's tensors are one slice of it (`layer_slices`) and the
encoder's its prefix; batch norm's running statistics (`TRAINABLE` leaves
them out) are separate arrays that training passes update in place. No
tensor is ever rebound: assign through `[...]`.

A backward pass given `after_layer` calls it with each layer's name
("proj2", "proj1", "out", "layer2", "layer1", in that order) once it no
longer reads that layer's tensors or gradient buffers, so the hook may
update the one and reuse the other, as training does.

A forward pass given a generator `rng` is a training pass (batch
statistics, dropout masks drawn from `rng`); one without is the eval pass.
The passes add the skip path and apply the ReLU masks in place on the
new arrays that `nn_core` returns, and a loss-and-gradient step lets go
of the projector output as soon as the loss is taken, so a step holds
only what its backward pass reads.

Checkpoint format "SSKP", version 3, little-endian: magic "SSKP", u8
version, u8 flags (bit0 = skip_enabled), u32 d, then the float64 tensors
in `ENCODER_TABLE` order. Versions 1 and 2, with the projector, are rejected.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .embedding_store import EmbeddingDataset
from .errors import FormatError, ShapeError, ValidationError
from .nn_core import (
    batchnorm_apply,
    batchnorm_backward,
    dropout_apply,
    dropout_backward,
    flat_views,
    linear_apply,
    linear_backward,
    linear_init,
    relu_apply,
)
from .utils import atomic_write, block_rows

CHECKPOINT_MAGIC = b"SSKP"
CHECKPOINT_VERSION = 3

_CKPT_HEADER = struct.Struct("<4sBBI")  # magic, version, flags, d

DROPOUT_RATE = 0.1


# every tensor of the training model, in arena order
PARAM_TABLE = (
    "layer1.weight", "layer1.gamma", "layer1.beta", "layer1.running_mean", "layer1.running_var",
    "layer2.weight", "layer2.gamma", "layer2.beta", "layer2.running_mean", "layer2.running_var",
    "out.weight", "out.bias", "proj1.weight", "proj1.bias", "proj2.weight", "proj2.bias",
)
ENCODER_TABLE = PARAM_TABLE[:12]  # what `refine` reads and SSKP stores, in file order
# batch norm keeps its running statistics as state; every other tensor trains
TRAINABLE = tuple(key for key in PARAM_TABLE if ".running_" not in key)
LAYERS = ("layer1", "layer2", "out", "proj1", "proj2")  # table order; backward runs them reversed
_BN_FIELDS = ("gamma", "beta", "running_mean", "running_var")  # batchnorm_apply's order


@dataclass
class SimSkipParams:
    dim: int
    skip_enabled: bool
    # the arena: every trainable tensor is a view of this vector
    flat: np.ndarray
    tensors: dict[str, np.ndarray]  # keyed and ordered like PARAM_TABLE or ENCODER_TABLE


def _shape(key: str, d: int) -> tuple[int, ...]:
    """Shape of table tensor `key` in a width-d model: (out, in) or (out,)."""
    layer, field = key.split(".")
    out, inp = {"layer1": (d // 2, d), "layer2": (d, d // 2)}.get(layer, (d, d))
    return (out, inp) if field == "weight" else (out,)


def arena_views(flat: np.ndarray, d: int, layer: str | None = None) -> dict[str, np.ndarray]:
    """Views of `flat` shaped as the trainable tensors of a width-d training
    model (of `layer` alone, when given), end to end in table order and keyed
    like `PARAM_TABLE`."""
    keys = [key for key in TRAINABLE if layer in (None, key.split(".")[0])]
    return dict(zip(keys, flat_views(flat, [_shape(key, d) for key in keys])))


def layer_slices(d: int) -> dict[str, slice]:
    """Each layer's slice of a width-d arena, keyed and ordered like `LAYERS`."""
    slices, start = {}, 0
    for layer in LAYERS:
        keys = [key for key in TRAINABLE if key.split(".")[0] == layer]
        stop = start + sum(math.prod(_shape(key, d)) for key in keys)
        slices[layer], start = slice(start, stop), stop
    return slices


def _arena_model(d: int, skip_enabled: bool, keys=PARAM_TABLE) -> SimSkipParams:
    """A width-d model of the table tensors `keys` on a new arena, linear tensors
    unfilled: batch norm starts at gamma 1, beta 0 and running statistics 0 and 1."""
    trainable = [key for key in keys if key in TRAINABLE]
    flat = np.empty(sum(math.prod(_shape(key, d)) for key in trainable))
    views = dict(zip(trainable, flat_views(flat, [_shape(key, d) for key in trainable])))
    tensors = {key: views[key] if key in views else np.empty(_shape(key, d)) for key in keys}
    for layer in ("layer1", "layer2"):
        for field, start in zip(_BN_FIELDS, (1.0, 0.0, 0.0, 1.0)):
            tensors[f"{layer}.{field}"][...] = start
    return SimSkipParams(dim=d, skip_enabled=skip_enabled, flat=flat, tensors=tensors)


def init_params(d: int, seed: int, skip_enabled: bool = True) -> SimSkipParams:
    """A fresh training model, of even d for the d/2 bottleneck. The residual
    head starts at zero exactly when the skip path is on (the identity map)."""
    if d < 2 or d % 2 != 0:
        raise ValidationError(f"embedding dim must be even and >= 2, got {d}")
    rng = np.random.default_rng(seed)
    params = _arena_model(d, skip_enabled)
    # drawn straight into the arena; this order fixes the random stream
    t = params.tensors
    for layer in LAYERS:
        linear_init(t[layer + ".weight"], t.get(layer + ".bias"), rng,
                    zero=skip_enabled and layer == "out")
    return params


def encoder_of(params: SimSkipParams) -> SimSkipParams:
    """The encoder of a training model: the same arrays, on the arena's prefix."""
    return SimSkipParams(params.dim, params.skip_enabled,
                         params.flat[:layer_slices(params.dim)["out"].stop],
                         {key: params.tensors[key] for key in ENCODER_TABLE})


def _block_forward(t, layer, x, rng):
    a, lin_cache = linear_apply(x, t[layer + ".weight"])
    b, bn_cache = batchnorm_apply(a, *(t[f"{layer}.{field}"] for field in _BN_FIELDS),
                                  train=rng is not None)
    c, relu_cache = relu_apply(b)
    y, drop_cache = dropout_apply(c, DROPOUT_RATE, rng)
    return y, (lin_cache, bn_cache, relu_cache, drop_cache)


def _block_backward(cache, dout, grads, layer, input_grad=True):
    """The block's backward pass over `dout`, which it may overwrite: in an
    eval pass dropout hands it back and the ReLU mask is applied to it."""
    lin_cache, bn_cache, relu_cache, drop_cache = cache
    d = dropout_backward(drop_cache, dout)
    d *= relu_cache
    d = batchnorm_backward(bn_cache, d, grads[layer + ".gamma"], grads[layer + ".beta"])
    return linear_backward(lin_cache, d, grads[layer + ".weight"], None, input_grad)


def encoder_forward(params: SimSkipParams, x_batch: np.ndarray,
                    rng: np.random.Generator | None = None):
    """Residual forward pass, x + r(x) with the skip path; a training pass given `rng`."""
    x = np.asarray(x_batch, dtype=np.float64)
    t = params.tensors
    h1, c1 = _block_forward(t, "layer1", x, rng)
    h2, c2 = _block_forward(t, "layer2", h1, rng)
    r, c_out = linear_apply(h2, t["out.weight"], t["out.bias"])
    if params.skip_enabled:
        r += x
    return r, (c1, c2, c_out, params.skip_enabled)


def encoder_backward(cache, dout: np.ndarray, grads: dict[str, np.ndarray],
                     input_grad: bool = True,
                     after_layer: Callable[[str], None] | None = None) -> np.ndarray | None:
    """Write every encoder gradient into `grads`, calling `after_layer` (if
    given) as each layer ends; return the input gradient, or None when
    `input_grad` is false (training never reads it)."""
    done = after_layer or (lambda layer: None)
    c1, c2, c_out, skip_enabled = cache
    dh2 = linear_backward(c_out, dout, grads["out.weight"], grads["out.bias"])
    done("out")
    dh1 = _block_backward(c2, dh2, grads, "layer2")
    done("layer2")
    dx = _block_backward(c1, dh1, grads, "layer1", input_grad)
    done("layer1")
    if input_grad and skip_enabled:
        dx += dout
    return dx


def projector_forward(params: SimSkipParams, h_batch: np.ndarray):
    """z = proj2(relu(proj1(h))); no stochastic layers, so no rng."""
    h_batch = np.asarray(h_batch, dtype=np.float64)
    t = params.tensors
    a, c1 = linear_apply(h_batch, t["proj1.weight"], t["proj1.bias"])
    b, c_relu = relu_apply(a)
    z, c2 = linear_apply(b, t["proj2.weight"], t["proj2.bias"])
    return z, (c1, c_relu, c2)


def projector_backward(cache, dz: np.ndarray, grads: dict[str, np.ndarray],
                       after_layer: Callable[[str], None] | None = None) -> np.ndarray:
    done = after_layer or (lambda layer: None)
    c1, c_relu, c2 = cache
    dhidden = linear_backward(c2, dz, grads["proj2.weight"], grads["proj2.bias"])
    done("proj2")
    dhidden *= c_relu
    dh = linear_backward(c1, dhidden, grads["proj1.weight"], grads["proj1.bias"])
    done("proj1")
    return dh


def contrastive_loss_and_grads(params: SimSkipParams, pairs: np.ndarray, tau: float,
                               grads: dict[str, np.ndarray],
                               rng: np.random.Generator | None = None, input_grad: bool = True,
                               after_layer: Callable[[str], None] | None = None):
    """Full-graph loss of a 2N-row paired batch and its input gradient (None
    when `input_grad` is false); every parameter gradient is written into
    `grads` (keyed like `PARAM_TABLE`), with `after_layer` (if given) called
    as each layer's backward pass ends. A training pass when given `rng`."""
    from .losses import nt_xent  # here, so reading a checkpoint never loads the loss code

    h, enc_cache = encoder_forward(params, pairs, rng)
    z, proj_cache = projector_forward(params, h)
    loss, dz = nt_xent(z, tau)
    del z  # no backward pass reads it
    dh = projector_backward(proj_cache, dz, grads, after_layer)
    del h, proj_cache, dz  # the encoder's backward pass reads none of them
    return loss, encoder_backward(enc_cache, dh, grads, input_grad, after_layer)


def refine(params: SimSkipParams, dataset: EmbeddingDataset) -> EmbeddingDataset:
    """Run the encoder's eval pass over a dataset in row blocks; labels pass through."""
    if dataset.dim != params.dim:
        raise ShapeError(f"model expects dim {params.dim}, dataset has dim {dataset.dim}")
    x = dataset.vectors
    out = np.empty_like(x)
    # a block is charged its input rows only: charging its whole forward pass (64 d bytes
    # a row) gave 21-row blocks at d = 768, each re-reading all three weights: 1.4-1.8x slower
    rows = block_rows(8 * params.dim, len(x))
    for start in range(0, len(x), rows):
        out[start:start + rows] = encoder_forward(params, x[start:start + rows])[0]
    return EmbeddingDataset(out, dataset.labels)


def parameter_counts(d: int) -> dict[str, int]:
    """Entry counts of the encoder's three weight matrices, keyed like the
    table (biases and batch norm excluded, matching the reporting convention)."""
    return {key: math.prod(_shape(key, d)) for key in ENCODER_TABLE if key.endswith(".weight")}


def save_checkpoint(params: SimSkipParams, path) -> None:
    """Write the encoder of `params` as SSKP, streaming each tensor to the file."""
    flags = 1 if params.skip_enabled else 0
    header = _CKPT_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, flags, params.dim)
    atomic_write(path, [header] + [np.ascontiguousarray(params.tensors[key], dtype="<f8")
                                   for key in ENCODER_TABLE])


def load_checkpoint(path) -> SimSkipParams:
    raw = Path(path).read_bytes()
    if len(raw) < _CKPT_HEADER.size:
        raise FormatError(f"{path}: file too short for SSKP header")
    magic, version, flags, d = _CKPT_HEADER.unpack_from(raw)
    if magic != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if flags & ~1:
        raise FormatError(f"{path}: unknown flag bits 0x{flags:02x}")
    if d < 2 or d % 2 != 0:
        raise FormatError(f"{path}: header dim {d} is not a valid even width")

    # checked before anything is allocated, so a corrupt d cannot ask for d^2 floats
    expected = _CKPT_HEADER.size + 8 * sum(math.prod(_shape(key, d)) for key in ENCODER_TABLE)
    if len(raw) != expected:
        raise FormatError(f"{path}: file length {len(raw)} does not match header "
                          f"(expected {expected} for d={d})")

    params = _arena_model(d, bool(flags & 1), ENCODER_TABLE)
    off = _CKPT_HEADER.size
    for key, tensor in params.tensors.items():
        tensor[...] = np.frombuffer(raw, dtype="<f8", count=tensor.size,
                                    offset=off).reshape(tensor.shape)
        if not np.all(np.isfinite(tensor)):
            raise FormatError(f"{path}: tensor {key!r} holds NaN or Inf")
        if key.endswith(".running_var") and np.any(tensor < 0):
            raise FormatError(f"{path}: tensor {key!r} holds a negative variance")
        off += 8 * tensor.size
    return params
