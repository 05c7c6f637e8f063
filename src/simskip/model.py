"""The skip-connection encoder, projector, and checkpoint persistence.

Encoder (input width d, d even):

    block1 = Dropout(ReLU(BN(Linear d -> d/2)))
    block2 = Dropout(ReLU(BN(Linear d/2 -> d)))
    residual r(x) = Linear_dxd(block2(block1(x)))
    output = x + r(x)        when skip_enabled
           = r(x)            otherwise (the ablation variant)

Projector: z = W2 @ relu(W1 @ h + b1) + b2 with both layers d x d. The
projector exists only to feed the contrastive loss; `refine` returns the
encoder output.

With `zero_init_residual_out` the final d x d linear starts at zero, so the
freshly initialized encoder is exactly the identity map and refinement
starts from the original embedding.

Checkpoint format "SSKP", version 1, little-endian: magic "SSKP", u8
version, u8 flags (bit0 = skip_enabled), u32 d, then float64 tensors in
fixed order: layer1 W,b,gamma,beta,mean,var; layer2 W,b,gamma,beta,mean,var;
out W,b; projector1 W,b; projector2 W,b.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .embedding_store import EmbeddingDataset
from .errors import FormatError, ShapeError, ValidationError
from .nn_core import (
    EVAL,
    BatchNormLayer,
    DropoutLayer,
    LinearLayer,
    batchnorm_apply,
    batchnorm_backward,
    batchnorm_init,
    dropout_apply,
    dropout_backward,
    linear_apply,
    linear_backward,
    linear_init,
    relu_apply,
    relu_backward,
)
from .utils import atomic_write

CHECKPOINT_MAGIC = b"SSKP"
CHECKPOINT_VERSION = 1

_CKPT_HEADER = struct.Struct("<4sBBI")  # magic, version, flags, d


@dataclass
class SimSkipParams:
    dim: int
    skip_enabled: bool
    layer1_lin: LinearLayer
    layer1_bn: BatchNormLayer
    layer1_drop: DropoutLayer
    layer2_lin: LinearLayer
    layer2_bn: BatchNormLayer
    layer2_drop: DropoutLayer
    out_lin: LinearLayer
    proj1: LinearLayer
    proj2: LinearLayer


def init_params(
    d: int,
    seed: int,
    skip_enabled: bool = True,
    zero_init_residual_out: bool = True,
    dropout_rate: float = 0.1,
) -> SimSkipParams:
    """Fresh parameters; requires even d for the d/2 bottleneck."""
    if d < 2 or d % 2 != 0:
        raise ValidationError(f"embedding dim must be even and >= 2, got {d}")
    rng = np.random.default_rng(seed)
    half = d // 2
    return SimSkipParams(
        dim=d,
        skip_enabled=skip_enabled,
        layer1_lin=linear_init(d, half, rng),
        layer1_bn=batchnorm_init(half),
        layer1_drop=DropoutLayer(dropout_rate),
        layer2_lin=linear_init(half, d, rng),
        layer2_bn=batchnorm_init(d),
        layer2_drop=DropoutLayer(dropout_rate),
        out_lin=linear_init(d, d, rng, zero=zero_init_residual_out),
        proj1=linear_init(d, d, rng),
        proj2=linear_init(d, d, rng),
    )


def _block_forward(lin, bn, drop, x, mode, rng):
    a, lin_cache = linear_apply(lin, x, mode)
    b, bn_cache = batchnorm_apply(bn, a, mode)
    c, relu_cache = relu_apply(b)
    y, drop_cache = dropout_apply(drop, c, mode, rng)
    return y, (lin_cache, bn_cache, relu_cache, drop_cache)


def _block_backward(cache, dout):
    lin_cache, bn_cache, relu_cache, drop_cache = cache
    d1 = dropout_backward(drop_cache, dout)
    d2 = relu_backward(relu_cache, d1)
    dgamma, dbeta, d3 = batchnorm_backward(bn_cache, d2)
    dw, db, dx = linear_backward(lin_cache, d3)
    return {"weight": dw, "bias": db, "gamma": dgamma, "beta": dbeta}, dx


def encoder_forward(
    params: SimSkipParams,
    x_batch: np.ndarray,
    mode: str = EVAL,
    rng: np.random.Generator | None = None,
):
    """Residual forward pass: x + r(x) when the skip path is enabled."""
    x = np.asarray(x_batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.dim:
        raise ShapeError(f"expected input (B, {params.dim}), got {x.shape}")
    h1, c1 = _block_forward(params.layer1_lin, params.layer1_bn, params.layer1_drop, x, mode, rng)
    h2, c2 = _block_forward(params.layer2_lin, params.layer2_bn, params.layer2_drop, h1, mode, rng)
    r, c_out = linear_apply(params.out_lin, h2, mode)
    out = x + r if params.skip_enabled else r
    return out, (c1, c2, c_out, params.skip_enabled)


def encoder_backward(cache, dout: np.ndarray):
    c1, c2, c_out, skip_enabled = cache
    dout = np.asarray(dout, dtype=np.float64)
    dw_out, db_out, dh2 = linear_backward(c_out, dout)
    g2, dh1 = _block_backward(c2, dh2)
    g1, dx = _block_backward(c1, dh1)
    if skip_enabled:
        dx = dx + dout
    grads = {
        "layer1.weight": g1["weight"], "layer1.bias": g1["bias"],
        "layer1.gamma": g1["gamma"], "layer1.beta": g1["beta"],
        "layer2.weight": g2["weight"], "layer2.bias": g2["bias"],
        "layer2.gamma": g2["gamma"], "layer2.beta": g2["beta"],
        "out.weight": dw_out, "out.bias": db_out,
    }
    return grads, dx


def projector_forward(
    params: SimSkipParams,
    h_batch: np.ndarray,
    mode: str = EVAL,
    rng: np.random.Generator | None = None,
):
    """z = proj2(relu(proj1(h))); no stochastic layers, so mode/rng are inert."""
    a, c1 = linear_apply(params.proj1, h_batch, mode)
    b, c_relu = relu_apply(a)
    z, c2 = linear_apply(params.proj2, b, mode)
    return z, (c1, c_relu, c2)


def projector_backward(cache, dz: np.ndarray):
    c1, c_relu, c2 = cache
    dw2, db2, dhidden = linear_backward(c2, dz)
    da = relu_backward(c_relu, dhidden)
    dw1, db1, dh = linear_backward(c1, da)
    grads = {
        "proj1.weight": dw1, "proj1.bias": db1,
        "proj2.weight": dw2, "proj2.bias": db2,
    }
    return grads, dh


def trainable_params(params: SimSkipParams) -> dict[str, np.ndarray]:
    """Live views of every trainable array, keyed like the gradient dicts."""
    return {
        "layer1.weight": params.layer1_lin.weight, "layer1.bias": params.layer1_lin.bias,
        "layer1.gamma": params.layer1_bn.gamma, "layer1.beta": params.layer1_bn.beta,
        "layer2.weight": params.layer2_lin.weight, "layer2.bias": params.layer2_lin.bias,
        "layer2.gamma": params.layer2_bn.gamma, "layer2.beta": params.layer2_bn.beta,
        "out.weight": params.out_lin.weight, "out.bias": params.out_lin.bias,
        "proj1.weight": params.proj1.weight, "proj1.bias": params.proj1.bias,
        "proj2.weight": params.proj2.weight, "proj2.bias": params.proj2.bias,
    }


def contrastive_loss_and_grads(
    params: SimSkipParams,
    pairs: np.ndarray,
    tau: float,
    mode: str = EVAL,
    rng: np.random.Generator | None = None,
    exclude_positive: bool = False,
):
    """Full-graph loss and parameter gradients for a 2N-row paired batch."""
    from .losses import nt_xent  # local import keeps module deps one-way

    h, enc_cache = encoder_forward(params, pairs, mode, rng)
    z, proj_cache = projector_forward(params, h, mode, rng)
    lv = nt_xent(z, tau, exclude_positive=exclude_positive)
    proj_grads, dh = projector_backward(proj_cache, lv.grad)
    enc_grads, dx = encoder_backward(enc_cache, dh)
    grads = {**enc_grads, **proj_grads}
    return lv.value, grads, dx


def refine(params: SimSkipParams, dataset: EmbeddingDataset) -> EmbeddingDataset:
    """Run the encoder in eval mode over a dataset; labels pass through."""
    if dataset.dim != params.dim:
        raise ShapeError(f"model expects dim {params.dim}, dataset has dim {dataset.dim}")
    out, _ = encoder_forward(params, dataset.vectors, EVAL)
    return EmbeddingDataset(out, dataset.labels)


def embed_fn(params: SimSkipParams):
    """Vector -> vector closure over the eval-mode encoder."""
    def fn(x: np.ndarray) -> np.ndarray:
        out, _ = encoder_forward(params, np.asarray(x, dtype=np.float64)[None, :], EVAL)
        return out[0]
    return fn


def parameter_counts(d: int) -> dict[str, int]:
    """Weight-matrix entry counts (biases excluded, matching the reporting convention)."""
    half = d // 2
    return {
        "encoder_layer1": d * half,
        "encoder_layer2": half * d,
        "encoder_out_linear": d * d,
        "projector_layer1": d * d,
        "projector_layer2": d * d,
    }


_TENSOR_ORDER = (
    ("layer1_lin", "weight"), ("layer1_lin", "bias"),
    ("layer1_bn", "gamma"), ("layer1_bn", "beta"),
    ("layer1_bn", "running_mean"), ("layer1_bn", "running_var"),
    ("layer2_lin", "weight"), ("layer2_lin", "bias"),
    ("layer2_bn", "gamma"), ("layer2_bn", "beta"),
    ("layer2_bn", "running_mean"), ("layer2_bn", "running_var"),
    ("out_lin", "weight"), ("out_lin", "bias"),
    ("proj1", "weight"), ("proj1", "bias"),
    ("proj2", "weight"), ("proj2", "bias"),
)


def save_checkpoint(params: SimSkipParams, path) -> None:
    flags = 1 if params.skip_enabled else 0
    blob = bytearray(_CKPT_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, flags, params.dim))
    for attr, field_name in _TENSOR_ORDER:
        tensor = getattr(getattr(params, attr), field_name)
        blob += np.ascontiguousarray(tensor, dtype="<f8").tobytes()
    atomic_write(path, bytes(blob))


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

    params = init_params(d, seed=0, skip_enabled=bool(flags & 1))
    off = _CKPT_HEADER.size
    for attr, field_name in _TENSOR_ORDER:
        layer = getattr(params, attr)
        shape = getattr(layer, field_name).shape
        n = int(np.prod(shape))
        end = off + 8 * n
        if end > len(raw):
            raise FormatError(f"{path}: truncated tensor data")
        tensor = np.frombuffer(raw, dtype="<f8", count=n, offset=off).reshape(shape).copy()
        setattr(layer, field_name, tensor)
        off = end
    if off != len(raw):
        raise FormatError(f"{path}: {len(raw) - off} trailing bytes after tensor data")
    return params
