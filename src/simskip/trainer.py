"""Deterministic minibatch contrastive training.

Each step draws a batch, builds two augmented views per example (2N rows,
pairs interleaved), runs a train-mode forward through encoder + projector,
evaluates the contrastive loss, backpropagates, and applies one Adam
update. A single seeded generator drives shuffling, augmentation, and
dropout, so a fixed (dataset, config, seed) reproduces the loss curve and
final parameters bitwise. The last partial batch of each epoch is dropped
to keep the negative count uniform. A step's gradients are released before
the next step's backward pass, so one gradient set is alive at a time.

Adam updates each tensor in place in cache-sized blocks of whole
first-axis slices (`_ADAM_BLOCK` elements), with two scratch blocks per
call; the result is bitwise the textbook update.

Config files are plain text, one `key = value` per line with `#` comments.
Keys match TrainConfig field names; augmentation settings are nested as
`augment.kind`, `augment.mask_prob`, `augment.noise_scale`. `seed` alone
drives every random draw of a run, augmentation included.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .augment import AugmentConfig, make_positive_pairs
from .embedding_store import EmbeddingDataset
from .errors import NumericsError, ValidationError
from .model import (
    SimSkipParams,
    contrastive_loss_and_grads,
    init_params,
    trainable_params,
)
from .nn_core import TRAIN
from .utils import atomic_write

# learning-rate sweep exposed by the CLI
LEARNING_RATE_GRID = (0.001, 0.0003, 0.00003, 0.00001)

# elements per block of the in-place Adam update: the block and its moments,
# gradient and two scratch blocks fit in a per-core L2 cache
_ADAM_BLOCK = 32768


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 256
    epochs: int = 100
    tau: float = 0.5
    seed: int = 0
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    zero_init_residual_out: bool = True
    skip_enabled: bool = True

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValidationError("learning_rate must be > 0")
        if self.batch_size < 2:
            raise ValidationError("batch_size must be >= 2 (the loss needs negatives)")
        if self.epochs < 0:
            raise ValidationError("epochs must be >= 0")
        if self.tau <= 0:
            raise ValidationError("tau must be > 0")
        for name in ("adam_beta1", "adam_beta2"):
            b = getattr(self, name)
            if not (0.0 < b < 1.0):
                raise ValidationError(f"{name} must lie in (0,1), got {b}")
        if self.adam_eps <= 0:
            raise ValidationError("adam_eps must be > 0")


@dataclass
class TrainReport:
    epoch_losses: list[float]
    wall_time_s: float
    checkpoint_path: str | None
    config: TrainConfig

    def to_json_dict(self) -> dict:
        # wall time is excluded so rerunning with the same seed rewrites
        # byte-identical reports
        return {
            "epoch_losses": list(self.epoch_losses),
            "epochs_run": len(self.epoch_losses),
            "final_loss": self.epoch_losses[-1] if self.epoch_losses else None,
            "checkpoint_path": self.checkpoint_path,
            "config": config_to_dict(self.config),
        }


def config_to_dict(cfg: TrainConfig) -> dict:
    d = dataclasses.asdict(cfg)
    d["augment"] = dataclasses.asdict(cfg.augment)
    return d


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]


def adam_init(params: dict[str, np.ndarray]) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(a) for k, a in params.items()},
        v={k: np.zeros_like(a) for k, a in params.items()},
    )


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    t: int,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[dict[str, np.ndarray], AdamState]:
    """One bias-corrected Adam update, applied in place; t counts from 1.

    The parameters and both moments are updated in place, one block of
    whole first-axis slices (at most `_ADAM_BLOCK` elements, at least one
    slice) at a time, so every pass over a block runs while it is still in
    cache. A block is a view whatever the tensor's strides, and a tensor no
    larger than a block is a single block. Two scratch blocks serve every
    tensor of the call; `grads` is only read. The arithmetic runs in the
    order of the textbook form, lr * m_hat / (sqrt(v_hat) + eps), so the
    result is bitwise the same as evaluating that expression. A tensor's
    gradient is checked for shape and finiteness before that tensor is
    touched.
    """
    if t < 1:
        raise ValidationError(f"step index must be >= 1, got {t}")
    rows = {key: _block_rows(p.shape) for key, p in params.items()}
    width = max((min(p.size, rows[key] * math.prod(p.shape[1:]))
                 for key, p in params.items()), default=0)
    buf, step_buf = np.empty(width), np.empty(width)
    c1, c2 = 1 - beta1**t, 1 - beta2**t
    for key in sorted(params):
        g = np.asarray(grads[key], dtype=np.float64)
        if g.shape != params[key].shape:
            raise ValidationError(f"gradient for {key!r} has wrong shape {g.shape}")
        if not np.all(np.isfinite(g)):
            raise NumericsError(f"non-finite gradient for {key!r}")
        p, g, m, v = (np.atleast_1d(a) for a in (params[key], g, state.m[key], state.v[key]))
        for r0 in range(0, p.shape[0], rows[key]):
            r1 = r0 + rows[key]
            gb, mb, vb = g[r0:r1], m[r0:r1], v[r0:r1]
            scratch = buf[:gb.size].reshape(gb.shape)
            step = step_buf[:gb.size].reshape(gb.shape)
            # m = beta1 * m + (1 - beta1) * g
            np.multiply(gb, 1 - beta1, out=scratch)
            mb *= beta1
            mb += scratch
            # v = beta2 * v + (1 - beta2) * g * g
            np.multiply(gb, 1 - beta2, out=scratch)
            scratch *= gb
            vb *= beta2
            vb += scratch
            # params -= lr * m_hat / (sqrt(v_hat) + eps)
            np.divide(vb, c2, out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += eps
            np.divide(mb, c1, out=step)
            step *= lr
            step /= scratch
            p[r0:r1] -= step
    return params, state


def _block_rows(shape: tuple[int, ...]) -> int:
    """First-axis slices per `adam_step` block: at most `_ADAM_BLOCK`
    elements, and at least one slice."""
    return max(1, _ADAM_BLOCK // max(1, math.prod(shape[1:])))


def train(dataset: EmbeddingDataset, cfg: TrainConfig) -> tuple[SimSkipParams, TrainReport]:
    """Train a refiner on the dataset's vectors (labels are never read)."""
    if dataset.count < cfg.batch_size:
        raise ValidationError(
            f"dataset has {dataset.count} rows, fewer than batch_size {cfg.batch_size}"
        )
    if dataset.dim % 2 != 0:
        raise ValidationError(f"embedding dim must be even, got {dataset.dim}")
    if cfg.zero_init_residual_out and not cfg.skip_enabled:
        raise ValidationError(
            "zero_init_residual_out with skip_enabled=false makes the encoder the zero "
            "map, which the contrastive loss cannot train; disable zero_init_residual_out"
        )

    start = time.perf_counter()
    params = init_params(
        dataset.dim, cfg.seed,
        skip_enabled=cfg.skip_enabled,
        zero_init_residual_out=cfg.zero_init_residual_out,
    )
    pdict = trainable_params(params)
    state = adam_init(pdict)
    rng = np.random.default_rng(cfg.seed)

    epoch_losses: list[float] = []
    t = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(dataset.count)
        n_batches = dataset.count // cfg.batch_size
        batch_losses = np.empty(n_batches)
        for b in range(n_batches):
            idx = order[b * cfg.batch_size:(b + 1) * cfg.batch_size]
            pairs = make_positive_pairs(dataset.vectors[idx], cfg.augment, rng)
            loss, grads = contrastive_loss_and_grads(
                params, pairs, cfg.tau, mode=TRAIN, rng=rng
            )[:2]
            if not np.isfinite(loss):
                raise NumericsError(
                    f"non-finite loss at epoch {epoch}, batch {b} (lr={cfg.learning_rate})"
                )
            t += 1
            adam_step(pdict, grads, state, t, cfg.learning_rate,
                      cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
            batch_losses[b] = loss
            # free this step's gradients before the next backward pass builds
            # its own, so two gradient sets never coexist
            del grads
        epoch_losses.append(float(batch_losses.mean()))
        for key, arr in pdict.items():
            if not np.all(np.isfinite(arr)):
                raise NumericsError(f"parameter {key!r} became non-finite at epoch {epoch}")

    report = TrainReport(
        epoch_losses=epoch_losses,
        wall_time_s=time.perf_counter() - start,
        checkpoint_path=None,
        config=cfg,
    )
    return params, report


# ---------------------------------------------------------------------------
# config files

_BOOL_WORDS = {"true": True, "false": False, "1": True, "0": False,
               "yes": True, "no": False}

_TOP_FIELDS = {
    "learning_rate": float, "batch_size": int, "epochs": int, "tau": float,
    "seed": int, "adam_beta1": float, "adam_beta2": float, "adam_eps": float,
    "zero_init_residual_out": "bool", "skip_enabled": "bool",
}
_AUG_FIELDS = {"kind": str, "mask_prob": float, "noise_scale": float}


def _convert(key: str, value: str, kind):
    if kind == "bool":
        if value.lower() not in _BOOL_WORDS:
            raise ValidationError(f"config key {key!r}: expected a boolean, got {value!r}")
        return _BOOL_WORDS[value.lower()]
    try:
        return kind(value)
    except ValueError as exc:
        raise ValidationError(f"config key {key!r}: {exc}") from exc


def load_train_config(path) -> TrainConfig:
    """Parse a key/value config file into a TrainConfig."""
    top: dict = {}
    aug: dict = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key.startswith("augment."):
            sub = key[len("augment."):]
            if sub not in _AUG_FIELDS:
                raise ValidationError(f"{path}:{lineno}: unknown config key {key!r}")
            aug[sub] = _convert(key, value, _AUG_FIELDS[sub])
        elif key in _TOP_FIELDS:
            top[key] = _convert(key, value, _TOP_FIELDS[key])
        else:
            raise ValidationError(f"{path}:{lineno}: unknown config key {key!r}")
    return TrainConfig(augment=AugmentConfig(**aug), **top)


def save_train_config(cfg: TrainConfig, path) -> None:
    """Write a config file `load_train_config` parses back to an equal config."""
    lines = []
    for name in _TOP_FIELDS:
        lines.append(f"{name} = {getattr(cfg, name)}")
    for name in _AUG_FIELDS:
        lines.append(f"augment.{name} = {getattr(cfg.augment, name)}")
    atomic_write(path, "\n".join(lines) + "\n")
