"""Deterministic minibatch contrastive training.

Each step draws a batch, builds two augmented views per example (2N rows,
pairs interleaved), runs a training pass through encoder + projector,
evaluates the contrastive loss, backpropagates, and applies one update of
`nn_core`'s Adam, whose learning rate is the one setting. A single seeded
generator drives shuffling, augmentation, and dropout, so a fixed (dataset,
config, seed) reproduces the loss curve and final parameters bitwise; given
to the forward pass, it makes that a training pass. The last partial batch
of each epoch is dropped to keep the negative count uniform. `train`
returns the encoder and each epoch's mean loss; the `refine` command builds
its JSON report from them.

The model's trainable tensors are views of one vector, its arena (see
`model`), in which each layer's tensors are one slice. Adam updates each
layer's slice in place as soon as the backward pass is done with that
layer, from a gradient written into one scratch vector the size of the
largest layer, so no whole-model gradient vector exists. Adam is
elementwise, so this is bitwise the update of the whole arena after the
whole backward pass, and that is bitwise the textbook update. A step
holds, beyond that, only the activations its backward pass reads and the
loss's working set: one d = 768, batch-64 step peaks at 3.70 arenas under
tracemalloc (the parameters and both moments are 3). Training
raises NumPy's overflow, invalid and divide faults where they happen and
ignores underflow, whatever the caller's error state; a fault's notes name
its layer if in an Adam update, then its epoch and batch.

Config files are plain text, one `key = value` per line with `#` comments,
each key at most once. The keys are TrainConfig's and AugmentConfig's
numeric fields, the latter nested as `augment.mask_prob` and
`augment.noise_scale`; a zero strength turns its augmentation off. The
command (`refine` or `ablate`), not the file, sets the skip path. `seed`
alone drives every random draw of a run, augmentation included.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .augment import AugmentConfig, make_positive_pairs
from .embedding_store import EmbeddingDataset
from .errors import ValidationError
from .model import (
    SimSkipParams,
    arena_views,
    contrastive_loss_and_grads,
    encoder_of,
    init_params,
    layer_slices,
)
from .nn_core import AdamState, adam_init, adam_step


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 256
    epochs: int = 100
    tau: float = 0.5
    seed: int = 0
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    skip_enabled: bool = True

    def __post_init__(self):
        for name in ("learning_rate", "tau"):
            value = getattr(self, name)
            if not 0 < value < np.inf:
                raise ValidationError(f"{name} must be finite and > 0, got {value}")
        if self.batch_size < 2:
            raise ValidationError("batch_size must be >= 2 (the loss needs negatives)")
        if self.epochs < 0:
            raise ValidationError("epochs must be >= 0")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


def train(dataset: EmbeddingDataset, cfg: TrainConfig) -> tuple[SimSkipParams, list[float]]:
    """Train a refiner on the dataset's vectors (labels are never read); return its
    encoder and the mean loss of each epoch."""
    if dataset.count < cfg.batch_size:
        raise ValidationError(f"dataset has {dataset.count} rows, fewer than batch_size "
                              f"{cfg.batch_size}")

    params = init_params(dataset.dim, cfg.seed, skip_enabled=cfg.skip_enabled)
    state = adam_init(params.flat)
    # each layer's gradient lands at the start of one scratch vector the size of the largest
    # layer, and Adam consumes it before the next layer's backward pass writes there
    slices = layer_slices(params.dim)
    scratch = np.empty(max(s.stop - s.start for s in slices.values()))
    grads, layer_args = {}, {}
    for layer, s in slices.items():
        grad = scratch[:s.stop - s.start]
        grads |= arena_views(grad, params.dim, layer)
        layer_args[layer] = (params.flat[s], grad, AdamState(m=state.m[s], v=state.v[s]))

    def update(layer: str) -> None:
        try:
            adam_step(*layer_args[layer], t, cfg.learning_rate)
        except FloatingPointError as exc:
            exc.add_note(f"{layer} update")
            raise

    rng = np.random.default_rng(cfg.seed)

    epoch_losses: list[float] = []
    t = 0
    # an overflow, invalid operation or division by zero stops training where it
    # happens, before a non-finite value can reach the loss or the parameters
    with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
        for epoch in range(cfg.epochs):
            order = rng.permutation(dataset.count)
            n_batches = dataset.count // cfg.batch_size
            batch_losses = np.empty(n_batches)
            for b in range(n_batches):
                t += 1
                try:
                    idx = order[b * cfg.batch_size:(b + 1) * cfg.batch_size]
                    pairs = make_positive_pairs(dataset.vectors[idx], cfg.augment, rng)
                    batch_losses[b], _ = contrastive_loss_and_grads(
                        params, pairs, cfg.tau, grads, rng=rng, input_grad=False,
                        after_layer=update)
                except FloatingPointError as exc:
                    exc.add_note(f"epoch {epoch + 1}, batch {b + 1}")
                    raise
            epoch_losses.append(float(batch_losses.mean()))

    return encoder_of(params), epoch_losses


# ---------------------------------------------------------------------------
# config files

# each config key's parser, from its numeric field's annotation
_PARSERS = {"float": float, "int": int}
_TOP_FIELDS = {f.name: _PARSERS[f.type] for f in dataclasses.fields(TrainConfig)
               if f.type in _PARSERS}
_AUG_FIELDS = {f.name: _PARSERS[f.type] for f in dataclasses.fields(AugmentConfig)}


def load_train_config(path) -> TrainConfig:
    """Parse a UTF-8 config file, byte-order mark or not, into a TrainConfig."""
    try:
        # dropping the mark after decoding keeps a bad byte's offset a file offset
        text = Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x} "
                              f"at offset {exc.start})") from None
    top: dict = {}
    aug: dict = {}
    lines: dict[str, int] = {}  # each key's line, for the given-twice error
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        name = key.removeprefix("augment.")
        fields, values = (_TOP_FIELDS, top) if name == key else (_AUG_FIELDS, aug)
        if name not in fields:
            raise ValidationError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in lines:
            raise ValidationError(f"{path}:{lineno}: config key {key!r} is given twice "
                                  f"(lines {lines[key]} and {lineno})")
        lines[key] = lineno
        try:
            values[name] = fields[name](value)
            TrainConfig(augment=AugmentConfig(**aug), **top)  # range checks, at this value's line
        except ValueError as exc:  # ValidationError included
            raise ValidationError(f"{path}:{lineno}: config key {key!r}: {exc}") from exc
    return TrainConfig(augment=AugmentConfig(**aug), **top)
