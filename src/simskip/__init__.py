"""Skip-connection contrastive refinement of pre-trained embeddings.

The package takes an N x d matrix of embeddings produced by any upstream
model, trains a residual encoder with a contrastive objective on augmented
positive pairs, and returns a refined embedding of the same shape. Because
the encoder starts as the exact identity map, refinement can only move
away from the original embedding where training finds signal. Downstream
probes (kNN same-label score, linear / MLP classifiers) quantify the
change, and the theory module evaluates the loss-bound quantities that
motivate the skip connection.

Importing the package loads none of its submodules (PEP 562). A submodule
is imported when it is first read. Each public name in the table below is
read from its module on every access and never stored in the package:
`simskip.train` imports `simskip.trainer` the first time and returns what
`simskip.trainer.train` holds at that moment. So a process that runs one
CLI command loads only the modules that command uses.
"""

import importlib

__version__ = "0.1.0"

# every submodule -> the public names it defines
_EXPORTS = {
    "augment": ("AugmentConfig", "DEFAULT_NOISE_SCALE", "gaussian_noise",
                "make_positive_pairs", "random_mask"),
    "cli": (),
    "embedding_store": ("EmbeddingDataset", "dataset_fingerprint", "load_embeddings",
                        "save_embeddings", "split"),
    "errors": ("FormatError", "NumericsError", "ShapeError", "SimSkipError",
               "ValidationError"),
    "evaluate": ("LinearProbe", "MLP3Probe", "compare_embeddings", "evaluate_embeddings",
                 "evaluate_probe", "knn_same_label_score", "train_probe"),
    "losses": ("logistic_loss", "nt_xent"),
    "model": ("SimSkipParams", "encoder_forward", "init_params", "load_checkpoint",
              "projector_forward", "refine", "save_checkpoint"),
    "nn_core": ("adam_init", "adam_step"),
    "synth_data": ("MixtureSpec", "apply_class_mixing", "generate_gaussian_mixture"),
    "theory": ("Triplets", "bound_rhs", "gen_m", "sample_triplets", "skip_inequality_check"),
    "trainer": ("TrainConfig", "load_train_config", "train"),
    "utils": (),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    # never stored in the package namespace: a name is read from its module
    # on every access, so it is whatever that module attribute holds now
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_MODULE_OF})
