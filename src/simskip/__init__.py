"""Skip-connection contrastive refinement of pre-trained embeddings.

The package takes an N x d matrix of embeddings produced by any upstream
model, trains a residual encoder with a contrastive objective on augmented
positive pairs, and returns a refined embedding of the same shape. Because
the encoder starts as the exact identity map, refinement can only move
away from the original embedding where training finds signal. Downstream
probes (kNN same-label score, linear / MLP classifiers) quantify the
change, and the theory module evaluates the loss-bound quantities that
motivate the skip connection.
"""

from .augment import (
    AugmentConfig,
    DEFAULT_NOISE_SCALE,
    gaussian_noise,
    make_positive_pair,
    make_positive_pairs,
    random_mask,
)
from .embedding_store import (
    EmbeddingDataset,
    dataset_fingerprint,
    load_csv,
    load_embeddings,
    save_csv,
    save_embeddings,
    split,
)
from .errors import (
    FormatError,
    NumericsError,
    ShapeError,
    SimSkipError,
    ValidationError,
)
from .evaluate import (
    ComparisonReport,
    EvalReport,
    ProbeConfig,
    SplitConfig,
    compare_embeddings,
    evaluate_embeddings,
    evaluate_probe,
    knn_same_label_score,
    train_probe,
)
from .losses import LossValue, hinge_loss, logistic_loss, nt_xent
from .model import (
    SimSkipParams,
    encoder_forward,
    init_params,
    load_checkpoint,
    projector_forward,
    refine,
    save_checkpoint,
)
from .nn_core import EVAL, TRAIN, grad_check
from .synth_data import MixtureSpec, apply_class_mixing, generate_gaussian_mixture
from .theory import (
    BoundInputs,
    SkipInequalityReport,
    Triplets,
    bound_rhs,
    empirical_unsup_loss,
    gen_m,
    sample_triplets,
    skip_inequality_check,
)
from .trainer import (
    LEARNING_RATE_GRID,
    TrainConfig,
    TrainReport,
    adam_init,
    adam_step,
    load_train_config,
    save_train_config,
    train,
)

__version__ = "0.1.0"
