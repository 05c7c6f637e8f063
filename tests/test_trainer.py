import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import patch_block_budget
from simskip.augment import AugmentConfig, make_positive_pairs
from simskip.errors import NumericsError, ValidationError
from simskip.model import (
    arena_views,
    contrastive_loss_and_grads,
    encoder_of,
    init_params,
    layer_slices,
)
from simskip.synth_data import MixtureSpec, generate_gaussian_mixture
from simskip import nn_core, trainer
from simskip.cli import parse_and_run
from simskip.embedding_store import EmbeddingDataset, load_embeddings
from simskip.trainer import (
    TrainConfig,
    adam_init,
    adam_step,
    load_train_config,
    train,
)


def mixture(count_per_class=128, dim=16, seed=7):
    return generate_gaussian_mixture(MixtureSpec(2, dim, count_per_class, seed=seed))


def textbook_adam_step(params, grads, state, t, lr):
    """Bias-corrected Adam at the constants of Kingma & Ba (2015), written
    out of place, one whole tensor at a time."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    for key in sorted(params):
        g = np.asarray(grads[key], dtype=np.float64)
        state.m[key] = b1 * state.m[key] + (1 - b1) * g
        state.v[key] = b2 * state.v[key] + (1 - b2) * g * g
        m_hat = state.m[key] / (1 - b1**t)
        v_hat = state.v[key] / (1 - b2**t)
        params[key] -= lr * m_hat / (np.sqrt(v_hat) + eps)


def flat(tensors):
    """The tensors of a dict end to end in key order, as one vector."""
    return np.concatenate([tensors[k].ravel() for k in sorted(tensors)])


def assert_flat_adam_is_textbook(shapes, lr, seed, steps=5):
    """`adam_step` over the tensors packed into one vector is bitwise the
    textbook update of each tensor on its own, and only reads the gradient."""
    rng = np.random.default_rng(seed)
    want = {k: rng.standard_normal(s) for k, s in shapes.items()}
    got = flat(want)
    got_state = adam_init(got)
    want_state = SimpleNamespace(m={k: np.zeros(s) for k, s in shapes.items()},
                                 v={k: np.zeros(s) for k, s in shapes.items()})
    for t in range(1, steps + 1):
        grads = {k: rng.standard_normal(s) for k, s in shapes.items()}
        grad = flat(grads)
        before = grad.copy()
        adam_step(got, grad, got_state, t, lr)
        textbook_adam_step(want, grads, want_state, t, lr)
        assert np.array_equal(grad, before)
    assert np.array_equal(got, flat(want))
    assert np.array_equal(got_state.m, flat(want_state.m))
    assert np.array_equal(got_state.v, flat(want_state.v))


class TestAdam:
    def test_first_step_moves_by_lr(self):
        # m_hat = g, v_hat = g^2 on step 1, so the update is -lr/(1 + eps)
        cfg = TrainConfig(learning_rate=0.1)
        params = np.array([0.0])
        state = adam_init(params)
        adam_step(params, np.array([1.0]), state, t=1, lr=cfg.learning_rate)
        assert params[0] == pytest.approx(-0.1, abs=1e-8)

    def test_zero_gradient_leaves_params_unchanged(self):
        cfg = TrainConfig()
        params = np.array([1.5, -2.5])
        state = adam_init(params)
        for t in range(1, 5):
            adam_step(params, np.zeros(2), state, t=t, lr=cfg.learning_rate)
        assert np.array_equal(params, [1.5, -2.5])

    def test_non_finite_gradient_rejected(self):
        cfg = TrainConfig()
        params = np.array([0.0])
        state = adam_init(params)
        with pytest.raises(NumericsError):
            adam_step(params, np.array([np.nan]), state, t=1, lr=cfg.learning_rate)

    def test_step_index_counts_from_one(self):
        params = np.array([0.5])
        with pytest.raises(ValidationError, match="step index must be >= 1, got 0"):
            adam_step(params, np.array([1.0]), adam_init(params), t=0, lr=0.1)
        assert params[0] == 0.5

    def test_shape_mismatch_rejected(self):
        for params, grad in ((np.zeros(4), np.zeros(5)), (np.zeros((2, 2)), np.zeros((2, 2)))):
            with pytest.raises(ValidationError):
                adam_step(params, grad, adam_init(params), t=1, lr=0.1)

    def test_trajectories_are_bitwise_reproducible(self):
        def run():
            rng = np.random.default_rng(3)
            cfg = TrainConfig(learning_rate=0.01)
            params = np.zeros(6)
            state = adam_init(params)
            for t in range(1, 20):
                adam_step(params, rng.standard_normal(6), state, t=t, lr=cfg.learning_rate)
            return params

        assert np.array_equal(run(), run())

    def test_bitwise_equal_to_the_textbook_update(self):
        # the constants are the paper's, the ones the textbook step writes out
        assert (nn_core.ADAM_BETA1, nn_core.ADAM_BETA2, nn_core.ADAM_EPS) == (0.9, 0.999, 1e-8)
        shapes = {"w1": (6, 3), "b1": (1,), "w2": (3, 6), "s": (5,)}
        assert_flat_adam_is_textbook(shapes, 0.003, seed=4)


class TestBlockedAdam:
    """`adam_step` with the cache budget patched to 5 elements of 48 bytes,
    so that the vector spans several blocks and blocks straddle tensor
    boundaries."""

    LR = 0.003

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        self.counts = patch_block_budget(monkeypatch, nn_core, 5 * 48)

    def step(self, params, grads, state, t):
        adam_step(params, grads, state, t, self.LR)

    def test_bitwise_equal_to_the_textbook_update_across_blocks(self):
        # 105 elements: 21 blocks of 5, three of them straddling two tensors
        shapes = {"bias": (1,), "long": (23,), "w": (7, 3), "wide": (3, 12), "t3": (4, 2, 3)}
        assert_flat_adam_is_textbook(shapes, self.LR, seed=6)
        assert self.counts == [21] * 5

    def test_non_finite_gradient_leaves_its_tensor_untouched(self):
        # the check runs over the whole vector first, so nothing is updated
        rng = np.random.default_rng(8)
        params = rng.standard_normal(23)
        state = adam_init(params)
        self.step(params, rng.standard_normal(23), state, 1)
        assert self.counts == [5]
        before = (params.copy(), state.m.copy(), state.v.copy())
        grad = rng.standard_normal(23)
        grad[-1] = np.inf  # in the last block
        with pytest.raises(NumericsError):
            self.step(params, grad, state, 2)
        assert np.array_equal(params, before[0])
        assert np.array_equal(state.m, before[1])
        assert np.array_equal(state.v, before[2])


class TestTrain:
    def test_loss_decreases_on_mixture(self):
        ds = mixture()
        cfg = TrainConfig(learning_rate=0.001, batch_size=128, epochs=50, seed=1)
        _, losses = train(ds, cfg)
        assert losses[-1] < losses[0]

    @pytest.mark.parametrize("lr", [0.001, 0.0003, 0.00003, 0.00001])
    def test_loss_decreases_for_every_grid_rate(self, lr):
        ds = mixture()
        cfg = TrainConfig(learning_rate=lr, batch_size=128, epochs=60, seed=1)
        _, losses = train(ds, cfg)
        losses = np.array(losses)
        assert np.all(np.isfinite(losses))
        assert losses[-5:].mean() < losses[:5].mean()

    def test_zero_epochs_returns_initial_params(self):
        ds = mixture(count_per_class=32)
        cfg = TrainConfig(batch_size=32, epochs=0, seed=5)
        params, losses = train(ds, cfg)
        assert losses == []
        assert np.array_equal(params.flat, encoder_of(init_params(ds.dim, cfg.seed)).flat)

    def test_identity_init_refines_to_input_before_training(self):
        from simskip.model import init_params, refine
        ds = mixture(count_per_class=32)
        params = init_params(ds.dim, seed=0)
        assert refine(params, ds) == ds

    def test_determinism_bitwise(self):
        ds = mixture(count_per_class=64)
        cfg = TrainConfig(learning_rate=0.001, batch_size=64, epochs=5, seed=9)
        p1, losses1 = train(ds, cfg)
        p2, losses2 = train(ds, cfg)
        assert losses1 == losses2
        assert np.array_equal(p1.flat, p2.flat)

    def test_one_gradient_set_alive_at_a_time(self):
        # the parameters and both Adam moments make 3 arenas (the trainable bytes) and
        # one layer's gradient 0.25 more at d = 768; a step's activations bring the
        # measured peak to 3.82 arenas. A whole-arena gradient vector made it 4.55
        ds = mixture(count_per_class=32, dim=768)
        cfg = TrainConfig(batch_size=64, epochs=1, seed=0)
        nbytes = init_params(ds.dim, 0).flat.nbytes
        tracemalloc.start()
        try:
            train(ds, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.0 * nbytes

    def test_step_holds_only_what_its_backward_pass_reads(self):
        # beyond the parameters, both Adam moments and the one-layer gradient scratch,
        # in units of one 2B x d float64 array (4 MiB at d = 256, batch 1024). The
        # backward pass reads the five linear layers' inputs (1 + 1/2 + 1 + 1 + 1),
        # both batch norms' xhat (1/2 + 1) and the boolean ReLU and dropout masks
        # (1/2): 6.5 in all. At the loss's epilogue z, its normalized rows, their
        # gradient and one product (4) and the loss's 1 MiB block buffer (1/4) join
        # them: 10.75. Float64 dropout scales and the epilogues' temporaries made it 13.1
        batch, d = 1024, 256
        ds = EmbeddingDataset(np.random.default_rng(0).standard_normal((batch, d)))
        arena = init_params(d, 0).flat.nbytes
        scratch = 8 * max(s.stop - s.start for s in layer_slices(d).values())
        tracemalloc.start()
        try:
            train(ds, TrainConfig(batch_size=batch, epochs=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - 3 * arena - scratch) / (2 * batch * d * 8) < 11.0

    def test_non_finite_loss_is_rejected_before_any_update(self, tmp_path, monkeypatch):
        # 1/tau overflows in the loss, which raises there, whatever the caller's error
        # state; no layer may be updated from the gradients of an infinite loss
        monkeypatch.chdir(tmp_path)
        steps = []
        monkeypatch.setattr(trainer, "adam_step", lambda *args: steps.append(args))
        ds = mixture(count_per_class=45, dim=8)
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError):
            train(ds, TrainConfig(tau=1e-320, batch_size=16))
        assert steps == []
        assert list(tmp_path.iterdir()) == []

    # past the edge of the numerics: at tau = 1e-160 Adam's g * g overflows while the loss
    # (about 1e158) stays finite, and at learning_rate = 1e300 the first matmul after an
    # update overflows. Training raises there, under the caller's error state or not, and
    # the fault's notes name the stage, innermost first
    @pytest.mark.parametrize("key,value,op,stage", [
        ("tau", 1e-160, "multiply", ["proj2 update", "epoch 1, batch 1"]),
        ("learning_rate", 1e300, "matmul", ["epoch 1, batch 2"]),
    ], ids=["tau-1e-160", "lr-1e300"])
    def test_floating_point_fault_raises_where_it_happens(self, tmp_path, key, value, op, stage):
        data = str(tmp_path / "d.embf")
        assert parse_and_run(["gen-synth", "--classes", "2", "--dim", "8", "--per-class", "45",
                              "--out", data]) == 0
        ds = load_embeddings(data)
        result = None
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError) as info:
            result = train(ds, TrainConfig(epochs=1, batch_size=16, **{key: value}))
        assert result is None
        assert str(info.value) == f"overflow encountered in {op}"
        assert info.value.__notes__ == stage

    # an underflow rounds to the right value: at tau = 1e-3 most negatives' shifted exp
    # is 0, and at noise scale 1e-310 the noise is subnormal. Training under a caller's
    # all-raise error state is bitwise the same
    @pytest.mark.parametrize("setting", [{"tau": 1e-3},
                                         {"augment": AugmentConfig(noise_scale=1e-310)}],
                             ids=["tau-1e-3", "noise-1e-310"])
    def test_underflow_is_not_a_fault(self, setting):
        ds = EmbeddingDataset(np.random.default_rng(1).standard_normal((64, 8)))
        cfg = TrainConfig(batch_size=32, epochs=2, **setting)
        want, want_losses = train(ds, cfg)
        with np.errstate(all="raise"):
            got, losses = train(ds, cfg)
        assert losses == want_losses
        assert np.array_equal(got.flat, want.flat)
        for key, tensor in want.tensors.items():  # the running statistics too
            assert np.array_equal(got.tensors[key], tensor), key

    def test_dataset_smaller_than_batch_rejected(self):
        ds = mixture(count_per_class=16)
        with pytest.raises(ValidationError):
            train(ds, TrainConfig(batch_size=64))

    def test_odd_dim_rejected(self):
        # init_params holds the one check of the width
        ds = mixture(count_per_class=16, dim=7)
        with pytest.raises(ValidationError, match="embedding dim must be even"):
            train(ds, TrainConfig(batch_size=16, epochs=1))

    def test_config_invariants(self):
        with pytest.raises(ValidationError):
            TrainConfig(batch_size=1)
        with pytest.raises(ValidationError):
            TrainConfig(tau=0.0)


def reference_train(ds, cfg):
    """`train`'s loop with one whole-arena gradient vector and one whole-vector
    Adam step after each backward pass; returns the encoder, as `train` does,
    and the whole arena's Adam state."""
    params = init_params(ds.dim, cfg.seed, skip_enabled=cfg.skip_enabled)
    grad = np.empty_like(params.flat)
    state = adam_init(params.flat)
    rng = np.random.default_rng(cfg.seed)
    t = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(ds.count)
        for b in range(ds.count // cfg.batch_size):
            pairs = make_positive_pairs(
                ds.vectors[order[b * cfg.batch_size:(b + 1) * cfg.batch_size]], cfg.augment, rng)
            contrastive_loss_and_grads(params, pairs, cfg.tau, arena_views(grad, ds.dim),
                                       rng=rng, input_grad=False)
            t += 1
            adam_step(params.flat, grad, state, t, cfg.learning_rate)
    return encoder_of(params), state


class TestFusedAdam:
    @pytest.mark.parametrize("skip", [True, False], ids=["skip", "no-skip"])
    @pytest.mark.parametrize("dim", [8, 64])
    def test_bitwise_equal_to_a_whole_arena_step(self, monkeypatch, dim, skip):
        # 3 steps; Adam runs once per layer, on that layer's slice, in backward order
        ds = mixture(count_per_class=24, dim=dim, seed=dim)
        cfg = TrainConfig(learning_rate=0.01, batch_size=16, epochs=1, seed=3,
                          skip_enabled=skip)
        states, sizes = [], []

        def recording_init(flat):
            states.append(adam_init(flat))
            return states[-1]

        def recording_step(params, *args):
            sizes.append(params.size)
            adam_step(params, *args)

        monkeypatch.setattr(trainer, "adam_init", recording_init)
        monkeypatch.setattr(trainer, "adam_step", recording_step)
        got, _ = train(ds, cfg)
        want, want_state = reference_train(ds, cfg)
        slices = layer_slices(dim)
        assert sizes == 3 * [slices[layer].stop - slices[layer].start
                             for layer in ("proj2", "proj1", "out", "layer2", "layer1")]
        assert np.array_equal(got.flat, want.flat)
        assert np.array_equal(states[0].m, want_state.m)
        assert np.array_equal(states[0].v, want_state.v)


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        cfg = TrainConfig(
            learning_rate=0.0003, batch_size=64, epochs=12, tau=0.2, seed=42,
            augment=AugmentConfig(mask_prob=0.25, noise_scale=0.5),
        )
        # the seven file keys; each value differs from its default
        keys = (("", cfg, TrainConfig(), ("learning_rate", "batch_size", "epochs", "tau", "seed")),
                ("augment.", cfg.augment, AugmentConfig(), ("mask_prob", "noise_scale")))
        for _, got, default, names in keys:
            for name in names:
                assert getattr(got, name) != getattr(default, name), name
        path = tmp_path / "train.cfg"
        path.write_text("".join(f"{prefix}{name} = {getattr(obj, name)}\n"
                                for prefix, obj, _, names in keys for name in names))
        assert load_train_config(path) == cfg

    def test_partial_file_fills_defaults(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("epochs = 3\naugment.mask_prob = 0.2\n# comment\n\n")
        cfg = load_train_config(path)
        assert cfg.epochs == 3
        assert cfg.augment.mask_prob == 0.2
        assert cfg.augment.noise_scale == AugmentConfig().noise_scale
        assert cfg.learning_rate == TrainConfig().learning_rate

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("learning_rte = 0.1\n")
        with pytest.raises(ValidationError):
            load_train_config(path)

    def test_augment_seed_is_not_a_key(self, tmp_path):
        # training randomness comes from `seed` alone
        path = tmp_path / "train.cfg"
        path.write_text("augment.seed = 4\n")
        with pytest.raises(ValidationError, match="unknown config key 'augment.seed'"):
            load_train_config(path)

    @pytest.mark.parametrize("text,key,lines", [
        ("epochs = 3\n# comment\nepochs = 5\n", "epochs", (1, 3)),
        ("augment.mask_prob = 0.2\nseed = 1\naugment.mask_prob = 0\n",
         "augment.mask_prob", (1, 3)),
    ], ids=["top-level", "augment"])
    def test_repeated_key_rejected(self, tmp_path, text, key, lines):
        # a second value would silently override the first
        path = tmp_path / "train.cfg"
        path.write_text(text)
        with pytest.raises(ValidationError,
                           match=f"'{key}' is given twice \\(lines {lines[0]} and {lines[1]}\\)"):
            load_train_config(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("epochs 3\n")
        with pytest.raises(ValidationError):
            load_train_config(path)
