import tracemalloc

import numpy as np
import pytest

from simskip.augment import AugmentConfig
from simskip.errors import NumericsError, ValidationError
from simskip.model import trainable_params
from simskip.synth_data import MixtureSpec, generate_gaussian_mixture
from simskip import trainer
from simskip.trainer import (
    LEARNING_RATE_GRID,
    TrainConfig,
    adam_init,
    adam_step,
    load_train_config,
    save_train_config,
    train,
)


def mixture(count_per_class=128, dim=16, seed=7):
    return generate_gaussian_mixture(MixtureSpec(2, dim, count_per_class, seed=seed))


def textbook_adam_step(params, grads, state, t, cfg):
    """Bias-corrected Adam written out of place, one whole tensor at a time."""
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    for key in sorted(params):
        g = np.asarray(grads[key], dtype=np.float64)
        state.m[key] = b1 * state.m[key] + (1 - b1) * g
        state.v[key] = b2 * state.v[key] + (1 - b2) * g * g
        m_hat = state.m[key] / (1 - b1**t)
        v_hat = state.v[key] / (1 - b2**t)
        params[key] -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)


class TestAdam:
    def test_first_step_moves_by_lr(self):
        # m_hat = g, v_hat = g^2 on step 1, so the update is -lr/(1 + eps)
        cfg = TrainConfig(learning_rate=0.1)
        params = {"w": np.array([0.0])}
        state = adam_init(params)
        adam_step(params, {"w": np.array([1.0])}, state, t=1, lr=cfg.learning_rate)
        assert params["w"][0] == pytest.approx(-0.1, abs=1e-8)

    def test_zero_gradient_leaves_params_unchanged(self):
        cfg = TrainConfig()
        params = {"w": np.array([1.5, -2.5])}
        state = adam_init(params)
        for t in range(1, 5):
            adam_step(params, {"w": np.zeros(2)}, state, t=t, lr=cfg.learning_rate)
        assert np.array_equal(params["w"], [1.5, -2.5])

    def test_non_finite_gradient_rejected(self):
        cfg = TrainConfig()
        params = {"w": np.array([0.0])}
        state = adam_init(params)
        with pytest.raises(NumericsError):
            adam_step(params, {"w": np.array([np.nan])}, state, t=1, lr=cfg.learning_rate)

    def test_trajectories_are_bitwise_reproducible(self):
        def run():
            rng = np.random.default_rng(3)
            cfg = TrainConfig(learning_rate=0.01)
            params = {"w": np.zeros(4), "b": np.zeros(2)}
            state = adam_init(params)
            for t in range(1, 20):
                grads = {"w": rng.standard_normal(4), "b": rng.standard_normal(2)}
                adam_step(params, grads, state, t=t, lr=cfg.learning_rate)
            return params

        a, b = run(), run()
        assert np.array_equal(a["w"], b["w"]) and np.array_equal(a["b"], b["b"])

    def test_bitwise_equal_to_the_textbook_update(self):
        rng = np.random.default_rng(4)
        cfg = TrainConfig(learning_rate=0.003, adam_beta1=0.8, adam_beta2=0.99, adam_eps=1e-6)
        shapes = {"w1": (6, 3), "b1": (1,), "w2": (3, 6), "s": (5,)}
        start = {k: rng.standard_normal(s) for k, s in shapes.items()}
        got = {k: a.copy() for k, a in start.items()}
        want = {k: a.copy() for k, a in start.items()}
        got_state, want_state = adam_init(got), adam_init(want)
        for t in range(1, 6):
            grads = {k: rng.standard_normal(s) for k, s in shapes.items()}
            before = {k: g.copy() for k, g in grads.items()}
            adam_step(got, grads, got_state, t, cfg.learning_rate,
                      cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
            textbook_adam_step(want, grads, want_state, t, cfg)
            for k in shapes:
                assert np.array_equal(grads[k], before[k])
        for k in shapes:
            assert np.array_equal(got[k], want[k])
            assert np.array_equal(got_state.m[k], want_state.m[k])
            assert np.array_equal(got_state.v[k], want_state.v[k])


class TestBlockedAdam:
    """`adam_step` with `_ADAM_BLOCK` patched to 5 elements, so that most
    tensors span several blocks."""

    CFG = TrainConfig(learning_rate=0.003, adam_beta1=0.8, adam_beta2=0.99, adam_eps=1e-6)

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(trainer, "_ADAM_BLOCK", 5)

    def step(self, params, grads, state, t):
        cfg = self.CFG
        adam_step(params, grads, state, t, cfg.learning_rate,
                  cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)

    def test_bitwise_equal_to_the_textbook_update_across_blocks(self):
        # rows of 1, 3, 6 and 12 elements: several rows per block, one row
        # per block, and rows wider than a block
        rng = np.random.default_rng(6)
        shapes = {"bias": (1,), "long": (23,), "w": (7, 3), "wide": (3, 12), "t3": (4, 2, 3)}
        start = {k: rng.standard_normal(s) for k, s in shapes.items()}
        got = {k: a.copy() for k, a in start.items()}
        want = {k: a.copy() for k, a in start.items()}
        got_state, want_state = adam_init(got), adam_init(want)
        for t in range(1, 6):
            grads = {k: rng.standard_normal(s) for k, s in shapes.items()}
            self.step(got, grads, got_state, t)
            textbook_adam_step(want, grads, want_state, t, self.CFG)
        for k in shapes:
            assert np.array_equal(got[k], want[k]), k
            assert np.array_equal(got_state.m[k], want_state.m[k]), k
            assert np.array_equal(got_state.v[k], want_state.v[k]), k

    @pytest.mark.parametrize("view", [
        lambda base: base.T,
        lambda base: base[::2, 1::3],
        lambda base: base[:, ::-2],
    ], ids=["transposed", "strided", "reversed"])
    def test_non_contiguous_parameter_changes_in_place(self, view):
        rng = np.random.default_rng(7)
        base = rng.standard_normal((6, 9))
        want_base = base.copy()
        got, want = {"w": view(base)}, {"w": view(want_base).copy()}
        got_state, want_state = adam_init(got), adam_init(want)
        for t in range(1, 4):
            grads = {"w": rng.standard_normal(got["w"].shape)}
            self.step(got, grads, got_state, t)
            textbook_adam_step(want, grads, want_state, t, self.CFG)
        assert np.shares_memory(got["w"], base)
        assert np.array_equal(view(base), want["w"])
        in_view = np.zeros(base.shape, dtype=bool)
        view(in_view)[...] = True
        assert np.array_equal(base[~in_view], want_base[~in_view])

    def test_non_finite_gradient_leaves_its_tensor_untouched(self):
        rng = np.random.default_rng(8)
        params = {"a": rng.standard_normal((4, 3)), "b": rng.standard_normal((6, 2))}
        state = adam_init(params)
        self.step(params, {k: rng.standard_normal(a.shape) for k, a in params.items()},
                  state, 1)
        before = {k: (params[k].copy(), state.m[k].copy(), state.v[k].copy()) for k in params}
        grads = {k: rng.standard_normal(a.shape) for k, a in params.items()}
        grads["b"][-1, -1] = np.inf  # in the last block of "b"
        with pytest.raises(NumericsError, match="'b'"):
            self.step(params, grads, state, 2)
        p, m, v = before["b"]
        assert np.array_equal(params["b"], p)
        assert np.array_equal(state.m["b"], m)
        assert np.array_equal(state.v["b"], v)
        # "a" sorts first and was updated before "b" was checked
        assert not np.array_equal(params["a"], before["a"][0])


class TestTrain:
    def test_loss_decreases_on_mixture(self):
        ds = mixture()
        cfg = TrainConfig(learning_rate=0.001, batch_size=128, epochs=50, seed=1)
        _, report = train(ds, cfg)
        assert report.epoch_losses[-1] < report.epoch_losses[0]

    @pytest.mark.parametrize("lr", LEARNING_RATE_GRID)
    def test_loss_decreases_for_every_grid_rate(self, lr):
        ds = mixture()
        cfg = TrainConfig(learning_rate=lr, batch_size=128, epochs=60, seed=1)
        _, report = train(ds, cfg)
        losses = np.array(report.epoch_losses)
        assert np.all(np.isfinite(losses))
        assert losses[-5:].mean() < losses[:5].mean()

    def test_zero_epochs_returns_initial_params(self):
        ds = mixture(count_per_class=32)
        cfg = TrainConfig(batch_size=32, epochs=0, seed=5)
        params, report = train(ds, cfg)
        assert report.epoch_losses == []
        from simskip.model import init_params
        fresh = init_params(ds.dim, cfg.seed)
        for key, arr in trainable_params(params).items():
            assert np.array_equal(arr, trainable_params(fresh)[key]), key

    def test_identity_init_refines_to_input_before_training(self):
        from simskip.model import init_params, refine
        ds = mixture(count_per_class=32)
        params = init_params(ds.dim, seed=0)
        assert refine(params, ds) == ds

    def test_determinism_bitwise(self):
        ds = mixture(count_per_class=64)
        cfg = TrainConfig(learning_rate=0.001, batch_size=64, epochs=5, seed=9)
        p1, r1 = train(ds, cfg)
        p2, r2 = train(ds, cfg)
        assert r1.epoch_losses == r2.epoch_losses
        for key, arr in trainable_params(p1).items():
            assert np.array_equal(arr, trainable_params(p2)[key]), key

    def test_one_gradient_set_alive_at_a_time(self):
        # parameters, both Adam moments and one gradient set make 4x the
        # trainable bytes; keeping the previous step's gradients alive while
        # the next backward pass runs made the peak 5.2x
        ds = mixture(count_per_class=16, dim=256)
        cfg = TrainConfig(batch_size=8, epochs=1, seed=0)
        from simskip.model import init_params
        nbytes = sum(a.nbytes for a in trainable_params(init_params(ds.dim, 0)).values())
        tracemalloc.start()
        try:
            train(ds, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.75 * nbytes

    def test_dataset_smaller_than_batch_rejected(self):
        ds = mixture(count_per_class=16)
        with pytest.raises(ValidationError):
            train(ds, TrainConfig(batch_size=64))

    def test_zero_encoder_combination_rejected(self):
        ds = mixture(count_per_class=32)
        cfg = TrainConfig(batch_size=32, skip_enabled=False, zero_init_residual_out=True)
        with pytest.raises(ValidationError):
            train(ds, cfg)

    def test_config_invariants(self):
        with pytest.raises(ValidationError):
            TrainConfig(batch_size=1)
        with pytest.raises(ValidationError):
            TrainConfig(tau=0.0)
        with pytest.raises(ValidationError):
            TrainConfig(adam_beta1=1.0)


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        cfg = TrainConfig(
            learning_rate=0.0003, batch_size=64, epochs=12, tau=0.2, seed=42,
            augment=AugmentConfig(kind="mask+gaussian", mask_prob=0.25,
                                  noise_scale=0.5),
            zero_init_residual_out=False, skip_enabled=False,
        )
        path = tmp_path / "train.cfg"
        save_train_config(cfg, path)
        assert load_train_config(path) == cfg

    def test_partial_file_fills_defaults(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("epochs = 3\naugment.kind = mask\n# comment\n\n")
        cfg = load_train_config(path)
        assert cfg.epochs == 3
        assert cfg.augment.kind == "mask"
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

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("epochs 3\n")
        with pytest.raises(ValidationError):
            load_train_config(path)
