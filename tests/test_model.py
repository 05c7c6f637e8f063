import hashlib
import tracemalloc

import numpy as np
import pytest

from helpers import drawn_head_params, grad_check
from simskip import trainer
from simskip.cli import parse_and_run
from simskip.embedding_store import EmbeddingDataset
from simskip.errors import FormatError, ShapeError, ValidationError
from simskip.model import (
    ENCODER_TABLE,
    LAYERS,
    PARAM_TABLE,
    TRAINABLE,
    arena_views,
    contrastive_loss_and_grads,
    encoder_backward,
    encoder_forward,
    encoder_of,
    init_params,
    layer_slices,
    load_checkpoint,
    parameter_counts,
    projector_backward,
    projector_forward,
    refine,
    save_checkpoint,
)
from simskip.synth_data import MixtureSpec, generate_gaussian_mixture
from simskip.trainer import TrainConfig, train


def random_dataset(count, dim, seed=0, labeled=True):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 3, count) if labeled else None
    return EmbeddingDataset(rng.standard_normal((count, dim)), labels)


class TestInit:
    def test_identity_at_init_with_skip(self):
        params = init_params(8, seed=1)
        x = np.random.default_rng(2).standard_normal((5, 8))
        out, _ = encoder_forward(params, x)
        assert np.array_equal(out, x)

    def test_head_is_zero_exactly_with_skip(self):
        # the residual head is zero exactly when the skip path is on, so the
        # ablation starts from a random map, not the zero map
        for skip in (True, False):
            params = init_params(8, seed=1, skip_enabled=skip)
            head = (params.tensors["out.weight"], params.tensors["out.bias"])
            assert all(bool((t == 0).all()) is skip for t in head), skip

    def test_deterministic(self):
        a = init_params(8, seed=3)
        b = init_params(8, seed=3)
        for key, arr in arena_views(a.flat, 8).items():
            assert np.array_equal(arr, arena_views(b.flat, 8)[key]), key

    def test_odd_dim_rejected(self):
        with pytest.raises(ValidationError):
            init_params(7, seed=0)

    def test_identity_witness_for_several_widths(self):
        # the skip path's zero residual head realizes the identity map at every even d
        for d in (2, 4, 16, 32):
            params = init_params(d, seed=0)
            x = np.random.default_rng(d).standard_normal((3, d))
            out, _ = encoder_forward(params, x)
            assert np.array_equal(out, x)

    def test_parameter_count_scheme(self):
        # the encoder's three weight matrices; the projector is not in the file
        assert parameter_counts(16) == {"layer1.weight": 16 * 8, "layer2.weight": 8 * 16,
                                        "out.weight": 16 * 16}


class TestEncoder:
    def test_shape_mismatch(self):
        params = init_params(8, seed=0)
        with pytest.raises(ShapeError):
            encoder_forward(params, np.ones((2, 6)))

    def test_eval_mode_is_deterministic(self):
        params = drawn_head_params(8, 4)
        x = np.random.default_rng(5).standard_normal((6, 8))
        a, _ = encoder_forward(params, x)
        b, _ = encoder_forward(params, x)
        assert np.array_equal(a, b)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(6)
        params = drawn_head_params(8, 6)
        x = rng.standard_normal((4, 8))
        r = rng.standard_normal((4, 8))
        arrays = arena_views(params.flat, 8)
        del arrays["proj1.weight"], arrays["proj1.bias"]
        del arrays["proj2.weight"], arrays["proj2.bias"]
        arrays["input"] = x
        grads = arena_views(np.empty_like(params.flat), 8)

        def loss_fn():
            out, cache = encoder_forward(params, x)
            dx = encoder_backward(cache, r, grads)
            return float((out * r).sum()), {**grads, "input": dx}

        assert grad_check(loss_fn, arrays) < 1e-4


class TestProjector:
    def test_identity_on_nonnegative_orthant(self):
        params = init_params(4, seed=7)
        params.tensors["proj1.weight"][...] = np.eye(4)
        params.tensors["proj1.bias"][...] = 0.0
        params.tensors["proj2.weight"][...] = np.eye(4)
        params.tensors["proj2.bias"][...] = 0.0
        h = np.abs(np.random.default_rng(8).standard_normal((3, 4)))
        z, _ = projector_forward(params, h)
        assert np.array_equal(z, h)

    def test_takes_a_list_of_rows(self):
        # the layer kit converts nothing; the public forward pass converts where it enters
        params = init_params(4, seed=9)
        h = np.random.default_rng(11).standard_normal((3, 4))
        assert np.array_equal(projector_forward(params, h.tolist())[0],
                              projector_forward(params, h)[0])

    def test_null_second_layer(self):
        params = init_params(4, seed=9)
        params.tensors["proj2.weight"][...] = 0.0
        params.tensors["proj2.bias"][...] = 0.0
        z, _ = projector_forward(params, np.random.default_rng(10).standard_normal((3, 4)))
        assert np.array_equal(z, np.zeros((3, 4)))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        params = init_params(6, seed=11)
        h = rng.standard_normal((4, 6))
        r = rng.standard_normal((4, 6))
        arrays = {key: params.tensors[key] for key in
                  ("proj1.weight", "proj1.bias", "proj2.weight", "proj2.bias")}
        arrays["input"] = h
        grads = arena_views(np.empty_like(params.flat), 6)

        def loss_fn():
            z, cache = projector_forward(params, h)
            dh = projector_backward(cache, r, grads)
            return float((z * r).sum()), {**grads, "input": dh}

        assert grad_check(loss_fn, arrays) < 1e-6


class TestFullGraph:
    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(12)
        params = drawn_head_params(8, 12)
        # nudge running stats so eval-mode batch norm is not a pure rescale
        params.tensors["layer1.running_mean"] += 0.1 * rng.standard_normal(4)
        params.tensors["layer1.running_var"] += 0.5 * rng.random(4)
        params.tensors["layer2.running_mean"] += 0.1 * rng.standard_normal(8)
        params.tensors["layer2.running_var"] += 0.5 * rng.random(8)
        pairs = rng.standard_normal((8, 8))  # batch of 4 positive pairs
        grad = np.empty_like(params.flat)
        grads = arena_views(grad, 8)

        def loss_fn():
            loss, dx = contrastive_loss_and_grads(params, pairs, 0.5, grads)
            return loss, {"params": grad, "input": dx}

        assert grad_check(loss_fn, {"params": params.flat, "input": pairs}) < 1e-4

    @pytest.mark.parametrize("skip", [True, False], ids=["skip", "no-skip"])
    def test_skipping_the_input_gradient_keeps_every_parameter_gradient(self, skip):
        # training asks for no input gradient; the parameter gradients stay bitwise
        params = drawn_head_params(8, 3, skip_enabled=skip)
        pairs = np.random.default_rng(4).standard_normal((8, 8))
        grads = [np.full_like(params.flat, np.nan) for _ in range(2)]
        results = [contrastive_loss_and_grads(params, pairs, 0.5, arena_views(g, 8),
                                              rng=np.random.default_rng(5), input_grad=wanted)
                   for g, wanted in zip(grads, (True, False))]
        assert results[0][1].shape == pairs.shape and results[1][1] is None
        assert results[0][0] == results[1][0]
        assert np.array_equal(grads[0], grads[1])

    @pytest.mark.parametrize("skip", [True, False], ids=["skip", "no-skip"])
    def test_after_layer_runs_once_each_layer_is_done(self, skip):
        # the hook sees each layer's final gradients, in backward order; the hook then
        # wipes the layer's tensors and gradient buffers, which the rest of the pass
        # must not read (training updates the one and reuses the other)
        params = drawn_head_params(8, 3, skip_enabled=skip)
        pairs = np.random.default_rng(4).standard_normal((8, 8))
        want = np.empty_like(params.flat)
        want_loss, want_dx = contrastive_loss_and_grads(
            params, pairs, 0.5, arena_views(want, 8), rng=np.random.default_rng(5))
        grad, slices, seen = np.empty_like(params.flat), layer_slices(8), {}

        def after_layer(layer):
            seen[layer] = grad[slices[layer]].copy()
            params.flat[slices[layer]] = np.nan
            grad[slices[layer]] = np.nan

        loss, dx = contrastive_loss_and_grads(params, pairs, 0.5, arena_views(grad, 8),
                                              rng=np.random.default_rng(5),
                                              after_layer=after_layer)
        assert list(seen) == ["proj2", "proj1", "out", "layer2", "layer1"]
        assert loss == want_loss and np.array_equal(dx, want_dx)
        for layer, got in seen.items():
            assert np.array_equal(got, want[slices[layer]]), layer

    @pytest.mark.parametrize("skip", [True, False], ids=["skip", "no-skip"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_train_mode_gradients_match_finite_differences(self, seed, skip):
        # the graph `train` differentiates: batch statistics, dropout masks
        # (a fresh generator per evaluation repeats them) and the skip path
        rng = np.random.default_rng(100 + seed)
        params = drawn_head_params(8, seed, skip_enabled=skip)
        pairs = rng.standard_normal((8, 8))  # batch of 4 positive pairs
        grads = arena_views(np.empty_like(params.flat), 8)
        arrays = {**arena_views(params.flat, 8), "input": pairs}

        def loss_fn():
            loss, dx = contrastive_loss_and_grads(params, pairs, 0.5, grads,
                                                  rng=np.random.default_rng(seed))
            return loss, {**grads, "input": dx}

        assert grad_check(loss_fn, arrays) < 1e-4


class TestRefine:
    def test_identity_at_init(self):
        ds = random_dataset(50, 8, seed=13)
        params = init_params(8, seed=13)
        assert refine(params, ds) == ds

    def test_labels_and_shape_preserved(self):
        ds = random_dataset(30, 8, seed=14)
        params = drawn_head_params(8, 14)
        out = refine(params, ds)
        assert out.count == ds.count and out.dim == ds.dim
        assert np.array_equal(out.labels, ds.labels)

    def test_deterministic(self):
        ds = random_dataset(30, 8, seed=15)
        params = drawn_head_params(8, 15)
        assert refine(params, ds) == refine(params, ds)

    def test_dim_mismatch(self):
        ds = random_dataset(10, 16, seed=16)
        params = init_params(8, seed=16)
        with pytest.raises(ShapeError):
            refine(params, ds)

    def test_blocks_match_one_forward_pass(self):
        # d = 768 gives 170-row blocks, so 500 rows run as three blocks
        ds = random_dataset(500, 768, seed=20)
        params = drawn_head_params(768, 20)
        whole, _ = encoder_forward(params, ds.vectors)
        assert np.allclose(refine(params, ds).vectors, whole, rtol=0, atol=1e-12)

    def test_memory_beyond_the_output_does_not_grow_with_rows(self):
        # the unblocked forward pass kept every layer's cache: 20.5 MiB beyond
        # the output at 10 000 rows and 81.9 MiB at 40 000
        params = drawn_head_params(64, 21)
        extra = []
        for count in (10_000, 40_000):
            ds = random_dataset(count, 64, seed=21, labeled=False)
            tracemalloc.start()
            try:
                refine(params, ds)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            extra.append(peak - ds.vectors.nbytes)
        assert extra[1] <= 1.05 * extra[0]


class TestCheckpoint:
    def _trained_like_params(self, d=8, seed=17):
        params = drawn_head_params(d, seed)
        rng = np.random.default_rng(seed + 1)
        # make running stats non-default so their persistence is exercised
        x = rng.standard_normal((16, d))
        encoder_forward(params, x, rng)
        return params

    def test_round_trip_is_exact(self, tmp_path):
        params = self._trained_like_params()
        path = tmp_path / "m.sskp"
        save_checkpoint(params, path)
        back = load_checkpoint(path)
        assert back.dim == params.dim and back.skip_enabled == params.skip_enabled
        # the encoder comes back, running statistics included; the projector does not
        assert list(back.tensors) == list(ENCODER_TABLE)
        assert np.array_equal(back.flat, encoder_of(params).flat)
        for key in ENCODER_TABLE:
            assert np.array_equal(params.tensors[key], back.tensors[key]), key

    @pytest.mark.parametrize("d,size", [(16, 5002), (768, 9_480_202)])
    def test_file_is_the_header_and_the_encoder(self, tmp_path, d, size):
        params = init_params(d, seed=0)
        path = tmp_path / "m.sskp"
        save_checkpoint(params, path)
        values = sum(params.tensors[key].size for key in ENCODER_TABLE)
        assert path.stat().st_size == 10 + 8 * values == size
        raw = path.read_bytes()
        assert raw[:10] == b"SSKP\x03\x01" + d.to_bytes(4, "little")
        assert raw[10:] == b"".join(params.tensors[key].tobytes() for key in ENCODER_TABLE)

    def test_skip_flag_round_trips(self, tmp_path):
        params = init_params(8, seed=18, skip_enabled=False)
        path = tmp_path / "m.sskp"
        save_checkpoint(params, path)
        assert load_checkpoint(path).skip_enabled is False

    def test_save_is_byte_deterministic(self, tmp_path):
        params = self._trained_like_params()
        p1, p2 = tmp_path / "a.sskp", tmp_path / "b.sskp"
        save_checkpoint(params, p1)
        save_checkpoint(params, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_streams_tensors_to_the_file(self, tmp_path):
        # joining the file in memory and copying it peaked at 2.1x its size
        params = init_params(256, seed=0)
        path = tmp_path / "m.sskp"
        tracemalloc.start()
        try:
            save_checkpoint(params, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 16

    def test_bad_magic(self, tmp_path):
        params = self._trained_like_params()
        path = tmp_path / "m.sskp"
        save_checkpoint(params, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        params = self._trained_like_params()
        path = tmp_path / "m.sskp"
        save_checkpoint(params, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 16])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("flags", [2, 3, 0x80])
    def test_unknown_flag_bits_rejected(self, tmp_path, flags):
        path = tmp_path / "m.sskp"
        save_checkpoint(self._trained_like_params(), path)
        raw = bytearray(path.read_bytes())
        raw[5] = flags
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=f"unknown flag bits 0x{flags:02x}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key,value,message", [
        ("out.weight", np.nan, "'out.weight' holds NaN or Inf"),
        ("layer1.running_mean", np.inf, "'layer1.running_mean' holds NaN or Inf"),
        ("layer2.running_var", -0.5, "'layer2.running_var' holds a negative variance"),
    ], ids=["nan-weight", "inf-running-mean", "negative-running-var"])
    def test_bad_tensor_values_are_rejected(self, tmp_path, capsys, key, value, message):
        params = self._trained_like_params()
        params.tensors[key][1] = value
        path = tmp_path / "m.sskp"
        save_checkpoint(params, path)
        with pytest.raises(FormatError, match=message):
            load_checkpoint(path)
        assert parse_and_run(["inspect", "--in", str(path)]) == 1
        assert message in capsys.readouterr().err

    def test_wrong_width_data_is_rejected_at_use(self, tmp_path):
        params = init_params(8, seed=19)
        path = tmp_path / "m.sskp"
        save_checkpoint(params, path)
        back = load_checkpoint(path)
        ds = random_dataset(10, 16, seed=19)
        with pytest.raises(ShapeError):
            refine(back, ds)


class TestParamTable:
    def test_backward_passes_overwrite_every_gradient_element(self):
        params = init_params(6, seed=3)
        x = np.random.default_rng(4).standard_normal((8, 6))
        h, enc_cache = encoder_forward(params, x, np.random.default_rng(5))
        z, proj_cache = projector_forward(params, h)
        grad = np.full_like(params.flat, np.nan)
        grads = arena_views(grad, 6)
        assert list(grads) == list(TRAINABLE)
        for key in TRAINABLE:
            assert grads[key].shape == params.tensors[key].shape, key
        projector_backward(proj_cache, np.ones_like(z), grads)
        for key, view in grads.items():
            # the projector writes its own tensors and nothing else
            assert (np.isfinite(view) if key.startswith("proj") else np.isnan(view)).all(), key
        encoder_backward(enc_cache, np.ones_like(h), grads)
        assert np.isfinite(grad).all()

    def test_layer_slices_tile_the_arena_in_table_order(self):
        params = init_params(6, seed=3)
        slices = layer_slices(6)
        assert list(slices) == list(LAYERS)
        bounds = [0] + [s.stop for s in slices.values()]
        assert [s.start for s in slices.values()] == bounds[:-1]
        assert bounds[-1] == params.flat.size
        for layer, s in slices.items():
            views = arena_views(params.flat[s], 6, layer)
            assert list(views) == [key for key in TRAINABLE if key.startswith(layer + ".")]
            for key, view in views.items():
                assert view.ctypes.data == params.tensors[key].ctypes.data, key
                assert view.shape == params.tensors[key].shape, key

    def test_trainable_fields_are_views_of_the_arena(self, tmp_path):
        ds = generate_gaussian_mixture(MixtureSpec(2, 6, 32, seed=7))
        trained, _ = train(ds, TrainConfig(batch_size=16, epochs=1, seed=2))
        save_checkpoint(trained, tmp_path / "m.sskp")
        slices = layer_slices(6)
        # the training model's arena holds every layer; an encoder's, the first three
        for params, table in ((init_params(6, seed=3), PARAM_TABLE),
                              (load_checkpoint(tmp_path / "m.sskp"), ENCODER_TABLE),
                              (trained, ENCODER_TABLE)):
            assert list(params.tensors) == list(table)
            views = {}
            for layer in dict.fromkeys(key.split(".")[0] for key in table):
                views |= arena_views(params.flat[slices[layer]], 6, layer)
            assert params.flat.size == slices[layer].stop  # its last layer ends its arena
            for key in table:
                arr = params.tensors[key]
                if key not in TRAINABLE:  # the running statistics live apart
                    assert not np.shares_memory(arr, params.flat), key
                    continue
                assert np.shares_memory(arr, params.flat), key
                assert arr.ctypes.data == views[key].ctypes.data, key
                assert arr.shape == views[key].shape, key
        with pytest.raises(ShapeError):
            arena_views(np.empty(slices["proj2"].stop + 1), 6)

    def test_no_tensor_is_rebound(self, tmp_path, monkeypatch):
        # a training forward pass and a training run write every tensor through
        # the buffer `init_params` made, and the checkpoint holds what they wrote
        made = []

        def recorded_init_params(*args, **kwargs):
            params = init_params(*args, **kwargs)
            made.append(dict(params.tensors))
            return params

        def assert_in_place(params, buffers):
            for key in params.tensors:
                assert params.tensors[key] is buffers[key], key
                assert np.shares_memory(params.tensors[key], params.flat) == (key in TRAINABLE)
            save_checkpoint(params, tmp_path / "m.sskp")
            back = load_checkpoint(tmp_path / "m.sskp")
            for key in ENCODER_TABLE:
                assert np.array_equal(back.tensors[key], params.tensors[key]), key

        params = recorded_init_params(6, seed=3)
        x = np.random.default_rng(4).standard_normal((8, 6))
        encoder_forward(params, x, np.random.default_rng(5))
        assert_in_place(params, made[0])
        # layer 1's batch statistics come before any dropout: from mean 0 and var 1
        a = x @ params.tensors["layer1.weight"].T
        assert np.array_equal(params.tensors["layer1.running_mean"], 0.1 * a.mean(axis=0))
        assert np.array_equal(params.tensors["layer1.running_var"],
                              0.9 * 1.0 + 0.1 * a.var(axis=0))

        monkeypatch.setattr(trainer, "init_params", recorded_init_params)
        ds = generate_gaussian_mixture(MixtureSpec(2, 6, 32, seed=7))
        trained, _ = train(ds, TrainConfig(batch_size=16, epochs=1, seed=2))
        assert len(made) == 2
        assert list(trained.tensors) == list(ENCODER_TABLE)  # training's encoder
        assert_in_place(trained, made[1])
        assert trained.tensors["layer2.running_mean"].any()  # moved off its start

    def test_table_covers_every_tensor_once(self):
        params = init_params(6, seed=3)
        assert len(set(PARAM_TABLE)) == len(PARAM_TABLE) == 16
        assert ENCODER_TABLE == tuple(key for key in PARAM_TABLE if not key.startswith("proj"))
        assert all(isinstance(key, str) for key in PARAM_TABLE)
        assert list(params.tensors) == list(PARAM_TABLE)
        for key in PARAM_TABLE:
            assert isinstance(params.tensors[key], np.ndarray), key
        # the running statistics are the only tensors that do not train
        assert [key for key in PARAM_TABLE if key not in TRAINABLE] == [
            "layer1.running_mean", "layer1.running_var",
            "layer2.running_mean", "layer2.running_var"]


class TestCheckpointBytes:
    """sha256 of SSKP version 3 files: the header, the tensor order of
    `ENCODER_TABLE` and the init random stream (weights, then biases, of each
    linear layer in turn; the two layers before batch norm have no bias).

    The trained digest also pins the float64 results of one training epoch
    with this platform's NumPy/BLAS build (x86-64, NumPy 2.x).
    """

    INIT_SHA256 = "62659001e713cc03f949c92ee527be87769074dddcf200f396532c897043e1d2"
    TRAINED_SHA256 = "240ebed7fea3cd1482acd81d5a21a0b91e1323ca87cf191b42ce183e0480f767"

    def _digest(self, params, path):
        save_checkpoint(params, path)
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def test_init_params_bytes(self, tmp_path):
        assert self._digest(init_params(6, seed=3), tmp_path / "m.sskp") == self.INIT_SHA256

    def test_trained_bytes_and_round_trip(self, tmp_path):
        ds = generate_gaussian_mixture(MixtureSpec(2, 6, 32, seed=7))
        params, _ = train(ds, TrainConfig(batch_size=16, epochs=1, seed=2))
        path, again = tmp_path / "m.sskp", tmp_path / "again.sskp"
        assert self._digest(params, path) == self.TRAINED_SHA256
        assert self._digest(load_checkpoint(path), again) == self.TRAINED_SHA256
