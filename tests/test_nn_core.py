import numpy as np
import pytest

from helpers import grad_check
from simskip import nn_core
from simskip.errors import ShapeError, ValidationError
from simskip.nn_core import (
    batchnorm_apply,
    batchnorm_backward,
    dropout_apply,
    dropout_backward,
    linear_apply,
    linear_backward,
    linear_init,
    relu_apply,
    relu_backward,
)


def new_linear(in_dim, out_dim, rng):
    """A fresh `in_dim -> out_dim` layer's (weight, bias), filled by `linear_init`."""
    weight, bias = np.empty((out_dim, in_dim)), np.empty(out_dim)
    linear_init(weight, bias, rng)
    return weight, bias


def new_batchnorm(dim):
    """A fresh batch-norm layer's tensors: gamma 1, beta 0, running mean 0, running var 1."""
    return np.ones(dim), np.zeros(dim), np.zeros(dim), np.ones(dim)


def linear_grads(weight, cache, dout):
    """`linear_backward` into fresh NaN-filled buffers: (dw, db, dx)."""
    dw, db = np.full_like(weight, np.nan), np.full(weight.shape[0], np.nan)
    dx = linear_backward(cache, dout, dw, db)
    return dw, db, dx


def batchnorm_grads(cache, dout):
    """`batchnorm_backward` into fresh NaN-filled buffers: (dgamma, dbeta, dx)."""
    dgamma, dbeta = np.full(dout.shape[1], np.nan), np.full(dout.shape[1], np.nan)
    dx = batchnorm_backward(cache, dout, dgamma, dbeta)
    return dgamma, dbeta, dx


class TestLinear:
    def test_identity_map(self):
        x = np.random.default_rng(0).standard_normal((4, 3))
        out, _ = linear_apply(x, np.eye(3), np.zeros(3))
        assert np.array_equal(out, x)

    def test_manual_multiply(self):
        out, _ = linear_apply(np.array([[1.0, 1.0]]), np.array([[1.0, 2.0], [3.0, 4.0]]),
                              np.zeros(2))
        assert np.array_equal(out, [[3.0, 7.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            linear_apply(np.ones((2, 4)), np.eye(3), np.zeros(3))

    def test_zero_upstream_gives_zero_grads(self):
        weight, bias = new_linear(3, 2, np.random.default_rng(1))
        out, cache = linear_apply(np.ones((4, 3)), weight, bias)
        dw, db, dx = linear_grads(weight, cache, np.zeros_like(out))
        assert not dw.any() and not db.any() and not dx.any()

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2)
        weight, bias = new_linear(3, 2, rng)
        x = rng.standard_normal((4, 3))
        r = rng.standard_normal((4, 2))  # fixed projection makes the loss scalar

        arrays = {"w": weight, "b": bias, "x": x}

        def loss_fn():
            out, cache = linear_apply(x, weight, bias)
            loss = float((out * r).sum())
            dw, db, dx = linear_grads(weight, cache, r)
            return loss, {"w": dw, "b": db, "x": dx}

        assert grad_check(loss_fn, arrays) < 1e-6

    def test_batch_gradient_is_sum_of_rows(self):
        rng = np.random.default_rng(3)
        weight, bias = new_linear(3, 2, rng)
        row = rng.standard_normal(3)
        g = rng.standard_normal(2)
        _, cache_single = linear_apply(row[None, :], weight, bias)
        dw_single, _, _ = linear_grads(weight, cache_single, g[None, :])
        _, cache_double = linear_apply(np.vstack([row, row]), weight, bias)
        dw_double, _, _ = linear_grads(weight, cache_double, np.vstack([g, g]))
        assert np.allclose(dw_double, 2.0 * dw_single)

    def test_bias_free_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        weight = rng.standard_normal((2, 3))
        x = rng.standard_normal((4, 3))
        r = rng.standard_normal((4, 2))

        def loss_fn():
            out, cache = linear_apply(x, weight)
            dw = np.full_like(weight, np.nan)
            dx = linear_backward(cache, r, dw, None)
            return float((out * r).sum()), {"w": dw, "x": dx}

        assert grad_check(loss_fn, {"w": weight, "x": x}) < 1e-6

    def test_bias_free_backward_matches_the_biased_call(self):
        rng = np.random.default_rng(5)
        weight, bias = new_linear(3, 2, rng)
        x, dout = rng.standard_normal((4, 3)), rng.standard_normal((4, 2))
        out, cache = linear_apply(x, weight)
        assert np.array_equal(out, x @ weight.T)
        dw, _, dx = linear_grads(weight, linear_apply(x, weight, bias)[1], dout)
        dw_free = np.full_like(dw, np.nan)
        dx_free = linear_backward(cache, dout, dw_free, None)
        assert np.array_equal(dw_free, dw) and np.array_equal(dx_free, dx)

    def test_bias_free_init_draws_only_the_weight(self):
        rng, twin = np.random.default_rng(6), np.random.default_rng(6)
        weight = np.empty((2, 3))
        linear_init(weight, None, rng)
        bound = 1 / np.sqrt(3)
        assert np.array_equal(weight, twin.uniform(-bound, bound, (2, 3)))
        assert rng.bit_generator.state == twin.bit_generator.state


class TestBatchNorm:
    def test_hand_computed_normalization(self):
        # column (1,3): mean 2, biased var 1 -> +-1/sqrt(1+eps)
        out, _ = batchnorm_apply(np.array([[1.0], [3.0]]), *new_batchnorm(1), train=True)
        expected = 1.0 / np.sqrt(1.0 + 1e-5)
        assert abs(out[0, 0] + expected) < 1e-12
        assert abs(out[1, 0] - expected) < 1e-12

    def test_eval_with_identity_stats(self):
        x = np.random.default_rng(4).standard_normal((5, 3))
        out, _ = batchnorm_apply(x, *new_batchnorm(3))
        assert np.allclose(out, x, atol=1e-4)  # 1/sqrt(1+eps) effect only

    def test_constant_column_normalizes_to_zero(self):
        out, _ = batchnorm_apply(np.array([[5.0], [5.0]]), *new_batchnorm(1), train=True)
        assert np.array_equal(out, np.zeros((2, 1)))

    def test_running_stats_update_rule(self):
        gamma, beta = np.ones(1), np.zeros(1)
        running_mean, running_var = np.array([1.0]), np.array([2.0])
        x = np.array([[1.0], [3.0]])  # batch mean 2, biased var 1
        batchnorm_apply(x, gamma, beta, running_mean, running_var, train=True)
        assert np.allclose(running_mean, 0.9 * 1.0 + 0.1 * 2.0)
        assert np.allclose(running_var, 0.9 * 2.0 + 0.1 * 1.0)

    def test_train_writes_the_running_stats_into_the_given_buffers(self):
        # the model's running statistics are never rebound: a training pass
        # writes through the arrays it was given, here views of one vector
        rng = np.random.default_rng(9)
        stats = np.concatenate([rng.standard_normal(3), rng.uniform(0.5, 2.0, 3)])
        old = stats.copy()
        running_mean, running_var = stats[:3], stats[3:]
        x = rng.standard_normal((6, 3))
        batchnorm_apply(x, np.ones(3), np.zeros(3), running_mean, running_var, train=True)
        assert np.shares_memory(running_mean, stats) and np.shares_memory(running_var, stats)
        assert np.array_equal(stats[:3], 0.9 * old[:3] + 0.1 * x.mean(axis=0))
        assert np.array_equal(stats[3:], 0.9 * old[3:] + 0.1 * x.var(axis=0))
        before = stats.copy()
        batchnorm_apply(x, np.ones(3), np.zeros(3), running_mean, running_var)
        assert np.array_equal(stats, before)  # the eval pass only reads them

    def test_train_needs_two_rows(self):
        with pytest.raises(ValidationError):
            batchnorm_apply(np.ones((1, 2)), *new_batchnorm(2), train=True)

    def test_gamma_gradient_is_sum_of_normalized_product(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 3))
        out, cache = batchnorm_apply(x, *new_batchnorm(3), train=True)
        xhat = cache[0]
        g = rng.standard_normal(out.shape)
        dgamma, dbeta, _ = batchnorm_grads(cache, g)
        assert np.allclose(dgamma, (g * xhat).sum(axis=0))
        assert np.allclose(dbeta, g.sum(axis=0))

    def test_zero_upstream_gives_zero_grads(self):
        x = np.random.default_rng(6).standard_normal((4, 2))
        _, cache = batchnorm_apply(x, *new_batchnorm(2), train=True)
        dgamma, dbeta, dx = batchnorm_grads(cache, np.zeros((4, 2)))
        assert not dgamma.any() and not dbeta.any() and not dx.any()

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((5, 3)) * 2.0
        gamma0 = rng.uniform(0.5, 1.5, 3)
        beta0 = rng.standard_normal(3)
        r = rng.standard_normal((5, 3))
        params = {"gamma": gamma0.copy(), "beta": beta0.copy(), "x": x}

        def loss_fn():
            _, _, running_mean, running_var = new_batchnorm(3)
            out, cache = batchnorm_apply(params["x"], params["gamma"], params["beta"],
                                         running_mean, running_var, train=True)
            loss = float((out * r).sum())
            dgamma, dbeta, dx = batchnorm_grads(cache, r)
            return loss, {"gamma": dgamma, "beta": dbeta, "x": dx}

        assert grad_check(loss_fn, params) < 1e-6

    def test_train_output_column_statistics(self):
        # before affine: mean ~0, variance ~ var/(var+eps)
        rng = np.random.default_rng(8)
        x = rng.standard_normal((200, 4)) * 3.0
        out, _ = batchnorm_apply(x, *new_batchnorm(4), train=True)
        var = x.var(axis=0)
        assert np.all(np.abs(out.mean(axis=0)) < 1e-10)
        assert np.all(np.abs(out.var(axis=0) - var / (var + 1e-5)) < 1e-6)


class TestRelu:
    def test_forward_definition(self):
        y, _ = relu_apply(np.array([-1.0, 0.0, 2.0]))
        assert np.array_equal(y, [0.0, 0.0, 2.0])

    def test_backward_definition(self):
        _, cache = relu_apply(np.array([-1.0, 2.0]))
        assert np.array_equal(relu_backward(cache, np.array([5.0, 5.0])), [0.0, 5.0])

    def test_subgradient_at_zero_is_zero(self):
        _, cache = relu_apply(np.array([0.0]))
        assert relu_backward(cache, np.array([3.0]))[0] == 0.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((4, 3)) + 0.5  # keep away from the kink at 0
        x[np.abs(x) < 0.1] = 0.5
        r = rng.standard_normal(x.shape)
        arrays = {"x": x}

        def loss_fn():
            y, cache = relu_apply(x)
            return float((y * r).sum()), {"x": relu_backward(cache, r)}

        assert grad_check(loss_fn, arrays) < 1e-6


class TestDropout:
    def test_rate_zero_is_identity_in_both_modes(self):
        x = np.random.default_rng(10).standard_normal((3, 4))
        for rng in (np.random.default_rng(0), None):
            y, _ = dropout_apply(x, 0.0, rng)
            assert np.array_equal(y, x)

    def test_eval_mode_is_identity(self):
        x = np.random.default_rng(11).standard_normal((3, 4))
        y, _ = dropout_apply(x, 0.7)
        assert np.array_equal(y, x)

    def test_inverted_scaling_preserves_expectation(self):
        rng = np.random.default_rng(12)
        x = np.ones((100_000, 4))
        y, _ = dropout_apply(x, 0.5, rng)
        assert np.all(np.abs(y.mean(axis=0) - 1.0) < 0.02)

    def test_backward_reuses_forward_mask(self):
        rng = np.random.default_rng(13)
        x = np.ones((50, 8))
        y, cache = dropout_apply(x, 0.4, rng)
        g = dropout_backward(cache, np.ones_like(x))
        assert np.array_equal(g == 0.0, y == 0.0)
        assert np.allclose(g[g != 0.0], 1.0 / 0.6)

    def test_invalid_rate(self):
        # checked with or without a generator, though the eval pass never reads the rate
        for rng in (np.random.default_rng(0), None):
            for rate in (1.0, -0.1, np.nan):
                with pytest.raises(ValidationError, match="dropout rate"):
                    dropout_apply(np.ones((2, 3)), rate, rng)


def arrays_in(value):
    """Every array in `value`, an array or a tuple of arrays and other values."""
    if isinstance(value, np.ndarray):
        return [value]
    return [a for item in value for a in arrays_in(item)] if isinstance(value, tuple) else []


def layer_calls(rng):
    """Each layer function's call, keyed `<function>-<pass>`: (a function of no
    arguments making the call, the arrays it reads, whether it returns an
    input as its result). Parameter-gradient buffers and a training pass's
    running statistics, which the functions write, are fresh per call."""
    x, dout = rng.standard_normal((6, 4)), rng.standard_normal((6, 4))
    weight, bias = new_linear(4, 4, rng)
    gamma, beta = rng.uniform(0.5, 1.5, 4), rng.standard_normal(4)
    stats = (rng.standard_normal(4), rng.uniform(0.5, 2.0, 4))
    lin = linear_apply(x, weight, bias)[1]
    bn_train = batchnorm_apply(x, gamma, beta, np.zeros(4), np.ones(4), train=True)[1]
    bn_eval = batchnorm_apply(x, gamma, beta, *stats)[1]
    relu = relu_apply(x)[1]
    drop = dropout_apply(x, 0.3, np.random.default_rng(1))[1]
    return {
        "linear_apply-bias": (lambda: linear_apply(x, weight, bias), (x, weight, bias), False),
        "linear_apply-no-bias": (lambda: linear_apply(x, weight), (x, weight), False),
        "linear_backward": (lambda: linear_backward(lin, dout, np.empty_like(weight),
                                                    np.empty(4)), (lin, dout), False),
        "batchnorm_apply-train": (lambda: batchnorm_apply(x, gamma, beta, np.zeros(4),
                                                          np.ones(4), train=True),
                                  (x, gamma, beta), False),
        "batchnorm_apply-eval": (lambda: batchnorm_apply(x, gamma, beta, *stats),
                                 (x, gamma, beta, stats), False),
        "batchnorm_backward-train": (lambda: batchnorm_backward(bn_train, dout, np.empty(4),
                                                                np.empty(4)),
                                     (bn_train, dout), False),
        "batchnorm_backward-eval": (lambda: batchnorm_backward(bn_eval, dout, np.empty(4),
                                                               np.empty(4)),
                                    (bn_eval, dout), False),
        "relu_apply": (lambda: relu_apply(x), (x,), False),
        "relu_backward": (lambda: relu_backward(relu, dout), (relu, dout), False),
        "dropout_apply-train": (lambda: dropout_apply(x, 0.3, np.random.default_rng(1)), (x,),
                                False),
        "dropout_apply-eval": (lambda: dropout_apply(x, 0.3), (x,), True),
        "dropout_backward-train": (lambda: dropout_backward(drop, dout), (drop, dout), False),
        "dropout_backward-eval": (lambda: dropout_backward(None, dout), (dout,), True),
    }


class TestInputsUntouched:
    """No layer function writes to an array its caller passed in, and each
    result is a new array unless the layer is the identity: `model` applies
    its ReLU masks and skip path in place on the results."""

    def test_every_layer_function_is_covered(self):
        names = {name for name in dir(nn_core) if name.endswith(("_apply", "_backward"))}
        assert {key.split("-")[0] for key in layer_calls(np.random.default_rng(0))} == names

    @pytest.mark.parametrize("key", sorted(layer_calls(np.random.default_rng(0))))
    def test_inputs_bitwise_unchanged(self, key):
        call, inputs, identity = layer_calls(np.random.default_rng(30))[key]
        read = arrays_in(inputs)
        before = [a.copy() for a in read]
        result = call()
        for got, want in zip(read, before):
            assert np.array_equal(got, want)
        out = result[0] if key.split("-")[0].endswith("_apply") else result
        if identity:
            assert any(out is a for a in read)
        else:
            assert not any(np.shares_memory(out, a) for a in read)


class TestGradCheck:
    def test_scalar_square(self):
        w = np.array(3.0)
        arrays = {"w": w}

        def loss_fn():
            return float(w**2), {"w": np.asarray(2.0 * w)}

        assert grad_check(loss_fn, arrays) < 1e-9

    def test_non_finite_loss_rejected(self):
        from simskip.errors import NumericsError
        w = np.array(1.0)

        def loss_fn():
            return float("nan"), {"w": np.asarray(0.0)}

        with pytest.raises(NumericsError):
            grad_check(loss_fn, {"w": w})
