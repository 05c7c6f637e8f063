import hashlib

import numpy as np
import pytest

from simskip.augment import (
    DEFAULT_NOISE_SCALE,
    AugmentConfig,
    gaussian_noise,
    make_positive_pairs,
    random_mask,
)
from simskip.errors import ValidationError


class TestRandomMask:
    def test_zero_prob_is_identity(self):
        rng = np.random.default_rng(0)
        x = np.array([0.5, -1.25, 3.0, 0.0])
        assert np.array_equal(random_mask(x, 0.0, rng), x)

    def test_elementwise_product_definition(self):
        # a fixed mask is just an elementwise product
        x = np.array([1.0, 2.0, 3.0, 4.0])
        mask = np.array([1.0, 0.0, 1.0, 1.0])
        assert np.array_equal(x * mask, [1.0, 0.0, 3.0, 4.0])

    def test_masked_fraction_concentrates(self):
        rng = np.random.default_rng(1)
        x = np.ones((100_000, 32))
        masked = random_mask(x, 0.2, rng)
        frac = (masked == 0.0).mean()
        assert abs(frac - 0.2) < 0.01

    def test_invalid_prob(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError):
            random_mask(np.ones(3), 1.5, rng)

    def test_draw_equal_to_mask_prob_keeps_the_coordinate(self):
        # a coordinate is zeroed exactly when its uniform draw is below mask_prob
        class Draws:
            def random(self, shape):
                return np.full(shape, 0.25)

        x = np.array([0.5, -1.25, 3.0])
        assert np.array_equal(random_mask(x, 0.25, Draws()), x)
        assert np.array_equal(random_mask(x, np.nextafter(0.25, 1.0), Draws()), np.zeros(3))


class TestGaussianNoise:
    def test_zero_scale_is_identity(self):
        rng = np.random.default_rng(0)
        x = np.array([1.0, -2.0, 0.0])
        assert np.array_equal(gaussian_noise(x, 0.0, rng), x)

    def test_moments(self):
        rng = np.random.default_rng(2)
        delta = 0.7
        draws = gaussian_noise(np.zeros((100_000, 8)), delta, rng)
        assert np.all(np.abs(draws.mean(axis=0)) < 0.02)
        assert np.all(np.abs(draws.var(axis=0) - delta**2) < 0.05 * delta**2)

    def test_variance_setting_013(self):
        # scale sqrt(0.13) gives per-coordinate noise variance 0.13
        rng = np.random.default_rng(3)
        delta = np.sqrt(0.13)
        draws = gaussian_noise(np.zeros((100_000, 8)), delta, rng)
        assert np.all(np.abs(draws.var(axis=0) - 0.13) < 0.05 * 0.13)

    def test_unbiased_around_input(self):
        # E[x + noise] = x within 3 standard errors
        rng = np.random.default_rng(4)
        x = np.array([5.0, -3.0])
        n = 100_000
        draws = gaussian_noise(np.tile(x, (n, 1)), 0.5, rng)
        se = 0.5 / np.sqrt(n)
        assert np.all(np.abs(draws.mean(axis=0) - x) < 3 * se)

    def test_underflow_is_not_a_fault(self):
        # noise at scale 1e-310 is subnormal or 0, its right value: under a caller's
        # all-raise error state the views are bitwise the same
        want = gaussian_noise(np.ones((2, 3)), 1e-310, np.random.default_rng(5))
        with np.errstate(all="raise"):
            got = gaussian_noise(np.ones((2, 3)), 1e-310, np.random.default_rng(5))
        assert got.tobytes() == want.tobytes()

    def test_negative_scale(self):
        rng = np.random.default_rng(0)
        for scale in (-0.1, np.inf, np.nan):  # inf would give inf views, nan NaN views
            with pytest.raises(ValidationError, match="finite and >= 0"):
                gaussian_noise(np.ones(3), scale, rng)


class TestPositivePairs:
    def test_identity_config_gives_equal_views(self):
        cfg = AugmentConfig(mask_prob=0.0, noise_scale=0.0)
        rng = np.random.default_rng(0)
        x = np.array([[1.0, 2.0, 3.0]])
        a, b = make_positive_pairs(x, cfg, rng)
        assert np.array_equal(a, x[0]) and np.array_equal(b, x[0])
        assert not np.shares_memory(a, b)

    def test_views_differ_with_noise(self):
        cfg = AugmentConfig(noise_scale=0.3)
        rng = np.random.default_rng(5)
        x = np.ones((1, 8))
        for _ in range(100):
            a, b = make_positive_pairs(x, cfg, rng)
            assert not np.array_equal(a, b)

    def test_mask_applies_before_noise(self):
        # with every coordinate masked, the view is pure noise: it must not
        # depend on the input at all
        cfg = AugmentConfig(mask_prob=1.0, noise_scale=0.5)
        x = np.array([[100.0, -50.0, 7.0]])
        view_x = make_positive_pairs(x, cfg, np.random.default_rng(6))
        view_0 = make_positive_pairs(np.zeros((1, 3)), cfg, np.random.default_rng(6))
        assert np.array_equal(view_x, view_0)
        assert not np.array_equal(view_x, np.zeros((2, 3)))

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            AugmentConfig(mask_prob=-0.1)
        with pytest.raises(ValidationError):
            AugmentConfig(noise_scale=-1.0)

    def test_default_is_noise_only(self):
        assert AugmentConfig() == AugmentConfig(mask_prob=0.0, noise_scale=DEFAULT_NOISE_SCALE)

    @pytest.mark.parametrize("mask_prob,noise_scale", [(0.0, 0.3), (0.4, 0.0), (0.4, 0.3)],
                             ids=["noise", "mask", "mask-then-noise"])
    def test_a_zero_strength_skips_its_draws(self, mask_prob, noise_scale):
        # each nonzero step draws its own numbers, in order, and nothing else
        x = np.random.default_rng(7).standard_normal((5, 4))
        got_rng, want_rng = np.random.default_rng(8), np.random.default_rng(8)
        got = make_positive_pairs(x, AugmentConfig(mask_prob, noise_scale), got_rng)
        for got_view in (got[0::2], got[1::2]):  # view a of every row, then view b
            want = x
            if mask_prob:
                want = random_mask(want, mask_prob, want_rng)
            if noise_scale:
                want = gaussian_noise(want, noise_scale, want_rng)
            assert np.array_equal(got_view, want)
        assert got_rng.random() == want_rng.random()

    def test_masked_then_noised_pairs_match_their_digest(self):
        # pins the bytes of masked-then-noised views: the mask zeroes 11 of these 48
        # coordinates, and no train config in the golden pipeline sets mask_prob.
        # Like the golden digests, it pins this platform's NumPy build (NumPy 2.x)
        x = np.random.default_rng(21).standard_normal((3, 8))
        pairs = make_positive_pairs(x, AugmentConfig(mask_prob=0.2), np.random.default_rng(22))
        assert pairs.shape == (6, 8) and pairs.dtype == np.float64
        assert hashlib.sha256(pairs.tobytes()).hexdigest() == (
            "e4c2bd42724cf35e66e6da6412382dfc089bd0acef064551dff8f78496cac70b")
