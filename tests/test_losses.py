import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_force_nt_xent, log_space_nt_xent
from simskip import losses
from simskip.errors import NumericsError, ValidationError
from simskip.losses import cosine_sim, hinge_loss, logistic_loss, nt_xent
from simskip.nn_core import grad_check


class TestCosine:
    def test_orthogonal(self):
        assert cosine_sim([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_scale_invariant(self):
        assert cosine_sim([2.0, 2.0], [1.0, 1.0]) == pytest.approx(1.0)

    def test_zero_norm_rejected(self):
        with pytest.raises(NumericsError):
            cosine_sim([1.0, 0.0], [0.0, 0.0])

    def test_clamped_to_unit_interval(self):
        v = np.full(64, 0.1)
        assert cosine_sim(v, v) <= 1.0


class TestNtXent:
    def test_all_identical_rows_gives_ln3(self):
        z = np.tile([0.3, 0.4], (4, 1))
        for tau in (0.07, 0.5, 1.0):
            assert nt_xent(z, tau).value == pytest.approx(math.log(3.0), abs=1e-12)

    def test_orthogonal_pairs_closed_form(self):
        z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        expected = math.log(1.0 + 2.0 / math.e)
        assert nt_xent(z, 1.0).value == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("tau", [0.07, 0.5, 1.0])
    def test_matches_brute_force(self, n, tau):
        rng = np.random.default_rng(100 * n + int(tau * 100))
        for _ in range(3):
            z = rng.standard_normal((2 * n, 5))
            assert abs(nt_xent(z, tau).value - brute_force_nt_xent(z, tau)) < 1e-10

    def test_exclude_positive_variant_matches_brute_force(self):
        rng = np.random.default_rng(21)
        z = rng.standard_normal((8, 4))
        got = nt_xent(z, 0.5, exclude_positive=True).value
        assert abs(got - brute_force_nt_xent(z, 0.5, exclude_positive=True)) < 1e-10

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(22)
        z = rng.standard_normal((8, 8))
        arrays = {"z": z}

        def loss_fn():
            lv = nt_xent(z, 0.5)
            return lv.value, {"z": lv.grad}

        assert grad_check(loss_fn, arrays) < 1e-5

    def test_pair_permutation_leaves_loss_unchanged(self):
        rng = np.random.default_rng(23)
        z = rng.standard_normal((8, 3))
        base = nt_xent(z, 0.5).value
        # swap pair blocks (rows 0,1) <-> (rows 4,5)
        perm = [4, 5, 2, 3, 0, 1, 6, 7]
        assert nt_xent(z[perm], 0.5).value == pytest.approx(base, abs=1e-12)

    def test_positive(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            z = rng.standard_normal((6, 4))
            assert nt_xent(z, 0.5).value > 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(25)
        z = rng.standard_normal((8, 4))
        base = nt_xent(z, 0.5).value
        for c in (0.1, 3.0, 1000.0):
            assert nt_xent(c * z, 0.5).value == pytest.approx(base, abs=1e-9)

    def test_too_few_pairs(self):
        with pytest.raises(ValidationError):
            nt_xent(np.ones((2, 3)), 0.5)

    def test_odd_row_count(self):
        with pytest.raises(ValidationError):
            nt_xent(np.ones((5, 3)), 0.5)

    def test_zero_row_rejected(self):
        z = np.ones((8, 3))
        z[2] = 0.0
        with pytest.raises(NumericsError):
            nt_xent(z, 0.5)

    def test_bad_temperature(self):
        with pytest.raises(ValidationError):
            nt_xent(np.ones((8, 3)), 0.0)


def blocked_nt_xent(z, tau, block, exclude_positive=False):
    """nt_xent evaluated with `block` anchor rows per block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(losses, "_BLOCK_ROWS", block)
        return nt_xent(z, tau, exclude_positive=exclude_positive)


class TestNtXentBlocked:
    # 2N = 14 and 22 span three and four blocks of 6, the last one partial
    @pytest.mark.parametrize("rows", [14, 22])
    @pytest.mark.parametrize("exclude_positive", [False, True])
    @pytest.mark.parametrize("tau", [0.07, 0.5])
    def test_matches_brute_force(self, rows, exclude_positive, tau):
        rng = np.random.default_rng(rows + int(100 * tau))
        z = rng.standard_normal((rows, 5))
        got = blocked_nt_xent(z, tau, 6, exclude_positive).value
        assert abs(got - brute_force_nt_xent(z, tau, exclude_positive)) < 1e-10

    @pytest.mark.parametrize("rows", [14, 22])
    @pytest.mark.parametrize("exclude_positive", [False, True])
    def test_gradient_matches_finite_differences(self, rows, exclude_positive):
        rng = np.random.default_rng(30 + rows)
        z = rng.standard_normal((rows, 6))

        def loss_fn():
            lv = blocked_nt_xent(z, 0.5, 6, exclude_positive)
            return lv.value, {"z": lv.grad}

        assert grad_check(loss_fn, {"z": z}) < 1e-5

    @given(
        st.integers(2, 16), st.integers(1, 8), st.floats(0.05, 2.0),
        st.booleans(), st.integers(0, 2**32 - 1), st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_blocked_agrees_with_single_block(self, pairs, dim, tau, exclude_positive,
                                              seed, data):
        rows = 2 * pairs
        block = data.draw(st.integers(1, rows - 1))
        z = np.random.default_rng(seed).standard_normal((rows, dim))
        single = nt_xent(z, tau, exclude_positive=exclude_positive)
        blocked = blocked_nt_xent(z, tau, block, exclude_positive)
        assert abs(blocked.value - single.value) < 1e-12
        scale = max(1.0, float(np.abs(single.grad).max()))
        assert np.abs(blocked.grad - single.grad).max() < 1e-12 * scale


class TestNtXentNumerics:
    @pytest.mark.parametrize("tau", [1e-3, 1e-2])
    @pytest.mark.parametrize("block", [256, 6])
    @pytest.mark.parametrize("exclude_positive", [False, True])
    def test_small_tau_matches_log_space_oracle(self, tau, block, exclude_positive):
        rng = np.random.default_rng(40)
        random_rows = rng.standard_normal((14, 5))
        # pairs along distinct axes: with the positive excluded every logit of
        # every anchor lies near 0, so shifting by the bound 1/tau instead of
        # the row max would underflow each denominator to 0
        axis_pairs = np.repeat(np.eye(7), 2, axis=0) + 0.05 * rng.standard_normal((14, 7))
        for z in (random_rows, axis_pairs):
            got = blocked_nt_xent(z, tau, block, exclude_positive)
            assert np.isfinite(got.value) and np.all(np.isfinite(got.grad))
            assert abs(got.value - log_space_nt_xent(z, tau, exclude_positive)) < 1e-9

    def test_memory_is_bounded_by_the_block(self):
        # a single 4096 x 4096 float64 array would be 134 MB
        z = np.random.default_rng(42).standard_normal((4096, 16))
        tracemalloc.start()
        try:
            nt_xent(z, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

class TestMarginLosses:
    def test_hinge_values(self):
        assert hinge_loss([1.0, 2.0]) == 0.0
        assert hinge_loss([0.5]) == 0.5
        assert hinge_loss([-1.0]) == 2.0

    def test_logistic_values(self):
        assert logistic_loss([0.0]) == pytest.approx(1.0, abs=1e-12)
        assert logistic_loss([0.5]) == pytest.approx(math.log2(1 + math.exp(-0.5)), abs=1e-12)
        assert logistic_loss([2.0]) == pytest.approx(math.log2(1 + math.exp(-2.0)), abs=1e-12)

    def test_logistic_stable_for_large_negative_margins(self):
        # naive exp would overflow; loss ~ -v / ln 2
        v = np.array([-1000.0])
        assert logistic_loss(v) == pytest.approx(1000.0 / math.log(2.0), rel=1e-6)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            hinge_loss([])
        with pytest.raises(ValidationError):
            logistic_loss([])

    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=6),
        st.lists(st.floats(0, 10), min_size=6, max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_decreasing(self, base, bumps):
        # raising any margin can only lower both losses
        v = np.array(base)
        u = v + np.array(bumps[: len(base)])
        assert logistic_loss(u) <= logistic_loss(v) + 1e-12
        assert hinge_loss(u) <= hinge_loss(v) + 1e-12
