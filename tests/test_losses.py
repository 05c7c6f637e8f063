import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_force_nt_xent,
    grad_check,
    hinge_loss,
    log_space_nt_xent,
    patch_block_budget,
)
from simskip import losses
from simskip.errors import NumericsError, ShapeError, ValidationError
from simskip.losses import logistic_loss, nt_xent


class TestNtXent:
    def test_all_identical_rows_gives_ln3(self):
        z = np.tile([0.3, 0.4], (4, 1))
        for tau in (0.07, 0.5, 1.0):
            assert nt_xent(z, tau)[0] == pytest.approx(math.log(3.0), abs=1e-12)

    def test_orthogonal_pairs_closed_form(self):
        z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        expected = math.log(1.0 + 2.0 / math.e)
        assert nt_xent(z, 1.0)[0] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("tau", [0.07, 0.5, 1.0])
    def test_matches_brute_force(self, n, tau):
        rng = np.random.default_rng(100 * n + int(tau * 100))
        for _ in range(3):
            z = rng.standard_normal((2 * n, 5))
            assert abs(nt_xent(z, tau)[0] - brute_force_nt_xent(z, tau)) < 1e-10

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(22)
        z = rng.standard_normal((8, 8))
        arrays = {"z": z}

        def loss_fn():
            value, grad = nt_xent(z, 0.5)
            return value, {"z": grad}

        assert grad_check(loss_fn, arrays) < 1e-5

    def test_pair_permutation_leaves_loss_unchanged(self):
        rng = np.random.default_rng(23)
        z = rng.standard_normal((8, 3))
        base = nt_xent(z, 0.5)[0]
        # swap pair blocks (rows 0,1) <-> (rows 4,5)
        perm = [4, 5, 2, 3, 0, 1, 6, 7]
        assert nt_xent(z[perm], 0.5)[0] == pytest.approx(base, abs=1e-12)

    def test_positive(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            z = rng.standard_normal((6, 4))
            assert nt_xent(z, 0.5)[0] > 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(25)
        z = rng.standard_normal((8, 4))
        base = nt_xent(z, 0.5)[0]
        for c in (0.1, 3.0, 1000.0):
            assert nt_xent(c * z, 0.5)[0] == pytest.approx(base, abs=1e-9)

    def test_too_few_pairs(self):
        with pytest.raises(ValidationError):
            nt_xent(np.ones((2, 3)), 0.5)

    def test_one_dimensional_z_rejected(self):
        with pytest.raises(ShapeError, match="z must be 2-D"):
            nt_xent(np.ones(8), 0.5)

    def test_odd_row_count(self):
        with pytest.raises(ValidationError):
            nt_xent(np.ones((5, 3)), 0.5)

    def test_zero_row_rejected(self):
        z = np.ones((8, 3))
        z[2] = 0.0
        with pytest.raises(NumericsError):
            nt_xent(z, 0.5)

    def test_bad_temperature(self):
        for tau in (0.0, -0.5, math.nan, math.inf):  # nan: a NaN loss; inf: log(2N - 1)
            with pytest.raises(ValidationError, match="finite and > 0"):
                nt_xent(np.ones((8, 3)), tau)


def blocked_nt_xent(z, tau, block):
    """nt_xent evaluated with the cache budget set to `block` anchor rows
    of 8 * 2N bytes, checking that it ran in blocks of that many rows."""
    rows = len(z)
    with pytest.MonkeyPatch.context() as mp:
        counts = patch_block_budget(mp, losses, block * 8 * rows)
        value, grad = nt_xent(z, tau)
    assert counts == [math.ceil(rows / block)]
    return value, grad


class TestNtXentBlocked:
    # 2N = 14 and 22 span three and four blocks of 6, the last one partial
    @pytest.mark.parametrize("rows", [14, 22])
    @pytest.mark.parametrize("tau", [0.07, 0.5])
    def test_matches_brute_force(self, rows, tau):
        rng = np.random.default_rng(rows + int(100 * tau))
        z = rng.standard_normal((rows, 5))
        got = blocked_nt_xent(z, tau, 6)[0]
        assert abs(got - brute_force_nt_xent(z, tau)) < 1e-10

    @pytest.mark.parametrize("rows", [14, 22])
    def test_gradient_matches_finite_differences(self, rows):
        rng = np.random.default_rng(30 + rows)
        z = rng.standard_normal((rows, 6))

        def loss_fn():
            value, grad = blocked_nt_xent(z, 0.5, 6)
            return value, {"z": grad}

        assert grad_check(loss_fn, {"z": z}) < 1e-5

    @given(
        st.integers(2, 16), st.integers(1, 8), st.floats(0.05, 2.0),
        st.integers(0, 2**32 - 1), st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_blocked_agrees_with_single_block(self, pairs, dim, tau, seed, data):
        rows = 2 * pairs
        block = data.draw(st.integers(1, rows - 1))
        z = np.random.default_rng(seed).standard_normal((rows, dim))
        single_value, single_grad = nt_xent(z, tau)
        blocked_value, blocked_grad = blocked_nt_xent(z, tau, block)
        assert abs(blocked_value - single_value) < 1e-12
        scale = max(1.0, float(np.abs(single_grad).max()))
        assert np.abs(blocked_grad - single_grad).max() < 1e-12 * scale


class TestNtXentNumerics:
    @pytest.mark.parametrize("tau", [1e-3, 1e-2])
    @pytest.mark.parametrize("block", [256, 6])
    def test_small_tau_matches_log_space_oracle(self, tau, block):
        rng = np.random.default_rng(40)
        random_rows = rng.standard_normal((14, 5))
        # pairs along distinct axes: each positive logit lies near 1/tau and
        # every other near 0, so each negative's shifted exp underflows to 0
        axis_pairs = np.repeat(np.eye(7), 2, axis=0) + 0.05 * rng.standard_normal((14, 7))
        for z in (random_rows, axis_pairs):
            value, grad = blocked_nt_xent(z, tau, block)
            assert np.isfinite(value) and np.all(np.isfinite(grad))
            assert abs(value - log_space_nt_xent(z, tau)) < 1e-9

    def test_coinciding_views(self):
        # rows 2i and 2i+1 equal: their cosines round up to 1 + a few ulps,
        # and the row-max shift alone keeps every exp finite
        z = np.repeat(np.random.default_rng(48).standard_normal((5, 6)), 2, axis=0)
        zh = z / np.linalg.norm(z, axis=1)[:, None]
        assert (zh @ zh.T).max() > 1.0
        for tau in (0.5, 0.1):
            assert abs(nt_xent(z, tau)[0] - brute_force_nt_xent(z, tau)) < 1e-10
        # the CLI's error state; each negative's shifted exp underflows to 0 by design
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            value, grad = nt_xent(z, 1e-300)
        assert np.isfinite(value) and value >= 0.0
        assert np.all(np.isfinite(grad))

    def test_underflow_is_not_a_fault(self):
        # at tau = 1e-3 most negatives' shifted exp underflows to 0, its right value:
        # under a caller's all-raise error state the loss and gradient are bitwise the same
        z = np.random.default_rng(49).standard_normal((64, 4))
        want_value, want_grad = nt_xent(z, 1e-3)
        with np.errstate(all="raise"):
            got_value, got_grad = nt_xent(z, 1e-3)
        assert got_value == want_value and np.array_equal(got_grad, want_grad)

    def test_memory_is_bounded_by_the_block(self):
        # a single 4096 x 4096 float64 array would be 134 MB; 256-row blocks
        # took 17 MB, and the 32 x 4096 blocks of the cache budget 1 MB
        z = np.random.default_rng(42).standard_normal((4096, 16))
        tracemalloc.start()
        try:
            nt_xent(z, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_leaves_its_input_unchanged(self):
        # the gradient is formed in nt_xent's own buffers, never in z's
        z = np.random.default_rng(50).standard_normal((16, 6))
        before = z.copy()
        _, grad = nt_xent(z, 0.5)
        assert np.array_equal(z, before)
        assert not np.shares_memory(grad, z)

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

    def test_logistic_underflow_is_not_a_fault(self):
        # exp(-800) underflows to 0, the right term, under a caller's all-raise state too
        want = logistic_loss([800.0, 1.0])
        with np.errstate(all="raise"):
            assert logistic_loss([800.0, 1.0]) == want
        assert want == pytest.approx(math.log2(1 + math.exp(-1.0)), rel=1e-15)

    def test_empty_rejected(self):
        for empty in ([], np.empty((0, 3)), np.empty((3, 0))):
            with pytest.raises(ValidationError):
                hinge_loss(empty)
            with pytest.raises(ValidationError):
                logistic_loss(empty)

    @pytest.mark.parametrize("loss", [hinge_loss, logistic_loss])
    def test_matrix_gives_one_value_per_row(self, loss):
        rng = np.random.default_rng(26)
        margins = 3.0 * rng.standard_normal((7, 4))
        margins[0] -= 1000.0  # exp(1000) overflows unless the row is shifted
        margins[1] += 1000.0
        per_row = loss(margins)
        assert per_row.shape == (7,)
        assert np.array_equal(per_row, [loss(row) for row in margins])
        for bad in (np.nan, np.inf, -np.inf):
            margins[3, 2] = bad
            with pytest.raises(ValidationError):
                loss(margins)

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
