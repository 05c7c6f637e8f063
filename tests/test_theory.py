import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    hinge_loss,
    orthogonal_class_means,
    patch_block_budget,
    reference_triplet_margins,
)
from simskip import theory, utils
from simskip.embedding_store import EmbeddingDataset
from simskip.errors import NumericsError, ValidationError
from simskip.losses import logistic_loss
from simskip.synth_data import MixtureSpec, generate_gaussian_mixture
from simskip.theory import (
    Triplets,
    bound_report,
    bound_rhs,
    gen_m,
    sample_triplets,
    skip_inequality_check,
    triplet_margins,
)


def triplets_of(*rows):
    """Triplets from (anchor, positive, negatives) tuples."""
    anchors, positives, negatives = zip(*rows)
    return Triplets(np.array(anchors), np.array(positives), np.array(negatives))


def directional_mixture(num_classes=8, dim=16, per=50, sep=10.0, seed=7):
    spec = MixtureSpec(num_classes, dim, per, class_separation=sep, seed=seed)
    return generate_gaussian_mixture(spec, orthogonal_class_means(num_classes, dim, sep))


class TestSampling:
    def test_forced_pair_in_two_point_class(self):
        ds = EmbeddingDataset(np.array([[1.0, 0.0], [0.0, 1.0]]), [0, 0])
        t = sample_triplets(ds, k=1, count=1, seed=0)
        assert len(t) == 1 and t.k == 1
        assert {int(t.anchors[0]), int(t.positives[0])} == {0, 1}

    def test_negatives_are_dataset_wide_uniform(self):
        # with 2 balanced classes about half the negatives share the anchor label
        ds = directional_mixture(num_classes=2, dim=4, per=100)
        t = sample_triplets(ds, k=1, count=1000, seed=3)
        share = np.mean(ds.labels[t.negatives[:, 0]] == ds.labels[t.anchors])
        assert abs(share - 0.5) < 0.05

    def test_positive_shares_label_and_differs_from_anchor(self):
        ds = directional_mixture(num_classes=3, dim=4, per=20)
        t = sample_triplets(ds, k=2, count=200, seed=4)
        assert np.all(t.positives != t.anchors)
        assert np.array_equal(ds.labels[t.positives], ds.labels[t.anchors])

    def test_deterministic(self):
        ds = directional_mixture(num_classes=2, dim=4, per=10)
        a, b = sample_triplets(ds, 2, 50, seed=5), sample_triplets(ds, 2, 50, seed=5)
        for name in ("anchors", "positives", "negatives"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_singleton_class_rejected(self):
        ds = EmbeddingDataset(np.eye(3), [0, 0, 1])
        with pytest.raises(ValidationError):
            sample_triplets(ds, 1, 10, seed=0)

    def test_unlabeled_dataset_rejected(self):
        with pytest.raises(ValidationError, match="sample_triplets requires labels"):
            sample_triplets(EmbeddingDataset(np.eye(3)), 1, 10, seed=0)

    def test_empty_dataset_rejected(self):
        ds = EmbeddingDataset(np.zeros((0, 3)), np.zeros(0, dtype=np.int64))
        with pytest.raises(ValidationError, match="empty"):
            sample_triplets(ds, 1, 10, seed=0)


def within_binomial(counts, n, p, sigmas=5.0):
    """Each count lies within `sigmas` standard deviations of Binomial(n, p)'s mean."""
    counts, n = np.asarray(counts, dtype=float), np.asarray(n, dtype=float)
    return np.all(np.abs(counts - n * p) <= sigmas * np.sqrt(n * p * (1 - p)))


class TestTriplets:
    def test_draw_has_the_documented_distribution(self):
        # classes of 2, 3 and 7 rows, interleaved so members are not contiguous
        labels = np.random.default_rng(0).permutation([0] * 2 + [1] * 3 + [2] * 7)
        n, count, k = labels.size, 60_000, 3
        ds = EmbeddingDataset(np.zeros((n, 1)), labels)
        t = sample_triplets(ds, k=k, count=count, seed=11)
        assert len(t) == count and t.k == k
        assert np.all(t.positives != t.anchors)
        assert np.array_equal(labels[t.positives], labels[t.anchors])

        per_anchor = np.bincount(t.anchors, minlength=n)
        assert within_binomial(per_anchor, count, 1 / n)
        # given its anchor, a positive is uniform over the class's other rows
        pairs = np.bincount(t.anchors * n + t.positives, minlength=n * n).reshape(n, n)
        for a in range(n):
            others = np.flatnonzero((labels == labels[a]) & (np.arange(n) != a))
            assert pairs[a].sum() == pairs[a, others].sum() == per_anchor[a]
            assert within_binomial(pairs[a, others], per_anchor[a], 1 / others.size)
        assert within_binomial(np.bincount(t.negatives.ravel(), minlength=n), count * k, 1 / n)

    @pytest.mark.parametrize("anchors,positives,negatives", [
        ([0.0], [1], [[2]]),
        ([0], [1], [[True]]),
        ([[0]], [1], [[2]]),
        ([0], [1, 1], [[2]]),
        ([0], [1], [2]),
        ([0], [1], np.zeros((1, 0), dtype=int)),
        ([0], [1], [[2], [2]]),
        (np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros((0, 1), dtype=int)),
        ([-1], [1], [[2]]),
    ], ids=["float-anchors", "bool-negatives", "2-d-anchors", "positives-length",
            "1-d-negatives", "no-negatives", "negatives-rows", "no-triplets",
            "negative-index"])
    def test_bad_shapes_and_dtypes_rejected(self, anchors, positives, negatives):
        with pytest.raises(ValidationError):
            Triplets(np.array(anchors), np.array(positives), np.array(negatives))

    def test_index_beyond_the_embedding_rejected(self):
        with pytest.raises(ValidationError, match="out of range"):
            triplet_margins(np.eye(3), triplets_of((0, 1, (3,))))


class TestEmpiricalLoss:
    """L_un of an embedding is `skip_inequality_check(...)["L_un_identity"]` on it."""

    def test_logistic_single_triplet(self):
        # anchor (1,0), positive (1,0), negative (0,1): margin exactly 1
        ds = EmbeddingDataset(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), [0, 0, 1])
        report = skip_inequality_check(ds, triplets_of((0, 1, (2,))))
        assert report["L_un_identity"] == pytest.approx(math.log2(1 + math.exp(-1.0)), abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_constant_map_gives_log2_of_k_plus_one(self, k):
        # the constant map's embedding is all-zero rows: every margin is 0
        labels = directional_mixture(num_classes=2, dim=4, per=10).labels
        ds = EmbeddingDataset(np.zeros((labels.size, 4)), labels)
        triplets = sample_triplets(ds, k=k, count=100, seed=6)
        got = skip_inequality_check(ds, triplets)["L_un_identity"]
        assert got == pytest.approx(math.log2(1 + k), abs=1e-12)


class TestTripletMargins:
    @pytest.mark.parametrize("dim", [2, 32, 768])
    @pytest.mark.parametrize("k", [1, 4, 7])
    def test_bitwise_equal_to_one_einsum_over_all_negatives(self, dim, k):
        rng = np.random.default_rng(dim * 10 + k)
        ds = EmbeddingDataset(rng.standard_normal((60, dim)) * 3.0, rng.integers(0, 3, 60))
        triplets = sample_triplets(ds, k=k, count=200, seed=k)
        got = triplet_margins(ds.vectors, triplets)
        assert got.shape == (200, k)
        assert np.array_equal(got, reference_triplet_margins(ds.vectors, triplets))

    @pytest.mark.parametrize("dim", [2, 32, 768])
    @pytest.mark.parametrize("k", [1, 4, 7])
    def test_bitwise_equal_in_small_blocks(self, dim, k, monkeypatch):
        # 1000 triplets in blocks of 7 rows of 32 * d bytes: 142 full blocks
        # and a 6-row tail
        counts = patch_block_budget(monkeypatch, theory, 7 * 32 * dim)
        rng = np.random.default_rng(dim * 10 + k + 1)
        ds = EmbeddingDataset(rng.standard_normal((60, dim)) * 3.0, rng.integers(0, 3, 60))
        triplets = sample_triplets(ds, k=k, count=1000, seed=k)
        got = triplet_margins(ds.vectors, triplets)
        assert counts == [143]
        assert np.array_equal(got, reference_triplet_margins(ds.vectors, triplets))

    def test_memory_is_bounded_by_the_block(self, monkeypatch):
        # beyond the (T, k) result, only block-sized buffers: the whole-T
        # gathers took 4 T x d arrays (82 MB here)
        rng = np.random.default_rng(4)
        count, dim, k = 40_000, 64, 7
        embedded = rng.standard_normal((500, dim))
        triplets = Triplets(rng.integers(500, size=count), rng.integers(500, size=count),
                            rng.integers(500, size=(count, k)))

        def peak_beyond_result():
            tracemalloc.start()
            try:
                triplet_margins(embedded, triplets)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - count * k * 8

        with pytest.MonkeyPatch.context() as mp:
            # 256-row blocks of 32 * d bytes: 156 full blocks and a tail
            counts = patch_block_budget(mp, theory, 256 * 32 * dim)
            assert peak_beyond_result() < 8 * 256 * dim * 8
            assert counts == [157]
        # at the default budget, 512-row blocks: the block's buffers fit in it
        counts = patch_block_budget(monkeypatch, theory, utils._CACHE_BLOCK_BYTES)
        assert peak_beyond_result() < 2 * utils._CACHE_BLOCK_BYTES
        assert counts == [79]

    def test_memory_does_not_grow_with_k(self):
        # the gathered T x k x d negatives and their differences took 2k
        # T x d arrays (14 here); one column at a time needs about 4
        rng = np.random.default_rng(3)
        count, dim, k = 4000, 64, 7
        embedded = rng.standard_normal((500, dim))
        triplets = Triplets(rng.integers(500, size=count), rng.integers(500, size=count),
                            rng.integers(500, size=(count, k)))
        tracemalloc.start()
        try:
            triplet_margins(embedded, triplets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * count * dim * 8


class TestMarginLoss:
    @pytest.mark.parametrize("k", [1, 4], ids=lambda k: f"logistic-{k}")
    def test_equals_mean_of_scalar_losses(self, k):
        rng = np.random.default_rng(20 + k)
        margins = 3.0 * rng.standard_normal((300, k))
        # exp(1000) overflows unless each row is shifted by max(0, its max of -v)
        margins[:10] -= 1000.0
        margins[10:20, 0] = -1000.0 + rng.standard_normal(10)
        margins[20:30] += 1000.0
        expected = float(np.mean([logistic_loss(row) for row in margins]))
        assert logistic_loss(margins).mean() == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=lambda v: f"logistic-{v}")
    def test_non_finite_margin_rejected(self, bad):
        margins = np.ones((5, 4))
        margins[3, 2] = bad
        with pytest.raises(ValidationError):
            logistic_loss(margins).mean()


class TestSkipInequality:
    def test_separated_mixture_mostly_nonnegative_and_holds(self):
        ds = directional_mixture()
        triplets = sample_triplets(ds, k=1, count=1000, seed=3)
        report = skip_inequality_check(ds, triplets)
        assert report["nonneg_margin_fraction"] >= 0.9
        assert report["holds"] is True

    def test_all_nonnegative_margins_always_hold(self):
        # margins u and 4u with u >= 0: elementwise monotone decrease
        vectors = np.array([[2.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        ds = EmbeddingDataset(vectors, [0, 0, 1, 1])
        triplets = triplets_of((0, 1, (2,)), (0, 1, (3,)))
        report = skip_inequality_check(ds, triplets)
        assert report["nonneg_margin_fraction"] == 1.0
        assert report["holds"] is True
        assert report["L_un_doubled"] <= report["L_un_identity"]

    def test_no_all_nonnegative_row_holds_vacuously(self):
        # each triplet has one negative margin, so the subset `holds` compares is empty
        vectors = np.array([[1.0, 0.0], [0.5, 0.0], [2.0, 0.0], [0.0, 1.0]])
        ds = EmbeddingDataset(vectors, [0, 0, 1, 1])
        triplets = triplets_of((0, 1, (2, 3)), (0, 1, (3, 2)))
        report = skip_inequality_check(ds, triplets)
        assert report["nonneg_triplet_count"] == 0
        assert report["holds"] is True
        assert report["nonneg_margin_fraction"] == 0.5
        assert report["L_un_doubled"] > report["L_un_identity"]

    def test_single_margin_half(self):
        # margin 0.5: losses logistic(0.5) and logistic(2.0)
        vectors = np.array([[1.0, 0.0], [0.5, 0.0], [0.0, 0.0], [0.0, 1.0]])
        ds = EmbeddingDataset(vectors, [0, 0, 1, 1])
        triplets = triplets_of((0, 1, (3,)))
        report = skip_inequality_check(ds, triplets)
        assert report["L_un_identity"] == pytest.approx(0.6840, abs=1e-3)
        assert report["L_un_doubled"] == pytest.approx(0.1832, abs=1e-3)
        assert report["holds"] is True

    @given(st.lists(st.floats(0, 20), min_size=1, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_elementwise_inequality_on_nonnegative_margins(self, margins):
        u = np.array(margins)
        assert logistic_loss(4 * u) <= logistic_loss(u) + 1e-12
        assert hinge_loss(4 * u) <= hinge_loss(u) + 1e-12


class TestBound:
    def test_hand_derived_value(self):
        # R*sqrt(k)*Rs/M + (R^2 + ln k) * sqrt(ln(1/delta)/M) at Rs = 1, delta = 0.05
        expected = 1.0 / 100 + math.sqrt(math.log(20.0) / 100)
        assert gen_m(1.0, 100, 1) == pytest.approx(expected, abs=1e-12)
        assert gen_m(1.0, 100, 1) == pytest.approx(0.18309, abs=1e-5)

    def test_monotone_in_sample_size(self):
        values = [gen_m(1.0, m, 1) for m in (10, 100, 1000)]
        assert values[0] > values[1] > values[2]

    def test_monotone_in_scale_inputs(self):
        base = {"R": 1.0, "M": 50, "k": 2}
        for name, bigger in (("R", 2.0), ("k", 4)):
            assert gen_m(**{**base, name: bigger}) >= gen_m(**base)

    def test_bound_rhs_composition(self):
        assert bound_rhs(0.45, 0.18309) == pytest.approx(0.63309, abs=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValidationError, match="M must be finite and >= 1, got 0"):
            gen_m(1.0, 0, 1)
        with pytest.raises(ValidationError, match="k must be finite and >= 1, got 0"):
            gen_m(1.0, 100, 0)

    @pytest.mark.parametrize("name", ["R", "M", "k"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_input_rejected(self, name, bad):
        with pytest.raises(ValidationError, match=f"{name} must be finite"):
            gen_m(**{"R": 1.0, "M": 100, "k": 1, name: bad})

    def test_radius_whose_square_overflows_raises(self):
        with pytest.raises(NumericsError, match="overflows"):
            gen_m(1e200, 100, 1)


class TestBoundReport:
    @pytest.mark.parametrize("M,k", [(10, 4), (500, 1), (10, 1)],
                             ids=["M", "k", "both"])
    def test_inputs_must_match_the_triplets(self, M, k):
        ds = directional_mixture(num_classes=4, per=20)
        triplets = sample_triplets(ds, k=k, count=M, seed=0)
        config = bound_report(ds, triplets)["config"]
        assert (config["M"], config["k"]) == (M, k)

    def test_underflow_is_not_a_fault(self):
        # at separation 20 some terms exp(-v) of the doubled map's margins underflow to
        # 0, their right value: under a caller's all-raise error state the report is the same
        ds = directional_mixture(num_classes=4, per=20, sep=20.0)
        triplets = sample_triplets(ds, k=4, count=50, seed=0)
        want = bound_report(ds, triplets)
        with np.errstate(all="raise"):
            assert bound_report(ds, triplets) == want
