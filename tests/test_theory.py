import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import orthogonal_class_means
from simskip.embedding_store import EmbeddingDataset
from simskip.errors import NumericsError, ValidationError
from simskip.losses import hinge_loss, logistic_loss
from simskip.synth_data import MixtureSpec, generate_gaussian_mixture
from simskip.theory import (
    HINGE,
    LOGISTIC,
    BoundInputs,
    TripletSample,
    _margin_loss,
    bound_rhs,
    empirical_unsup_loss,
    gen_m,
    sample_triplets,
    skip_inequality_check,
)

identity = lambda x: x


def directional_mixture(num_classes=8, dim=16, per=50, sep=10.0, seed=7):
    spec = MixtureSpec(num_classes, dim, per, class_separation=sep, seed=seed)
    return generate_gaussian_mixture(spec, orthogonal_class_means(num_classes, dim, sep))


class TestSampling:
    def test_forced_pair_in_two_point_class(self):
        ds = EmbeddingDataset(np.array([[1.0, 0.0], [0.0, 1.0]]), [0, 0])
        (t,) = sample_triplets(ds, k=1, count=1, seed=0)
        assert {t.anchor, t.positive} == {0, 1}
        assert t.k == 1

    def test_negatives_are_dataset_wide_uniform(self):
        # with 2 balanced classes about half the negatives share the anchor label
        ds = directional_mixture(num_classes=2, dim=4, per=100)
        triplets = sample_triplets(ds, k=1, count=1000, seed=3)
        share = np.mean([
            ds.labels[t.negatives[0]] == ds.labels[t.anchor] for t in triplets
        ])
        assert abs(share - 0.5) < 0.05

    def test_positive_shares_label_and_differs_from_anchor(self):
        ds = directional_mixture(num_classes=3, dim=4, per=20)
        for t in sample_triplets(ds, k=2, count=200, seed=4):
            assert t.positive != t.anchor
            assert ds.labels[t.positive] == ds.labels[t.anchor]

    def test_deterministic(self):
        ds = directional_mixture(num_classes=2, dim=4, per=10)
        assert sample_triplets(ds, 2, 50, seed=5) == sample_triplets(ds, 2, 50, seed=5)

    def test_singleton_class_rejected(self):
        ds = EmbeddingDataset(np.eye(3), [0, 0, 1])
        with pytest.raises(ValidationError):
            sample_triplets(ds, 1, 10, seed=0)


class TestEmpiricalLoss:
    def _unit_triplet_dataset(self):
        # anchor (1,0), positive (1,0), negative (0,1): margin exactly 1
        vectors = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        return EmbeddingDataset(vectors, [0, 0, 1]), [TripletSample(0, 1, (2,))]

    def test_logistic_single_triplet(self):
        ds, triplets = self._unit_triplet_dataset()
        expected = math.log2(1 + math.exp(-1.0))
        assert empirical_unsup_loss(identity, ds, triplets, LOGISTIC) == pytest.approx(
            expected, abs=1e-12
        )

    def test_hinge_single_triplet(self):
        ds, triplets = self._unit_triplet_dataset()
        assert empirical_unsup_loss(identity, ds, triplets, HINGE) == 0.0

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_constant_map_gives_log2_of_k_plus_one(self, k):
        ds = directional_mixture(num_classes=2, dim=4, per=10)
        triplets = sample_triplets(ds, k=k, count=100, seed=6)
        constant = lambda x: np.zeros_like(x)
        got = empirical_unsup_loss(constant, ds, triplets, LOGISTIC)
        assert got == pytest.approx(math.log2(1 + k), abs=1e-12)

    def test_non_finite_embedding_rejected(self):
        ds, triplets = self._unit_triplet_dataset()
        bad = lambda x: np.full_like(x, np.inf)
        with pytest.raises(NumericsError):
            empirical_unsup_loss(bad, ds, triplets)


class TestMarginLoss:
    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("kind", [HINGE, LOGISTIC])
    def test_equals_mean_of_scalar_losses(self, kind, k):
        rng = np.random.default_rng(20 + k)
        margins = 3.0 * rng.standard_normal((300, k))
        # exp(1000) overflows unless each row is shifted by max(0, its max of -v)
        margins[:10] -= 1000.0
        margins[10:20, 0] = -1000.0 + rng.standard_normal(10)
        margins[20:30] += 1000.0
        scalar = hinge_loss if kind == HINGE else logistic_loss
        expected = float(np.mean([scalar(row) for row in margins]))
        assert _margin_loss(margins, kind) == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", [HINGE, LOGISTIC])
    def test_non_finite_margin_rejected(self, kind, bad):
        margins = np.ones((5, 4))
        margins[3, 2] = bad
        with pytest.raises(ValidationError):
            _margin_loss(margins, kind)


class TestSkipInequality:
    def test_separated_mixture_mostly_nonnegative_and_holds(self):
        ds = directional_mixture()
        triplets = sample_triplets(ds, k=1, count=1000, seed=3)
        report = skip_inequality_check(ds, triplets)
        assert report.nonneg_margin_fraction >= 0.9
        assert report.holds is True

    def test_all_nonnegative_margins_always_hold(self):
        # margins u and 4u with u >= 0: elementwise monotone decrease
        vectors = np.array([[2.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        ds = EmbeddingDataset(vectors, [0, 0, 1, 1])
        triplets = [TripletSample(0, 1, (2,)), TripletSample(0, 1, (3,))]
        report = skip_inequality_check(ds, triplets)
        assert report.nonneg_margin_fraction == 1.0
        assert report.holds is True
        assert report.l_un_doubled <= report.l_un_identity

    def test_single_margin_half(self):
        # margin 0.5: losses logistic(0.5) and logistic(2.0)
        vectors = np.array([[1.0, 0.0], [0.5, 0.0], [0.0, 0.0], [0.0, 1.0]])
        ds = EmbeddingDataset(vectors, [0, 0, 1, 1])
        triplets = [TripletSample(0, 1, (3,))]
        report = skip_inequality_check(ds, triplets)
        assert report.l_un_identity == pytest.approx(0.6840, abs=1e-3)
        assert report.l_un_doubled == pytest.approx(0.1832, abs=1e-3)
        assert report.holds is True

    @given(st.lists(st.floats(0, 20), min_size=1, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_elementwise_inequality_on_nonnegative_margins(self, margins):
        u = np.array(margins)
        assert logistic_loss(4 * u) <= logistic_loss(u) + 1e-12
        assert hinge_loss(4 * u) <= hinge_loss(u) + 1e-12


class TestBound:
    def test_hand_derived_value(self):
        # R*sqrt(k)*Rs/M + (R^2 + ln k) * sqrt(ln(1/delta)/M)
        inputs = BoundInputs(R=1.0, rademacher=1.0, M=100, delta_conf=0.05, k=1)
        expected = 1.0 / 100 + math.sqrt(math.log(20.0) / 100)
        assert gen_m(inputs) == pytest.approx(expected, abs=1e-12)
        assert gen_m(inputs) == pytest.approx(0.18309, abs=1e-5)

    def test_vanishing_terms(self):
        inputs = BoundInputs(R=1.0, rademacher=0.0, M=100, delta_conf=1 - 1e-12, k=1)
        assert gen_m(inputs) < 1e-5

    def test_monotone_in_sample_size(self):
        values = [
            gen_m(BoundInputs(R=1.0, rademacher=1.0, M=m, delta_conf=0.05, k=1))
            for m in (10, 100, 1000)
        ]
        assert values[0] > values[1] > values[2]

    def test_monotone_in_scale_inputs(self):
        base = BoundInputs(R=1.0, rademacher=1.0, M=50, delta_conf=0.1, k=2)
        import dataclasses
        for field_name, bigger in (("R", 2.0), ("k", 4), ("rademacher", 3.0)):
            grown = dataclasses.replace(base, **{field_name: bigger})
            assert gen_m(grown) >= gen_m(base)

    def test_bound_rhs_composition(self):
        inputs = BoundInputs(alpha=1.0, eta=0.0, eps_slack=0.0)
        assert bound_rhs(0.45, 0.999, inputs) == 0.45
        inputs = BoundInputs(alpha=1.0, eta=1.0, eps_slack=0.1)
        assert bound_rhs(0.45, 0.18309, inputs) == pytest.approx(0.73309, abs=1e-12)
        inputs = BoundInputs(alpha=0.0, eta=0.0, eps_slack=0.0)
        assert bound_rhs(0.0, 0.0, inputs) == 0.0

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            BoundInputs(delta_conf=1.0)
        with pytest.raises(ValidationError):
            BoundInputs(M=0)
        with pytest.raises(ValidationError):
            BoundInputs(k=0)
