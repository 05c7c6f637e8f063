import numpy as np
import pytest

from simskip.errors import ValidationError
from simskip.evaluate import compare_embeddings
from simskip.synth_data import MixtureSpec, apply_class_mixing, generate_gaussian_mixture


def separable(seed=7):
    return generate_gaussian_mixture(MixtureSpec(2, 16, 200, seed=seed))


class TestGaussianMixture:
    def test_counts_and_labels(self):
        spec = MixtureSpec(3, 4, 10, seed=0)
        ds = generate_gaussian_mixture(spec)
        assert ds.count == 30
        assert list(np.bincount(ds.labels)) == [10, 10, 10]

    def test_sample_means_near_class_means(self):
        # Monte-Carlo: per-class sample mean close to the placed mean
        spec = MixtureSpec(2, 2, 4, class_separation=10.0, cluster_sigma=0.1, seed=1)
        ds = generate_gaussian_mixture(spec)
        assert ds.count == 8
        for c, mean_x in ((0, 0.0), (1, 10.0)):
            block = ds.vectors[ds.labels == c]
            target = np.array([mean_x, 0.0])
            assert np.all(np.abs(block.mean(axis=0) - target) < 0.2)

    def test_degenerate_sigma_pins_points(self):
        spec = MixtureSpec(2, 3, 5, class_separation=4.0, cluster_sigma=1e-9, seed=2)
        ds = generate_gaussian_mixture(spec)
        for c in (0, 1):
            block = ds.vectors[ds.labels == c]
            target = np.zeros(3)
            target[0] = c * 4.0
            assert np.all(np.abs(block - target) < 1e-6)

    def test_deterministic(self):
        spec = MixtureSpec(2, 8, 16, seed=9)
        assert generate_gaussian_mixture(spec) == generate_gaussian_mixture(spec)

    def test_custom_means(self):
        spec = MixtureSpec(2, 2, 3, cluster_sigma=1e-9, seed=0)
        means = np.array([[5.0, 5.0], [-5.0, 5.0]])
        ds = generate_gaussian_mixture(spec, means)
        assert np.allclose(ds.vectors[ds.labels == 0], [5.0, 5.0], atol=1e-6)

    def test_means_of_the_wrong_shape_rejected(self):
        spec = MixtureSpec(2, 3, 4, seed=0)
        for means in (np.zeros((3, 3)), np.zeros((2, 2)), np.zeros(6)):
            with pytest.raises(ValidationError, match=r"means must have shape \(2, 3\)"):
                generate_gaussian_mixture(spec, means)

    def test_invalid_spec(self):
        for name, value in [("cluster_sigma", 0.0), ("class_separation", -1.0),
                            ("class_separation", np.nan), ("cluster_sigma", np.nan),
                            ("class_separation", np.inf), ("cluster_sigma", np.inf)]:
            with pytest.raises(ValidationError, match=name):
                MixtureSpec(2, 4, 10, **{name: value})


class TestClassMixing:
    def test_zero_strength_is_identity(self):
        ds = separable()
        mixed = apply_class_mixing(ds, 0.0, seed=3)
        assert np.array_equal(mixed.vectors, ds.vectors)

    def test_labels_never_change(self):
        ds = separable()
        for s in (0.0, 0.3, 1.0):
            mixed = apply_class_mixing(ds, s, seed=3)
            assert np.array_equal(mixed.labels, ds.labels)

    def test_deterministic(self):
        ds = separable()
        a = apply_class_mixing(ds, 0.5, seed=11)
        b = apply_class_mixing(ds, 0.5, seed=11)
        assert a == b

    def test_requires_labels(self):
        ds = generate_gaussian_mixture(MixtureSpec(2, 4, 5, seed=0))
        unlabeled = type(ds)(ds.vectors, None)
        with pytest.raises(ValidationError):
            apply_class_mixing(unlabeled, 0.5, seed=0)

    def test_full_mixing_destroys_separability(self):
        ds = separable()
        mixed = apply_class_mixing(ds, 1.0, seed=0)
        _, refined = compare_embeddings(ds, mixed)
        assert refined["probe_accuracy"] <= 0.65

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_monotone_probe_degradation(self, seed):
        ds = separable()
        accs = []
        for s in (0.0, 0.5, 1.0):
            mixed = apply_class_mixing(ds, s, seed=seed)
            accs.append(compare_embeddings(ds, mixed)[1]["probe_accuracy"])
        assert accs[0] >= accs[1] - 0.02
        assert accs[1] >= accs[2] - 0.02
