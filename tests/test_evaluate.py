import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_force_knn_score
from simskip import evaluate
from simskip.embedding_store import EmbeddingDataset
from simskip.errors import ShapeError, ValidationError
from simskip.evaluate import (
    MLP3,
    ProbeConfig,
    SplitConfig,
    compare_embeddings,
    evaluate_probe,
    knn_same_label_score,
    per_class_accuracy,
    train_probe,
)
from simskip.synth_data import MixtureSpec, apply_class_mixing, generate_gaussian_mixture


def two_clusters(per=20, dim=4, sep=100.0, sigma=0.1, seed=0):
    return generate_gaussian_mixture(
        MixtureSpec(2, dim, per, class_separation=sep, cluster_sigma=sigma, seed=seed)
    )


class TestKnnScore:
    def test_separated_clusters_score_one(self):
        ds = two_clusters()
        assert knn_same_label_score(ds, 10) == 1.0

    def test_collinear_points_with_tie_breaking(self):
        # points 0,1,2,3 labeled A,A,B,B. Queries 1 and 2 both see two
        # equidistant neighbors; ties resolve to the lower index, so query 2
        # picks point 1 (wrong label) and the score is 3/4.
        ds = EmbeddingDataset(np.array([[0.0], [1.0], [2.0], [3.0]]), [0, 0, 1, 1])
        assert knn_same_label_score(ds, 1) == 0.75

    def test_collinear_points_without_ties(self):
        # same layout nudged so each query has a unique nearest neighbor
        ds = EmbeddingDataset(np.array([[0.0], [1.0], [2.1], [3.0]]), [0, 0, 1, 1])
        assert knn_same_label_score(ds, 1) == 1.0

    def test_random_labels_give_chance_level(self):
        rng = np.random.default_rng(5)
        ds = EmbeddingDataset(rng.standard_normal((400, 8)), rng.integers(0, 2, 400))
        assert abs(knn_same_label_score(ds, 10) - 0.5) < 0.05

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(6)
        vectors = rng.standard_normal((60, 5))
        labels = rng.integers(0, 3, 60)
        ds = EmbeddingDataset(vectors, labels)
        for k in (1, 5, 10):
            expected = brute_force_knn_score(vectors, labels, k)
            assert knn_same_label_score(ds, k) == pytest.approx(expected, abs=1e-12)

    def test_rotation_and_scale_invariance(self):
        rng = np.random.default_rng(7)
        ds = EmbeddingDataset(rng.standard_normal((80, 6)), rng.integers(0, 2, 80))
        base = knn_same_label_score(ds, 5)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        rotated = EmbeddingDataset(ds.vectors @ q, ds.labels)
        scaled = EmbeddingDataset(3.7 * ds.vectors, ds.labels)
        assert knn_same_label_score(rotated, 5) == base
        assert knn_same_label_score(scaled, 5) == base

    def test_cosine_metric_available(self):
        ds = two_clusters()
        score = knn_same_label_score(ds, 10, metric="cosine")
        assert 0.0 <= score <= 1.0

    def test_requires_labels_and_enough_points(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ValidationError):
            knn_same_label_score(EmbeddingDataset(rng.standard_normal((30, 2))), 10)
        small = EmbeddingDataset(rng.standard_normal((5, 2)), np.zeros(5, dtype=int))
        with pytest.raises(ValidationError):
            knn_same_label_score(small, 10)

    def test_thread_count_does_not_change_result(self, monkeypatch):
        rng = np.random.default_rng(9)
        ds = EmbeddingDataset(rng.standard_normal((150, 4)), rng.integers(0, 3, 150))
        monkeypatch.setenv("SIMSKIP_THREADS", "1")
        serial = knn_same_label_score(ds, 7)
        monkeypatch.setenv("SIMSKIP_THREADS", "4")
        threaded = knn_same_label_score(ds, 7)
        assert serial == threaded


def blocked_knn(ds, k, block, threads):
    """knn_same_label_score with `block` anchor rows per block on `threads` threads."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluate, "_KNN_BLOCK_ROWS", block)
        mp.setenv("SIMSKIP_THREADS", str(threads))
        return knn_same_label_score(ds, k)


def duplicated_rows(rng, distinct, dim):
    """Small integer points, each repeated 3-4 times, in shuffled order.

    Integer coordinates make every distance exact, so equal distances are
    real ties and the lower-index tie-break decides the neighbor sets.
    """
    base = rng.integers(-2, 3, (distinct, dim)).astype(float)
    vectors = np.repeat(base, rng.integers(3, 5, distinct), axis=0)
    vectors = vectors[rng.permutation(len(vectors))]
    return vectors, rng.integers(0, 3, len(vectors))


class TestKnnBlocked:
    @pytest.mark.parametrize("block", [256, 7])
    def test_duplicate_rows_match_brute_force(self, block):
        rng = np.random.default_rng(10)
        vectors, labels = duplicated_rows(rng, distinct=15, dim=3)
        ds = EmbeddingDataset(vectors, labels)
        for k in (1, 2, 3, 5, 10):
            expected = brute_force_knn_score(vectors, labels, k)
            assert blocked_knn(ds, k, block, 2) == pytest.approx(expected, abs=1e-12)

    @given(st.integers(0, 2**32 - 1), st.integers(3, 10), st.integers(1, 4),
           st.integers(1, 8), st.sampled_from([1, 2]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_block_and_thread_count_agree(self, seed, distinct, dim, k, threads, data):
        vectors, labels = duplicated_rows(np.random.default_rng(seed), distinct, dim)
        ds = EmbeddingDataset(vectors, labels)
        block = data.draw(st.integers(1, len(vectors)))
        got = blocked_knn(ds, k, block, threads)
        assert got == blocked_knn(ds, k, len(vectors), 1)
        assert got == pytest.approx(brute_force_knn_score(vectors, labels, k), abs=1e-12)

    def test_memory_is_bounded_by_the_block(self, monkeypatch):
        # a single 4096 x 4096 float64 distance matrix would be 134 MB
        monkeypatch.setenv("SIMSKIP_THREADS", "1")
        rng = np.random.default_rng(11)
        ds = EmbeddingDataset(rng.standard_normal((4096, 8)), rng.integers(0, 4, 4096))
        tracemalloc.start()
        try:
            knn_same_label_score(ds, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20


class TestProbes:
    def test_linear_probe_fits_separable_data(self):
        ds = two_clusters(per=50, sep=10.0, sigma=1.0)
        model = train_probe(ds)
        assert evaluate_probe(model, ds) >= 0.99

    def test_linear_probe_on_threshold_separable_1d(self):
        x = np.concatenate([np.linspace(-2, -1, 20), np.linspace(1, 2, 20)])
        ds = EmbeddingDataset(x[:, None], (x > 0).astype(int))
        model = train_probe(ds)
        assert evaluate_probe(model, ds) == 1.0

    def test_deterministic_per_seed(self):
        ds = two_clusters(per=30, sep=4.0, sigma=1.0)
        cfg = ProbeConfig(kind=MLP3, hidden_dim=16, epochs=50, seed=3)
        m1 = train_probe(ds, cfg)
        m2 = train_probe(ds, cfg)
        for l1, l2 in zip(m1.layers, m2.layers):
            assert np.array_equal(l1.weight, l2.weight)
            assert np.array_equal(l1.bias, l2.bias)

    def test_mlp_probe_fits_separable_data(self):
        ds = two_clusters(per=50, sep=10.0, sigma=1.0)
        model = train_probe(ds, ProbeConfig(kind=MLP3, hidden_dim=16, epochs=200, seed=0))
        assert evaluate_probe(model, ds) >= 0.99

    def test_constant_model_on_balanced_data(self):
        ds = two_clusters(per=25)
        model = train_probe(ds, ProbeConfig(epochs=0))  # zero-init: constant scores
        assert evaluate_probe(model, ds) == 0.5

    def test_single_class_rejected(self):
        rng = np.random.default_rng(10)
        ds = EmbeddingDataset(rng.standard_normal((20, 3)), np.zeros(20, dtype=int))
        with pytest.raises(ValidationError):
            train_probe(ds)

    def test_empty_test_set_rejected(self):
        ds = two_clusters()
        model = train_probe(ds)
        empty = EmbeddingDataset(np.zeros((0, ds.dim)), np.zeros(0, dtype=int))
        with pytest.raises(ValidationError):
            evaluate_probe(model, empty)

    def test_dim_mismatch_rejected(self):
        ds = two_clusters(dim=4)
        model = train_probe(ds)
        other = two_clusters(dim=6)
        with pytest.raises(ShapeError):
            evaluate_probe(model, other)

    def test_accuracy_invariant_under_row_permutation(self):
        ds = two_clusters(per=40, sep=3.0, sigma=1.0)
        model = train_probe(ds)
        perm = np.random.default_rng(11).permutation(ds.count)
        shuffled = EmbeddingDataset(ds.vectors[perm], ds.labels[perm])
        assert evaluate_probe(model, ds) == evaluate_probe(model, shuffled)

    def test_per_class_accuracy_keys(self):
        ds = two_clusters()
        model = train_probe(ds)
        breakdown = per_class_accuracy(model, ds)
        assert set(breakdown) == {0, 1}


class TestCompare:
    def test_identical_inputs_give_zero_deltas(self):
        ds = two_clusters(per=40)
        comp = compare_embeddings(ds, ds)
        assert comp.knn_delta == 0.0 and comp.probe_delta == 0.0

    def test_clean_beats_mixed(self):
        clean = generate_gaussian_mixture(MixtureSpec(2, 16, 200, seed=7))
        mixed = apply_class_mixing(clean, 0.6, seed=1)
        comp = compare_embeddings(mixed, clean)  # "refined" is the clean one
        assert comp.probe_delta > 0.0

    def test_label_mismatch_rejected(self):
        ds = two_clusters(per=10)
        other = EmbeddingDataset(ds.vectors, np.roll(ds.labels, 1))
        with pytest.raises(ValidationError):
            compare_embeddings(ds, other)

    def test_count_mismatch_rejected(self):
        ds = two_clusters(per=10)
        shorter = EmbeddingDataset(ds.vectors[:-1], ds.labels[:-1])
        with pytest.raises(ValidationError):
            compare_embeddings(ds, shorter)

    def test_dims_may_differ(self):
        ds = two_clusters(per=20, dim=4)
        wider = EmbeddingDataset(np.hstack([ds.vectors, ds.vectors]), ds.labels)
        comp = compare_embeddings(ds, wider, split_cfg=SplitConfig(seed=2))
        assert comp.original.probe_accuracy >= 0.9

    def test_report_serializes(self):
        import json
        ds = two_clusters(per=20)
        comp = compare_embeddings(ds, ds)
        payload = comp.to_json_dict()
        assert json.dumps(payload)
        assert payload["deltas"]["probe_accuracy"] == 0.0
