import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_force_knn_score, patch_block_budget, reference_train_probe
from simskip import evaluate
from simskip.embedding_store import EmbeddingDataset
from simskip.errors import ShapeError, ValidationError
from simskip.evaluate import (
    LINEAR,
    MLP3,
    LinearProbe,
    MLP3Probe,
    SplitConfig,
    compare_embeddings,
    evaluate_embeddings,
    evaluate_probe,
    knn_same_label_score,
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

    def test_requires_labels_and_enough_points(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ValidationError):
            knn_same_label_score(EmbeddingDataset(rng.standard_normal((30, 2))), 10)
        small = EmbeddingDataset(rng.standard_normal((5, 2)), np.zeros(5, dtype=int))
        with pytest.raises(ValidationError):
            knn_same_label_score(small, 10)


def blocked_knn(ds, k, block):
    """knn_same_label_score with the cache budget set to `block` anchor rows
    of 16 * N bytes, checking that it ran in blocks of that many rows."""
    with pytest.MonkeyPatch.context() as mp:
        counts = patch_block_budget(mp, evaluate, block * 16 * ds.count)
        score = knn_same_label_score(ds, k)
    assert counts == [math.ceil(ds.count / block)]
    return score


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
            assert blocked_knn(ds, k, block) == pytest.approx(expected, abs=1e-12)

    @given(st.integers(0, 2**32 - 1), st.integers(3, 10), st.integers(1, 4),
           st.integers(1, 8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_block_and_thread_count_agree(self, seed, distinct, dim, k, data):
        vectors, labels = duplicated_rows(np.random.default_rng(seed), distinct, dim)
        ds = EmbeddingDataset(vectors, labels)
        block = data.draw(st.integers(1, len(vectors)))
        got = blocked_knn(ds, k, block)
        assert got == blocked_knn(ds, k, len(vectors))
        assert got == pytest.approx(brute_force_knn_score(vectors, labels, k), abs=1e-12)

    def test_runs_on_the_calling_thread(self, monkeypatch):
        def refuse(thread):
            raise AssertionError(f"kNN started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        rng = np.random.default_rng(12)
        vectors, labels = duplicated_rows(rng, distinct=12, dim=3)
        ds = EmbeddingDataset(vectors, labels)
        assert blocked_knn(ds, 5, 4) == pytest.approx(
            brute_force_knn_score(vectors, labels, 5), abs=1e-12)

    def test_memory_is_bounded_by_the_block(self):
        # a single 4096 x 4096 float64 distance matrix would be 134 MB
        rng = np.random.default_rng(11)
        ds = EmbeddingDataset(rng.standard_normal((4096, 8)), rng.integers(0, 4, 4096))
        tracemalloc.start()
        try:
            knn_same_label_score(ds, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20

    def test_default_block_keeps_memory_under_8_mb(self):
        # two 16 x 4096 float64 buffers take 1 MB; 256-row blocks took about 19 MB
        rng = np.random.default_rng(11)
        ds = EmbeddingDataset(rng.standard_normal((4096, 8)), rng.integers(0, 4, 4096))
        tracemalloc.start()
        try:
            knn_same_label_score(ds, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestProbes:
    def test_linear_probe_fits_separable_data(self):
        ds = two_clusters(per=50, sep=10.0, sigma=1.0)
        model = train_probe(ds)
        assert evaluate_probe(model, ds)[0] >= 0.99

    def test_linear_probe_on_threshold_separable_1d(self):
        x = np.concatenate([np.linspace(-2, -1, 20), np.linspace(1, 2, 20)])
        ds = EmbeddingDataset(x[:, None], (x > 0).astype(int))
        model = train_probe(ds)
        assert evaluate_probe(model, ds)[0] == 1.0

    def test_deterministic_per_seed(self):
        ds = two_clusters(per=30, sep=4.0, sigma=1.0)
        cfg = MLP3Probe(hidden_dim=16, epochs=50, seed=3)
        m1 = train_probe(ds, cfg)
        m2 = train_probe(ds, cfg)
        for (w1, b1), (w2, b2) in zip(m1.layers, m2.layers):
            assert np.array_equal(w1, w2)
            assert np.array_equal(b1, b2)

    def test_mlp_probe_fits_separable_data(self):
        ds = two_clusters(per=50, sep=10.0, sigma=1.0)
        model = train_probe(ds, MLP3Probe(hidden_dim=16, epochs=200, seed=0))
        assert evaluate_probe(model, ds)[0] >= 0.99

    def test_constant_model_on_balanced_data(self):
        ds = two_clusters(per=25)
        model = train_probe(ds, LinearProbe(epochs=0))  # zero-init: constant scores
        assert evaluate_probe(model, ds)[0] == 0.5

    @pytest.mark.parametrize("kind,lr,epochs", [(LINEAR, 0.5, 500), (MLP3, 0.01, 300)])
    def test_unset_rate_and_epochs_take_the_kind_default(self, kind, lr, epochs):
        probe = {LINEAR: LinearProbe, MLP3: MLP3Probe}[kind]
        cfg = probe()
        assert (cfg.kind, cfg.learning_rate, cfg.epochs) == (kind, lr, epochs)
        assert type(cfg.learning_rate) is float and type(cfg.epochs) is int
        cfg = probe(learning_rate=0.2, epochs=7)
        assert (cfg.kind, cfg.learning_rate, cfg.epochs) == (kind, 0.2, 7)
        assert probe(epochs=0).epochs == 0
        for rate in (0, -1, math.nan, math.inf):
            with pytest.raises(ValidationError, match="learning_rate"):
                probe(learning_rate=rate)
        with pytest.raises(ValidationError, match="epochs"):
            probe(epochs=-1)

    def test_each_probe_type_holds_only_the_settings_its_fit_reads(self):
        # the linear probe has no hidden layer and starts at zero
        for setting in ({"hidden_dim": 8}, {"seed": 1}):
            with pytest.raises(TypeError):
                LinearProbe(**setting)
        assert LinearProbe().to_json_dict() == {"kind": "linear", "learning_rate": 0.5,
                                                "epochs": 500}
        assert MLP3Probe().to_json_dict() == {"kind": "mlp3", "hidden_dim": 64,
                                              "learning_rate": 0.01, "epochs": 300, "seed": 0}
        with pytest.raises(ValidationError, match="hidden_dim"):
            MLP3Probe(hidden_dim=0)
        with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
            MLP3Probe(seed=-1)

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
        _, breakdown = evaluate_probe(model, ds)
        assert set(breakdown) == {0, 1}

    # 3 classes unless a fourth entry says otherwise: 2 is the column-wise
    # row max's shortest loop, 8 the eval-theory workload's width, 9 an odd
    # width, and 40 a wide one
    @pytest.mark.parametrize("kind,hidden,dim,classes", [
        pytest.param(kind, hidden, dim, classes,
                     id=f"{kind}-{hidden}-{dim}" + (f"-{classes}cls" if classes != 3 else ""))
        for kind, hidden, dim, classes in [
            (LINEAR, 16, 8, 3), (LINEAR, 16, 64, 3), (MLP3, 16, 8, 3), (MLP3, 64, 32, 3),
            (MLP3, 16, 96, 3), (MLP3, 16, 200, 3),
            *[(kind, 16, 8, classes) for kind in (LINEAR, MLP3) for classes in (2, 8, 9, 40)],
        ]
    ])
    def test_bitwise_equal_to_reference_fit(self, kind, hidden, dim, classes):
        ds = apply_class_mixing(generate_gaussian_mixture(
            MixtureSpec(classes, dim, 30, class_separation=3.0, seed=dim)), 0.3, seed=1)
        cfg = (LinearProbe(epochs=40) if kind == LINEAR
               else MLP3Probe(hidden_dim=hidden, epochs=40, seed=5))
        got = train_probe(ds, cfg).layers
        want = reference_train_probe(ds.vectors, ds.labels, kind, hidden,
                                     cfg.learning_rate, 40, seed=5)
        assert len(got) == len(want)
        for (got_w, got_b), (w, b) in zip(got, want):
            assert np.array_equal(got_w, w)
            assert np.array_equal(got_b, b)


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

    def test_each_fit_predicts_its_test_rows_once(self, monkeypatch):
        ds = generate_gaussian_mixture(MixtureSpec(4, 8, 50, seed=3))
        predicted = []
        predict = evaluate.ProbeModel.predict

        def spy(model, vectors):
            predicted.append(len(vectors))
            return predict(model, vectors)

        monkeypatch.setattr(evaluate.ProbeModel, "predict", spy)
        comp = compare_embeddings(ds, ds)
        assert predicted == [40, 40]  # one fit per dataset, 40 test rows each
        assert comp.original.per_class == comp.refined.per_class
        assert set(comp.original.per_class) == {0, 1, 2, 3}

    @pytest.mark.parametrize("cfg", [LinearProbe(epochs=30),
                                     MLP3Probe(hidden_dim=8, epochs=30, seed=2)],
                             ids=[LINEAR, MLP3])
    def test_reports_are_single_dataset_evaluations(self, cfg):
        original = generate_gaussian_mixture(MixtureSpec(3, 8, 30, class_separation=3.0, seed=4))
        refined = apply_class_mixing(original, 0.4, seed=6)
        split_cfg = SplitConfig(train_fraction=0.7, seed=5)
        comp = compare_embeddings(original, refined, cfg, split_cfg, knn_k=4)
        want_orig = evaluate_embeddings(original, cfg, split_cfg, knn_k=4)
        want_ref = evaluate_embeddings(refined, cfg, split_cfg, knn_k=4)
        assert comp.original.to_json_dict() == want_orig.to_json_dict()
        assert comp.refined.to_json_dict() == want_ref.to_json_dict()
        assert comp.knn_delta == want_ref.knn_score - want_orig.knn_score
        assert comp.probe_delta == want_ref.probe_accuracy - want_orig.probe_accuracy

    def test_one_workspace_per_fit(self, monkeypatch):
        ds = generate_gaussian_mixture(MixtureSpec(4, 8, 50, seed=3))
        built = []
        workspace = evaluate._ProbeWorkspace

        def spy(*args, **kwargs):
            built.append(args)
            return workspace(*args, **kwargs)

        monkeypatch.setattr(evaluate, "_ProbeWorkspace", spy)
        compare_embeddings(ds, ds)
        assert len(built) == 2  # one per fit; prediction writes activations only
