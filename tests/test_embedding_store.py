import re
import tracemalloc

import numpy as np
import pytest

from simskip.embedding_store import (
    EmbeddingDataset,
    dataset_fingerprint,
    load_embeddings,
    save_embeddings,
    split,
)
from simskip.errors import FormatError, ValidationError


def random_dataset(count, dim, seed=0, labeled=False):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 3, count) if labeled else None
    return EmbeddingDataset(rng.standard_normal((count, dim)), labels)


def as_f32(ds):
    """What the dataset looks like after one storage round trip."""
    return EmbeddingDataset(ds.vectors.astype(np.float32).astype(np.float64), ds.labels)


class TestDatasetInvariants:
    def test_rejects_nan(self):
        v = np.ones((2, 2))
        v[0, 1] = np.nan
        with pytest.raises(ValidationError):
            EmbeddingDataset(v)

    def test_rejects_inf(self):
        v = np.ones((2, 2))
        v[1, 0] = np.inf
        with pytest.raises(ValidationError):
            EmbeddingDataset(v)

    def test_finite_check_runs_in_blocks(self):
        # a whole-matrix bool mask would take 4.9 MiB here; one block's is 1 MiB
        v = np.zeros((20_000, 256))
        tracemalloc.start()
        try:
            EmbeddingDataset(v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 2**20
        v = v.copy()  # the dataset made the first array read-only
        v[-1, -1] = np.nan
        with pytest.raises(ValidationError, match="NaN or Inf"):
            EmbeddingDataset(v)

    def test_rejects_label_length_mismatch(self):
        with pytest.raises(ValidationError):
            EmbeddingDataset(np.ones((3, 2)), labels=[0, 1])

    def test_rejects_negative_labels(self):
        with pytest.raises(ValidationError):
            EmbeddingDataset(np.ones((2, 2)), labels=[0, -1])

    @pytest.mark.parametrize("bad,match", [(0.5, "fractional"), (np.nan, "NaN or Inf"),
                                           (np.inf, "NaN or Inf")])
    def test_rejects_labels_the_integer_cast_would_change(self, bad, match):
        # the cast to int64 would store 0.5 as 0, and NaN or inf as some integer
        with pytest.raises(ValidationError, match=match):
            EmbeddingDataset(np.zeros((2, 2)), np.array([bad, 1.0]))

    def test_integral_float_labels_load(self):
        # np.loadtxt reads a label column as floats
        ds = EmbeddingDataset(np.zeros((2, 2)), np.array([1.0, 0.0]))
        assert ds.labels.dtype == np.int64 and list(ds.labels) == [1, 0]

    def test_rejects_zero_dim(self):
        with pytest.raises(ValidationError):
            EmbeddingDataset(np.ones((2, 0)))

    def test_vectors_are_read_only(self):
        ds = random_dataset(3, 2)
        with pytest.raises(ValueError):
            ds.vectors[0, 0] = 5.0

    def test_empty_dataset_allowed(self):
        ds = EmbeddingDataset(np.zeros((0, 4)))
        assert ds.count == 0 and ds.dim == 4


class TestBinaryFormat:
    def test_round_trip_unlabeled(self, tmp_path):
        ds = as_f32(random_dataset(17, 5, seed=1))
        path = tmp_path / "a.embf"
        save_embeddings(ds, path)
        assert load_embeddings(path) == ds

    def test_round_trip_labeled(self, tmp_path):
        ds = EmbeddingDataset(np.array([[1.0, 2.0], [3.0, 4.0]]), labels=[0, 1])
        path = tmp_path / "b.embf"
        save_embeddings(ds, path)
        back = load_embeddings(path)
        assert back == ds
        assert list(back.labels) == [0, 1]

    def test_file_layout_sizes(self, tmp_path):
        # 16-byte header + 2*3 float32 payload
        ds = EmbeddingDataset(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
        path = tmp_path / "c.embf"
        save_embeddings(ds, path)
        raw = path.read_bytes()
        assert len(raw) == 16 + 24
        assert raw[:4] == b"EMBF"
        assert raw[4] == 1 and raw[5] == 0

    def test_empty_round_trip(self, tmp_path):
        ds = EmbeddingDataset(np.zeros((0, 3)))
        path = tmp_path / "empty.embf"
        save_embeddings(ds, path)
        back = load_embeddings(path)
        assert back.count == 0 and back.dim == 3

    def test_save_is_byte_deterministic(self, tmp_path):
        ds = as_f32(random_dataset(9, 4, seed=2, labeled=True))
        p1, p2 = tmp_path / "x1.embf", tmp_path / "x2.embf"
        save_embeddings(ds, p1)
        save_embeddings(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        ds = random_dataset(2, 2)
        path = tmp_path / "d.embf"
        save_embeddings(ds, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_embeddings(path)

    def test_truncated_payload(self, tmp_path):
        # header says 3 rows, payload holds 2
        ds = random_dataset(3, 4)
        path = tmp_path / "e.embf"
        save_embeddings(ds, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 4 * 4])
        with pytest.raises(FormatError):
            load_embeddings(path)

    def test_trailing_garbage(self, tmp_path):
        ds = random_dataset(2, 2)
        path = tmp_path / "f.embf"
        save_embeddings(ds, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FormatError):
            load_embeddings(path)

    def test_nan_payload_rejected(self, tmp_path):
        ds = random_dataset(2, 2)
        path = tmp_path / "g.embf"
        save_embeddings(ds, path)
        raw = bytearray(path.read_bytes())
        raw[16:20] = np.float32(np.nan).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_embeddings(path)

    @pytest.mark.parametrize("big", [3.5e38, -1e39, 1e308])
    def test_float32_overflow_rejected_before_writing(self, tmp_path, big):
        # finite in float64 but Inf once cast to float32, which load rejects
        path = tmp_path / "o.embf"
        save_embeddings(random_dataset(2, 2), path)
        before = path.read_bytes()
        v = np.ones((3, 2))
        v[1, 0] = big
        with pytest.raises(ValidationError, match=re.escape(f"largest magnitude {abs(big):.6g}")):
            save_embeddings(EmbeddingDataset(v), path)
        assert path.read_bytes() == before
        with pytest.raises(ValidationError, match="overflow float32"):
            save_embeddings(EmbeddingDataset(v), tmp_path / "new.embf")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["o.embf"]

    def test_values_that_round_to_float32_max_are_kept(self, tmp_path):
        top = float(np.finfo(np.float32).max)
        v = np.array([[top, -top], [top * (1 + 2.0**-26), 0.0]])
        path = tmp_path / "m.embf"
        save_embeddings(EmbeddingDataset(v), path)
        assert load_embeddings(path).vectors.tolist() == [[top, -top], [top, 0.0]]

    def test_bad_version(self, tmp_path):
        ds = random_dataset(2, 2)
        path = tmp_path / "h.embf"
        save_embeddings(ds, path)
        raw = bytearray(path.read_bytes())
        raw[4] = 2
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_embeddings(path)


class TestSplit:
    def test_sizes(self):
        ds = random_dataset(10, 2, labeled=True)
        train, test = split(ds, 0.8, seed=7)
        assert train.count == 8 and test.count == 2

    def test_determinism(self):
        ds = random_dataset(10, 2, labeled=True)
        a = split(ds, 0.8, seed=7)
        b = split(ds, 0.8, seed=7)
        assert a[0] == b[0] and a[1] == b[1]

    @pytest.mark.parametrize("seed", [7, 8])
    def test_partition_property(self, seed):
        # row-index multisets partition {0..9} for any seed
        labels = np.random.default_rng(seed).integers(0, 3, 10)
        ds = EmbeddingDataset(np.arange(10.0).reshape(10, 1), labels)
        train, test = split(ds, 0.8, seed)
        merged = sorted(np.concatenate([train.vectors[:, 0], test.vectors[:, 0]]))
        assert merged == list(range(10))
        for part in (train, test):
            assert np.array_equal(part.labels, labels[part.vectors[:, 0].astype(int)])

    def test_stratified_keeps_total_exact(self):
        rng = np.random.default_rng(0)
        labels = np.array([0] * 3 + [1] * 3 + [2] * 4)
        ds = EmbeddingDataset(rng.standard_normal((10, 2)), labels)
        train, test = split(ds, 0.5, seed=1)
        assert train.count == 5 and test.count == 5
        # every class appears in the train part
        assert set(np.unique(train.labels)) == {0, 1, 2}

    def test_too_small(self):
        ds = random_dataset(1, 2, labeled=True)
        with pytest.raises(ValidationError, match="at least 2 rows"):
            split(ds, 0.5, seed=0)

    def test_bad_fraction(self):
        ds = random_dataset(4, 2, labeled=True)
        with pytest.raises(ValidationError, match="train_fraction must lie in"):
            split(ds, 1.0, seed=0)

    def test_labels_required(self):
        # the split stratifies by class, so an unlabeled dataset has none
        with pytest.raises(ValidationError, match="requires labels"):
            split(random_dataset(10, 2), 0.8, seed=0)

    def test_empty_train_part_rejected(self):
        # floor(0.02 * 40) = 0 rows would reach the probe as "fewer than 2 classes"
        ds = random_dataset(40, 2, labeled=True)
        with pytest.raises(ValidationError, match="train_fraction 0.02 of 40 rows leaves no"):
            split(ds, 0.02, seed=0)
        assert split(ds, 0.025, seed=0)[0].count == 1


class TestFingerprint:
    def test_stable_and_sensitive(self):
        ds = random_dataset(6, 3, seed=5, labeled=True)
        same = EmbeddingDataset(ds.vectors, ds.labels)
        assert dataset_fingerprint(ds) == dataset_fingerprint(same)
        other = EmbeddingDataset(ds.vectors, np.zeros(6, dtype=int))
        assert dataset_fingerprint(ds) != dataset_fingerprint(other)
