import numpy as np
import pytest

from simskip import utils
from simskip.cli import _write_json, parse_and_run
from simskip.embedding_store import EmbeddingDataset, save_embeddings
from simskip.model import init_params, save_checkpoint


class _FailingFile:
    """Writes the first half of what it is given, then fails like a full disk."""

    def __init__(self, f):
        self._f = f

    def write(self, data):
        self._f.write(data[: len(data) // 2])
        self._f.flush()
        raise OSError(28, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()


def _break_writes(monkeypatch):
    real_open = open
    monkeypatch.setattr(utils, "open", lambda path, mode: _FailingFile(real_open(path, mode)),
                        raising=False)


def _write_eval_report(path):
    data = path.with_name("d.embf")
    if not data.exists():
        labels = np.arange(20) % 2
        save_embeddings(EmbeddingDataset(np.arange(40.0).reshape(20, 2), labels), data)
    return parse_and_run(["eval", "--original", str(data), "--refined", str(data),
                          "--probe-epochs", "2", "--report", str(path)])


WRITERS = {
    "embf": lambda path, seed: save_embeddings(
        EmbeddingDataset(np.full((3, 2), float(seed)), [0, 1, seed]), path),
    "sskp": lambda path, seed: save_checkpoint(init_params(4, seed=seed), path),
    "json": lambda path, seed: _write_json({"seed": seed}, str(path)),
}


class TestAtomicWrite:
    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_failure_mid_write_keeps_previous_file(self, tmp_path, monkeypatch, kind):
        path = tmp_path / f"out.{kind}"
        WRITERS[kind](path, 1)
        before = path.read_bytes()
        _break_writes(monkeypatch)
        with pytest.raises(OSError):
            WRITERS[kind](path, 2)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_chunks_are_written_in_order(self, tmp_path):
        path = tmp_path / "out.bin"
        utils.atomic_write(path, [b"ab", memoryview(b"cd"), np.array([[1, 2]], dtype="<u2")])
        assert path.read_bytes() == b"abcd\x01\x00\x02\x00"
        utils.atomic_write(path, [])
        assert path.read_bytes() == b""

    def test_failed_eval_report_exits_one_and_keeps_previous_file(self, tmp_path, monkeypatch,
                                                                  capsys):
        path = tmp_path / "eval.json"
        assert _write_eval_report(path) == 0
        before = path.read_bytes()
        path.write_text("previous\n")
        _break_writes(monkeypatch)
        assert _write_eval_report(path) == 1
        assert "No space left on device" in capsys.readouterr().err
        assert path.read_text() == "previous\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.embf", "eval.json"]
        monkeypatch.undo()
        assert _write_eval_report(path) == 0
        assert path.read_bytes() == before


class TestBlockRows:
    def test_a_row_wider_than_the_budget_gets_a_block_of_one(self):
        assert utils.block_rows(utils._CACHE_BLOCK_BYTES + 1, 10) == 1
        assert utils.block_rows(10 * utils._CACHE_BLOCK_BYTES, 10) == 1

    def test_capped_at_the_rows_there_are(self):
        assert utils.block_rows(8, 100) == 100
        assert utils.block_rows(8, 1) == 1

    def test_exact_multiple_of_the_row_size(self):
        assert utils.block_rows(utils._CACHE_BLOCK_BYTES // 4, 100) == 4
        assert utils.block_rows(utils._CACHE_BLOCK_BYTES // 4 + 1, 100) == 3
        assert utils.block_rows(utils._CACHE_BLOCK_BYTES, 100) == 1

    @pytest.mark.parametrize("row_bytes, rows, expected", [
        # nt_xent, 8 * 2N bytes a row: train-narrow's 2N = 1024, and the
        # 2N = 128 of train-wide and eval-theory in one block
        (8 * 1024, 1024, 128),
        (8 * 128, 128, 128),
        # kNN, 16 * N bytes a row: eval-theory, train-wide, train-narrow
        (16 * 1600, 1600, 40),
        (16 * 512, 512, 128),
        (16 * 1024, 1024, 64),
        # triplet margins, 32 * d bytes a row: eval-theory's 10 000 triplets
        # at d = 32, train-wide's 1000 at d = 768, train-narrow's at d = 16
        (32 * 32, 10_000, 1024),
        (32 * 768, 1000, 42),
        (32 * 16, 1000, 1000),
        # Adam, 48 bytes an element of train-wide's d = 768 arena
        (48, 2_365_056, 21_845),
    ])
    def test_block_sizes_of_the_benchmark_workloads(self, row_bytes, rows, expected):
        assert utils.block_rows(row_bytes, rows) == expected
