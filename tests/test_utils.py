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


def _write_eval_csv(path):
    data = path.with_name("d.embf")
    if not data.exists():
        labels = np.arange(20) % 2
        save_embeddings(EmbeddingDataset(np.arange(40.0).reshape(20, 2), labels), data)
    return parse_and_run(["eval", "--original", str(data), "--refined", str(data),
                          "--probe-epochs", "2", "--csv", str(path)])


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

    def test_failed_eval_csv_exits_one_and_keeps_previous_file(self, tmp_path, monkeypatch,
                                                               capsys):
        path = tmp_path / "eval.csv"
        assert _write_eval_csv(path) == 0
        before = path.read_bytes()
        path.write_text("previous\n")
        _break_writes(monkeypatch)
        assert _write_eval_csv(path) == 1
        assert "No space left on device" in capsys.readouterr().err
        assert path.read_text() == "previous\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.embf", "eval.csv"]
        monkeypatch.undo()
        assert _write_eval_csv(path) == 0
        assert path.read_bytes() == before
