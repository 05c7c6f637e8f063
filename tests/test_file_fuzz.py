"""Fuzzed EMBF and SSKP files: header fields rewritten, bytes overwritten,
the file cut short or extended. Each mutated file is judged by a parser
written here from the format descriptions. A malformed one, an EMBF file
laid out right but holding a NaN or Inf vector included, must raise
`FormatError` from its loader and make `simskip inspect` exit 1; a
well-formed one must load and exit 0. No other exception may escape."""

import contextlib
import io
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simskip.cli import parse_and_run
from simskip.embedding_store import EmbeddingDataset, load_embeddings, save_embeddings
from simskip.errors import FormatError
from simskip.model import init_params, load_checkpoint, save_checkpoint

# name -> (offset, struct format) of each header field
EMBF_FIELDS = {"magic": (0, "4s"), "version": (4, "B"), "has_labels": (5, "B"),
               "reserved": (6, "<H"), "count": (8, "<I"), "dim": (12, "<I")}
SSKP_FIELDS = {"magic": (0, "4s"), "version": (4, "B"), "flags": (5, "B"), "dim": (6, "<I")}


def embf_verdict(raw: bytes) -> type[Exception] | None:
    """None for a well-formed EMBF file, else the error loading it must raise."""
    if len(raw) < 16:
        return FormatError
    magic, version, has_labels, reserved, count, dim = struct.unpack_from("<4sBBHII", raw)
    if magic != b"EMBF" or version != 1 or has_labels > 1 or reserved or dim < 1:
        return FormatError
    if len(raw) != 16 + 4 * count * (dim + has_labels):
        return FormatError
    if not np.isfinite(np.frombuffer(raw, "<f4", count * dim, 16)).all():
        return FormatError
    return None


def sskp_tensor_sizes(d: int) -> list[tuple[str, int]]:
    """(kind, element count) of each tensor of a width-d checkpoint, in file order."""
    h = d // 2
    block = lambda n_in, n_out: [("w", n_in * n_out), ("gamma", n_out), ("beta", n_out),
                                 ("mean", n_out), ("var", n_out)]
    return block(d, h) + block(h, d) + [("w", d * d), ("b", d)]


def sskp_verdict(raw: bytes) -> type[Exception] | None:
    """None for a well-formed SSKP file, else `FormatError`."""
    if len(raw) < 10:
        return FormatError
    magic, version, flags, d = struct.unpack_from("<4sBBI", raw)
    if magic != b"SSKP" or version != 3 or flags > 1 or d < 2 or d % 2:
        return FormatError
    sizes = sskp_tensor_sizes(d)
    if len(raw) != 10 + 8 * sum(n for _, n in sizes):
        return FormatError
    values = np.frombuffer(raw, "<f8", offset=10)
    if not np.isfinite(values).all():
        return FormatError
    ends = np.cumsum([n for _, n in sizes])
    for (kind, n), end in zip(sizes, ends):
        if kind == "var" and (values[end - n:end] < 0).any():
            return FormatError
    return None


@st.composite
def mutated(draw, raw: bytes, fields: dict) -> bytes:
    """`raw` after one to three mutations."""
    data = bytearray(raw)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["field", "byte", "truncate", "extend"]))
        if kind == "field":
            off, fmt = fields[draw(st.sampled_from(sorted(fields)))]
            size = struct.calcsize(fmt)
            if len(data) < off + size:
                continue
            if fmt == "4s":
                value = draw(st.sampled_from([b"EMBF", b"SSKP"]) | st.binary(min_size=4,
                                                                             max_size=4))
            else:
                top = 2 ** (8 * size) - 1
                value = draw(st.integers(0, 64) | st.integers(0, top) | st.just(top))
            struct.pack_into(fmt, data, off, value)
        elif kind == "byte" and data:
            data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
        elif kind == "truncate" and data:
            del data[draw(st.integers(0, len(data) - 1)):]
        elif kind == "extend":
            data += draw(st.binary(min_size=1, max_size=64))
    return bytes(data)


def _valid_embf(labeled: bool) -> bytes:
    rng = np.random.default_rng(0)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.embf"
        save_embeddings(EmbeddingDataset(rng.standard_normal((5, 3)),
                                         rng.integers(0, 3, 5) if labeled else None), path)
        return path.read_bytes()


def _valid_sskp(skip_enabled: bool) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.sskp"
        save_checkpoint(init_params(4, seed=0, skip_enabled=skip_enabled), path)
        return path.read_bytes()


EMBF_FILES = [_valid_embf(True), _valid_embf(False)]
SSKP_FILES = [_valid_sskp(True), _valid_sskp(False)]
# the projector that versions 1 and 2 stored after the encoder: at d = 4, two
# 4 x 4 weights and two biases
PROJECTOR_BYTES = bytes(8 * 2 * (4 * 4 + 4))


def _check(raw: bytes, verdict, load, suffix: str):
    expected = verdict(raw)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"fuzz.{suffix}"
        path.write_bytes(raw)
        if expected is None:
            load(path)
        else:
            with pytest.raises(expected) as info:
                load(path)
            # FormatError and ValidationError are both ValueErrors: match exactly
            assert type(info.value) is expected
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = parse_and_run(["inspect", "--in", str(path)])
        assert code == (0 if expected is None else 1)


class TestEmbfFuzz:
    @given(st.sampled_from(EMBF_FILES).flatmap(lambda raw: mutated(raw, EMBF_FIELDS)))
    @settings(max_examples=300, deadline=None)
    def test_mutated_file_is_rejected_unless_well_formed(self, raw):
        _check(raw, embf_verdict, load_embeddings, "embf")

    def test_the_unmutated_files_are_well_formed(self):
        assert [embf_verdict(raw) for raw in EMBF_FILES] == [None, None]

    @pytest.mark.parametrize("count,dim,labels",
                             [(0, 0, 0), (7, 0, 7), (2**32 - 1, 2**32 - 1, 0)])
    def test_header_dims_rejected(self, count, dim, labels):
        # dim 0 with labels that fill the payload came back as a ValidationError
        raw = struct.pack("<4sBBHII", b"EMBF", 1, 1, 0, count, dim) + bytes(4 * labels)
        _check(raw, embf_verdict, load_embeddings, "embf")


class TestSskpFuzz:
    @given(st.sampled_from(SSKP_FILES).flatmap(lambda raw: mutated(raw, SSKP_FIELDS)))
    @settings(max_examples=300, deadline=None)
    def test_mutated_file_is_rejected_unless_well_formed(self, raw):
        _check(raw, sskp_verdict, load_checkpoint, "sskp")

    def test_the_unmutated_files_are_well_formed(self):
        assert [sskp_verdict(raw) for raw in SSKP_FILES] == [None, None]

    @pytest.mark.parametrize("d", [2**32 - 2, 2**20, 6])
    def test_header_dim_checked_before_allocating(self, d):
        # the file is sized for d=4; the loader used to allocate the d-wide
        # model first, so a corrupt d asked for about 4 d^2 floats
        raw = bytearray(SSKP_FILES[0])
        struct.pack_into("<I", raw, 6, d)
        _check(bytes(raw), sskp_verdict, load_checkpoint, "sskp")

    def test_version_1_file_is_rejected(self, tmp_path, capsys):
        # version 1 also stored a bias right after each batch-norm block's weight;
        # this file is laid out right for version 1 at d = 4 (2 x 4 and 4 x 2 weights)
        raw = SSKP_FILES[0]
        w1_end, w2_end = 10 + 8 * 8, 10 + 8 * (8 + 4 * 2 + 8)
        v1 = (struct.pack("<4sBBI", b"SSKP", 1, 1, 4) + raw[10:w1_end] + bytes(8 * 2)
              + raw[w1_end:w2_end] + bytes(8 * 4) + raw[w2_end:] + PROJECTOR_BYTES)
        assert len(v1) == len(raw) + 8 * (2 + 4) + len(PROJECTOR_BYTES)
        path = tmp_path / "m.sskp"
        path.write_bytes(v1)
        with pytest.raises(FormatError, match="unsupported version 1"):
            load_checkpoint(path)
        assert parse_and_run(["inspect", "--in", str(path)]) == 1
        assert "unsupported version 1" in capsys.readouterr().err

    def test_version_2_file_is_rejected(self, tmp_path, capsys):
        # version 2 is version 3 with the projector stored after the encoder
        raw = SSKP_FILES[0]
        v2 = struct.pack("<4sBBI", b"SSKP", 2, 1, 4) + raw[10:] + PROJECTOR_BYTES
        path = tmp_path / "m.sskp"
        path.write_bytes(v2)
        with pytest.raises(FormatError, match="unsupported version 2"):
            load_checkpoint(path)
        assert parse_and_run(["inspect", "--in", str(path)]) == 1
        assert "unsupported version 2" in capsys.readouterr().err
