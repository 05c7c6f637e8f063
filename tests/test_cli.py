import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simskip
from simskip import theory, trainer
from simskip.cli import parse_and_run
from simskip.embedding_store import EmbeddingDataset, load_embeddings, save_embeddings
from simskip.errors import ValidationError
from simskip.evaluate import LinearProbe, MLP3Probe, compare_embeddings
from simskip.model import init_params, load_checkpoint, save_checkpoint
from simskip.trainer import load_train_config


def run(argv):
    return parse_and_run([str(a) for a in argv])


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_child(argv, flags=(), main=("-m", "simskip.cli")):
    """`python -m simskip.cli argv` in a fresh interpreter that imports the
    same package as this process, installed or not; `main` replaces the
    `-m simskip.cli` part."""
    package_root = str(Path(simskip.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *flags, *main, *argv],
                          capture_output=True, text=True, env=env)


def loaded_package_modules(argv, main=("-m", "simskip.cli")) -> set[str]:
    """The `simskip` modules a fresh interpreter imports running `argv`, read
    from its `-X importtime` report."""
    proc = run_child(argv, flags=("-X", "importtime"), main=main)
    assert proc.returncode == 0, proc.stderr
    names = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")}
    return {name for name in names if name.split(".")[0] == "simskip"}


@pytest.fixture()
def synth_file(tmp_path):
    out = tmp_path / "d.embf"
    code = run(["gen-synth", "--classes", 2, "--dim", 8, "--per-class", 40,
                "--seed", 1, "--out", out])
    assert code == 0
    return out


@pytest.fixture()
def train_cfg(tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs = 3\nbatch_size = 32\nseed = 1\n")
    return cfg


class TestGenSynth:
    def test_writes_valid_embf(self, synth_file):
        ds = load_embeddings(synth_file)
        assert ds.count == 80 and ds.dim == 8 and ds.has_labels

    def test_idempotent(self, tmp_path):
        out = tmp_path / "x.embf"
        args = ["gen-synth", "--classes", 2, "--dim", 8, "--per-class", 10,
                "--seed", 3, "--out", out]
        assert run(args) == 0
        first = sha(out)
        assert run(args) == 0
        assert sha(out) == first

    def test_mixing_flag(self, tmp_path):
        out = tmp_path / "m.embf"
        assert run(["gen-synth", "--classes", 2, "--dim", 8, "--per-class", 10,
                    "--seed", 3, "--mix-strength", 0.5, "--out", out]) == 0
        assert load_embeddings(out).count == 20

    @pytest.mark.parametrize("strength", ["-1", "nan"])
    def test_out_of_range_mixing_is_rejected(self, tmp_path, strength):
        out = tmp_path / "m.embf"
        assert run(["gen-synth", "--classes", 2, "--dim", 8, "--per-class", 10,
                    "--seed", 3, "--mix-strength", strength, "--out", out]) == 1
        assert not out.exists()


class TestRefineAndEval:
    def test_full_pipeline(self, tmp_path, synth_file, train_cfg, capsys):
        refined = tmp_path / "refined.embf"
        ckpt = tmp_path / "m.sskp"
        report = tmp_path / "train.json"
        assert run(["refine", "--in", synth_file, "--config", train_cfg,
                    "--out", refined, "--checkpoint", ckpt, "--report", report]) == 0
        assert load_embeddings(refined).count == 80
        payload = json.loads(report.read_text())
        assert payload["variant"] == "simskip"
        assert len(payload["epoch_losses"]) == 3

        eval_report = tmp_path / "eval.json"
        assert run(["eval", "--original", synth_file, "--refined", refined,
                    "--report", eval_report]) == 0
        payload = json.loads(eval_report.read_text())
        assert "deltas" in payload["refined"][0]
        assert "knn_score" in payload["refined"][0]["deltas"]
        # the other probe kind rides along in the report
        assert payload["refined"][0]["secondary_probe"]["kind"] == "mlp3"

    def test_refine_is_idempotent_and_input_untouched(self, tmp_path, synth_file, train_cfg):
        before = sha(synth_file)
        refined = tmp_path / "r.embf"
        ckpt = tmp_path / "m.sskp"
        report = tmp_path / "t.json"
        args = ["refine", "--in", synth_file, "--config", train_cfg,
                "--out", refined, "--checkpoint", ckpt, "--report", report]
        assert run(args) == 0
        digests = (sha(refined), sha(ckpt), sha(report))
        assert run(args) == 0
        assert (sha(refined), sha(ckpt), sha(report)) == digests
        assert sha(synth_file) == before

    def test_missing_input_exits_one(self, tmp_path, capsys):
        code = run(["refine", "--in", tmp_path / "missing.embf",
                    "--out", tmp_path / "r.embf"])
        assert code == 1
        assert "missing.embf" in capsys.readouterr().err

    def test_command_sets_skip_path(self, tmp_path, synth_file, train_cfg):
        # one config, two commands: only the command decides the variant
        tags = {}
        for command in ("refine", "ablate"):
            report = tmp_path / f"{command}.json"
            assert run([command, "--in", synth_file, "--config", train_cfg,
                        "--out", tmp_path / f"{command}.embf", "--report", report]) == 0
            payload = json.loads(report.read_text())
            tags[command] = (payload["variant"], payload["config"]["skip_enabled"])
        assert tags == {"refine": ("simskip", True), "ablate": ("simskip-minus", False)}

    def test_ablate_tags_report(self, tmp_path, synth_file, train_cfg):
        refined = tmp_path / "ab.embf"
        report = tmp_path / "ab.json"
        assert run(["ablate", "--in", synth_file, "--config", train_cfg,
                    "--out", refined, "--report", report]) == 0
        payload = json.loads(report.read_text())
        assert payload["variant"] == "simskip-minus"
        assert payload["config"]["skip_enabled"] is False

    def test_eval_multiple_refined(self, tmp_path, synth_file, train_cfg):
        r1, r2 = tmp_path / "r1.embf", tmp_path / "r2.embf"
        for out in (r1, r2):
            assert run(["refine", "--in", synth_file, "--config", train_cfg,
                        "--out", out]) == 0
        report = tmp_path / "multi.json"
        assert run(["eval", "--original", synth_file, "--refined", r1, r2,
                    "--report", report]) == 0
        payload = json.loads(report.read_text())
        assert len(payload["refined"]) == 2

    def test_report_entries_are_the_library_records(self, tmp_path, synth_file, train_cfg):
        # each entry is compare_embeddings' record with the linear probe, plus its
        # path and the mlp3 call's accuracy (and delta) under secondary_probe
        a, b, report = tmp_path / "a.embf", tmp_path / "b.embf", tmp_path / "eval.json"
        for command, out in (("refine", a), ("ablate", b)):
            assert run([command, "--in", synth_file, "--config", train_cfg, "--out", out]) == 0
        assert run(["eval", "--original", synth_file, "--refined", a, b,
                    "--report", report]) == 0
        payload = json.loads(report.read_text(), parse_constant=reject_constant)
        original = load_embeddings(synth_file)
        for path, entry in zip((a, b), payload["refined"]):
            refined = load_embeddings(path)
            records = compare_embeddings(original, refined, LinearProbe(), 0.8)
            mlp3 = compare_embeddings(original, refined, MLP3Probe(), 0.8)
            entries = {str(synth_file): payload["original"], str(path): entry}
            for (want_path, got), want, secondary in zip(entries.items(), records, mlp3):
                got = dict(got)
                assert got.pop("path") == want_path
                assert got.pop("secondary_probe")["accuracy"] == secondary["probe_accuracy"]
                assert got == want
            assert entry["secondary_probe"]["delta"] == mlp3[1]["deltas"]["probe_accuracy"]

    def test_each_probe_record_holds_the_settings_its_fit_reads(self, tmp_path, synth_file):
        # the linear probe has no hidden layer and starts at zero, so it reads
        # neither --hidden-dim nor a seed; the mlp3 probe reads all five
        report = tmp_path / "eval.json"
        assert run(["eval", "--original", synth_file, "--refined", synth_file,
                    "--probe-epochs", 20, "--hidden-dim", 8, "--report", report]) == 0
        payload = json.loads(report.read_text(), parse_constant=reject_constant)
        linear = {"kind": "linear", "learning_rate": 0.5, "epochs": 20}
        mlp3 = {"kind": "mlp3", "hidden_dim": 8, "learning_rate": 0.01, "epochs": 300, "seed": 0}
        for entry in (payload["original"], *payload["refined"]):
            assert entry["probe_config"] == linear
            assert entry["secondary_probe"]["probe_config"] == mlp3


    def test_unset_probe_flags_keep_the_probe_type_defaults(self, tmp_path, synth_file):
        # the parser restates no default of a probe type
        report = tmp_path / "eval.json"
        assert run(["eval", "--original", synth_file, "--refined", synth_file,
                    "--report", report]) == 0
        payload = json.loads(report.read_text(), parse_constant=reject_constant)
        for entry in (payload["original"], *payload["refined"]):
            assert entry["probe_config"] == LinearProbe().to_json_dict()
            assert entry["secondary_probe"]["probe_config"] == MLP3Probe().to_json_dict()


class TestExtremeInputs:
    """Inputs at the edge of the numerics still refine to finite output."""

    @pytest.mark.parametrize("extra", [
        "",
        "augment.noise_scale = 0\naugment.mask_prob = 1.0\n",
        "tau = 1e-6\n",
        "learning_rate = 1e6\n",
    ], ids=["constant-rows", "mask-everything", "tiny-tau", "huge-lr"])
    def test_refine_writes_finite_output(self, tmp_path, synth_file, extra):
        data = synth_file
        if not extra:
            # every row equal: batch norm sees a zero variance in every column
            data = tmp_path / "constant.embf"
            save_embeddings(EmbeddingDataset(np.full((64, 8), 3.0), np.arange(64) % 2), data)
        cfg = tmp_path / "edge.cfg"
        cfg.write_text("epochs = 3\nbatch_size = 32\nseed = 1\n" + extra)
        out, ckpt = tmp_path / "r.embf", tmp_path / "m.sskp"
        assert run(["refine", "--in", data, "--config", cfg, "--out", out,
                    "--checkpoint", ckpt]) == 0
        assert np.isfinite(load_embeddings(out).vectors).all()
        load_checkpoint(ckpt)  # rejects non-finite tensors

    # past the edge: Adam's g * g overflows at tau = 1e-160 (the loss is about
    # 1e155, finite, so no later check would stop it), and the first matmul
    # after an update overflows at learning_rate = 1e300
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("extra", ["tau = 1e-160\n", "learning_rate = 1e300\n"],
                             ids=["tau-1e-160", "lr-1e300"])
    def test_floating_point_fault_exits_two_and_writes_nothing(self, tmp_path, capsys, extra):
        data = tmp_path / "d.embf"
        assert run(["gen-synth", "--classes", 2, "--dim", 8, "--per-class", 45,
                    "--out", data]) == 0
        cfg = tmp_path / "edge.cfg"
        cfg.write_text("epochs = 1\nbatch_size = 16\n" + extra)
        capsys.readouterr()
        assert run(["refine", "--in", data, "--config", cfg, "--out", tmp_path / "r.embf",
                    "--report", tmp_path / "r.json"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: refine: floating-point fault:")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.embf", "edge.cfg"]

    def test_fault_line_names_the_stage(self, tmp_path, capsys):
        # at tau = 1e-160 the first Adam update, proj2's at the first step, overflows
        data = tmp_path / "d.embf"
        assert run(["gen-synth", "--classes", 2, "--dim", 8, "--per-class", 45,
                    "--out", data]) == 0
        cfg = tmp_path / "edge.cfg"
        cfg.write_text("epochs = 1\nbatch_size = 16\ntau = 1e-160\n")
        capsys.readouterr()
        assert run(["refine", "--in", data, "--config", cfg, "--out", tmp_path / "r.embf"]) == 2
        assert capsys.readouterr().err == ("error: refine: floating-point fault: epoch 1, "
                                           "batch 1, proj2 update: overflow encountered in "
                                           "multiply\n")


# the config values the contract test draws from: the edges of float64 and of each
# key's range, plus values every key accepts; None leaves the key out of the file
EDGE_VALUES = (0.0, -1.0, float("nan"), float("inf"), 1e-300, 1e-160, 1e300, 1e-3, 0.5)
CONTRACT_KEYS = ("tau", "learning_rate", "augment.noise_scale", "augment.mask_prob")


@pytest.fixture(scope="module")
def contract_data(tmp_path_factory):
    # 48 rows at d = 8, batch 16 for 1 epoch: three training steps a run
    out = tmp_path_factory.mktemp("contract") / "d.embf"
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["gen-synth", "--classes", 2, "--dim", 8, "--per-class", 24,
                    "--seed", 1, "--out", out]) == 0
    return out


class TestConfigContract:
    """`refine` and `ablate` keep the exit contract for any config value:
    exit 0 with every output loadable, or exit 1 or 2 with one `error:` line
    and no output, never a warning or a traceback."""

    @given(st.sampled_from(["refine", "ablate"]),
           st.fixed_dictionaries({key: st.none() | st.sampled_from(EDGE_VALUES)
                                  for key in CONTRACT_KEYS}))
    @settings(max_examples=100, deadline=None)
    def test_exit_contract_over_config_values(self, contract_data, command, values):
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            cfg = work / "edge.cfg"
            cfg.write_text("epochs = 1\nbatch_size = 16\n"
                           + "".join(f"{key} = {value!r}\n" for key, value in values.items()
                                     if value is not None))
            out, ckpt, report = work / "r.embf", work / "m.sskp", work / "r.json"
            err = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("error")
                code = run([command, "--in", contract_data, "--config", cfg, "--out", out,
                            "--checkpoint", ckpt, "--report", report])
            if code == 0:
                assert np.isfinite(load_embeddings(out).vectors).all()
                load_checkpoint(ckpt)
                json.loads(report.read_text(), parse_constant=reject_constant)
            else:
                assert code in (1, 2)
                lines = err.getvalue().splitlines()
                assert len(lines) == 1 and lines[0].startswith("error:"), lines
                assert [p.name for p in work.iterdir()] == ["edge.cfg"]


# the argv values the flag contract test draws for each flag: the edges of float64 and
# of each flag's range, then one value the flag accepts. An integer flag parses only
# 0, -1 and its small accepted value, so no draw allocates at scale
EDGE_ARGS = ("0", "-1", "nan", "inf", "1e-300", "1e300")
FLAG_VALUES = {
    "theory": {"--triplets": "20", "--k": "2", "--seed": "3"},
    "eval": {"--hidden-dim": "4", "--probe-epochs": "2", "--train-fraction": "0.5"},
    "gen-synth": {"--classes": "2", "--dim": "3", "--per-class": "4", "--seed": "5",
                  "--mix-strength": "0.3"},
    "augment": {"--mask-prob": "0.2", "--noise-scale": "0.1", "--seed": "3", "--rows": "2"},
}


@pytest.fixture(scope="module")
def flag_contract_inputs(contract_data, tmp_path_factory):
    """Each command's input flags: `eval` compares the contract data with its double."""
    data = load_embeddings(contract_data)
    refined = tmp_path_factory.mktemp("flags") / "r.embf"
    save_embeddings(EmbeddingDataset(2.0 * data.vectors, data.labels), refined)
    return {"theory": ["--in", contract_data],
            "eval": ["--original", contract_data, "--refined", refined],
            "gen-synth": [],
            "augment": ["--in", contract_data]}


class TestFlagContract:
    """Each command with a value flag keeps the exit contract for any flag
    value: exit 0 with a loadable EMBF output (`gen-synth`) or a strict JSON
    report, or exit 1 or 2 with no output and one `error:` line, the last on
    stderr (argparse's usage line may come before it), never a warning or a
    traceback. `refine`, `ablate` and `inspect` take only path flags."""

    @pytest.mark.parametrize("command", ["theory", "eval", "gen-synth", "augment"])
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_exit_contract_over_flag_values(self, flag_contract_inputs, command, data):
        values = data.draw(st.fixed_dictionaries(
            {flag: st.just(valid) | st.sampled_from(EDGE_ARGS)
             for flag, valid in FLAG_VALUES[command].items()}))
        with tempfile.TemporaryDirectory() as tmp:
            out_flag, out = ("--out", Path(tmp) / "out.embf") if command == "gen-synth" \
                else ("--report", Path(tmp) / "report.json")
            err = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("error")
                code = run([command, *flag_contract_inputs[command],
                            *(part for item in values.items() for part in item),
                            out_flag, out])
            if code == 0 and command == "gen-synth":
                load_embeddings(out)
            elif code == 0:
                json.loads(out.read_text(), parse_constant=reject_constant)
            else:
                assert code in (1, 2)
                lines = err.getvalue().splitlines()
                assert [line for line in lines if line.startswith("error:")] == lines[-1:], lines
                assert "Traceback" not in err.getvalue()
                assert list(Path(tmp).iterdir()) == []


class TestTheoryCommand:
    def test_report_fields(self, tmp_path, synth_file):
        report = tmp_path / "bound.json"
        assert run(["theory", "--in", synth_file, "--triplets", 200,
                    "--k", 1, "--seed", 2, "--report", report]) == 0
        payload = json.loads(report.read_text())
        for key in ("nonneg_margin_fraction", "L_un_identity", "L_un_doubled",
                    "holds", "gen_m", "bound_rhs", "config"):
            assert key in payload

    def test_empty_labeled_file_writes_nothing(self, tmp_path, capsys):
        empty = tmp_path / "empty.embf"
        save_embeddings(EmbeddingDataset(np.zeros((0, 4)), np.zeros(0, dtype=np.int64)), empty)
        assert run(["theory", "--in", empty, "--report", tmp_path / "bound.json"]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.embf"]

    def test_radius_is_the_largest_row_norm(self, tmp_path):
        data, report = tmp_path / "d.embf", tmp_path / "bound.json"
        save_embeddings(EmbeddingDataset(np.array([[3.0, 4.0], [1.0, 0.0], [0.0, 1.0],
                                                   [0.5, -0.5]]), np.array([0, 0, 1, 1])), data)
        assert run(["theory", "--in", data, "--triplets", 50, "--k", 2, "--report", report]) == 0
        payload = json.loads(report.read_text())
        assert payload["config"]["R"] == 5.0
        assert payload["gen_m"] == theory.gen_m(5.0, 50, 2)

    def test_all_zero_embedding_exits_one(self, tmp_path, capsys):
        data = tmp_path / "zero.embf"
        save_embeddings(EmbeddingDataset(np.zeros((6, 3)), np.array([0, 0, 0, 1, 1, 1])), data)
        assert run(["theory", "--in", data, "--report", tmp_path / "bound.json"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: R must be"), lines
        assert sorted(p.name for p in tmp_path.iterdir()) == ["zero.embf"]

    def test_non_finite_bound_exits_two_and_writes_nothing(self, tmp_path, synth_file, capsys,
                                                           monkeypatch):
        monkeypatch.setattr(theory, "gen_m", lambda R, M, k: math.inf)
        assert run(["theory", "--in", synth_file, "--triplets", 50,
                    "--report", tmp_path / "bound.json"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "non-finite" in lines[0]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.embf"]


def reject_constant(name):
    raise ValueError(f"non-JSON number {name}")


class TestStrictJson:
    def test_every_report_parses_as_strict_json(self, tmp_path, synth_file, train_cfg):
        refined, ckpt = tmp_path / "r.embf", tmp_path / "m.sskp"
        commands = {
            "refine": ["refine", "--in", synth_file, "--config", train_cfg, "--out", refined,
                       "--checkpoint", ckpt],
            "ablate": ["ablate", "--in", synth_file, "--config", train_cfg,
                       "--out", tmp_path / "a.embf"],
            "eval": ["eval", "--original", synth_file, "--refined", refined, "--probe-epochs", 20],
            "theory": ["theory", "--in", synth_file, "--triplets", 50],
            "augment": ["augment", "--in", synth_file, "--rows", 2],
            "inspect-embf": ["inspect", "--in", refined],
            "inspect-sskp": ["inspect", "--in", ckpt],
        }
        for name, argv in commands.items():
            report = tmp_path / f"{name}.json"
            assert run([*argv, "--report", report]) == 0, name
            assert json.loads(report.read_text(), parse_constant=reject_constant), name


class TestAugmentCommand:
    def test_preview(self, tmp_path, synth_file):
        report = tmp_path / "aug.json"
        assert run(["augment", "--in", synth_file, "--noise-scale", 0,
                    "--mask-prob", 0.5, "--rows", 2, "--seed", 4,
                    "--report", report]) == 0
        payload = json.loads(report.read_text())
        assert payload["config"] == {"mask_prob": 0.5, "noise_scale": 0.0, "seed": 4}
        assert len(payload["previews"]) == 2
        assert len(payload["previews"][0]["view_a"]) == 8
        for preview in payload["previews"]:
            # masking alone: every coordinate is kept or zeroed
            original = np.array(preview["original"])
            for view in (preview["view_a"], preview["view_b"]):
                assert np.all((np.array(view) == original) | (np.array(view) == 0.0))


class TestInspectCommand:
    def test_embeddings_summary(self, synth_file, capsys):
        assert run(["inspect", "--in", synth_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "embeddings"
        assert payload["count"] == 80 and payload["has_labels"]

    def test_checkpoint_summary(self, tmp_path, synth_file, train_cfg, capsys):
        ckpt = tmp_path / "m.sskp"
        assert run(["refine", "--in", synth_file, "--config", train_cfg,
                    "--out", tmp_path / "r.embf", "--checkpoint", ckpt]) == 0
        capsys.readouterr()
        assert run(["inspect", "--in", ckpt]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "checkpoint"
        assert payload["dim"] == 8
        # the encoder's weights alone: the checkpoint holds no projector
        assert payload["weight_parameter_counts"] == {"layer1.weight": 8 * 4,
                                                      "layer2.weight": 4 * 8,
                                                      "out.weight": 8 * 8}
        assert payload["weight_parameters_total"] == 128


class TestErrorPaths:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_corrupt_embf_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.embf"
        bad.write_bytes(b"NOPE" + b"\x00" * 20)
        assert run(["inspect", "--in", bad]) == 1
        assert "magic" in capsys.readouterr().err

    def test_batch_larger_than_dataset_exits_one(self, tmp_path, synth_file, capsys):
        cfg = tmp_path / "big.cfg"
        cfg.write_text("epochs = 1\nbatch_size = 81\n")
        out = tmp_path / "r.embf"
        assert run(["refine", "--in", synth_file, "--config", cfg, "--out", out]) == 1
        assert "dataset has 80 rows, fewer than batch_size 81" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_exits_one(self, tmp_path, synth_file, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not_a_key = 1\n")
        assert run(["refine", "--in", synth_file, "--config", cfg,
                    "--out", tmp_path / "r.embf"]) == 1

    @pytest.mark.parametrize("line", [
        "tau = nan", "tau = inf", "learning_rate = inf",
        "augment.noise_scale = nan", "augment.noise_scale = inf"])
    def test_non_finite_train_config_exits_one(self, tmp_path, synth_file, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"epochs = 1\nbatch_size = 32\n{line}\n")
        with pytest.raises(ValidationError, match="finite"):
            load_train_config(cfg)
        out, ckpt = tmp_path / "r.embf", tmp_path / "m.sskp"
        assert run(["refine", "--in", synth_file, "--config", cfg,
                    "--out", out, "--checkpoint", ckpt]) == 1
        assert "finite" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg", "d.embf"]

    @pytest.mark.parametrize("command,argv,message", [
        ("gen-synth", "--classes 0 --out {o}", "num_classes must be >= 1, got 0"),
        ("gen-synth", "--dim 0 --out {o}", "dim must be >= 1, got 0"),
        ("gen-synth", "--per-class 0 --out {o}", "points_per_class must be >= 1, got 0"),
        ("theory", "--in {d} --k 0 --report {o}", "k must be >= 1, got 0"),
        ("theory", "--in {d} --triplets 0 --report {o}", "count must be >= 1, got 0"),
    ], ids=["gen-synth-classes-0", "gen-synth-dim-0", "gen-synth-per-class-0", "theory-k-0",
            "theory-triplets-0"])
    def test_out_of_range_count_exits_one(self, tmp_path, synth_file, capsys, command, argv,
                                          message):
        argv = argv.format(d=synth_file, o=tmp_path / "out").split()
        assert run([command, *argv]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.embf"]

    # sizes past int64 or of at least 8 PiB, which no 47-bit address space can map,
    # so NumPy refuses them before touching memory
    @pytest.mark.parametrize("command,argv,message", [
        ("theory", "--in {d} --k 2000000000000 --report {o}", "Unable to allocate 14.2 PiB"),
        ("theory", f"--in {{d}} --triplets {10**30} --report {{o}}",
         "Maximum allowed dimension exceeded"),
        ("gen-synth", f"--per-class {10**30} --out {{o}}", "Python int too large"),
        ("gen-synth", f"--dim {10**15} --out {{o}}", "Unable to allocate 14.2 PiB"),
        ("eval", f"--original {{d}} --refined {{d}} --hidden-dim {10**30} --report {{o}}",
         "Maximum allowed dimension exceeded"),
    ], ids=["theory-k", "theory-triplets", "gen-synth-per-class", "gen-synth-dim",
            "eval-hidden-dim"])
    def test_impossible_size_exits_one(self, tmp_path, synth_file, capsys, command, argv,
                                       message):
        argv = argv.format(d=synth_file, o=tmp_path / "out").split()
        capsys.readouterr()
        assert run([command, *argv]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert err.startswith(f"error: {command}: {message}"), err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.embf"]

    @pytest.mark.parametrize("command", ["refine", "ablate"])
    @pytest.mark.parametrize("kind", ["checkpoint", "stray-0xff", "bom-stray-0xff"])
    def test_config_that_is_not_utf8_exits_one(self, tmp_path, synth_file, capsys, command,
                                               kind):
        cfg = tmp_path / "m.cfg"
        if kind == "checkpoint":  # a binary file passed as the config
            save_checkpoint(init_params(8, seed=0), cfg)
            where = r"byte 0x[0-9a-f]{2} at offset \d+"
        else:  # the offset counts from the start of the file, byte-order mark included
            bom = b"\xef\xbb\xbf" if kind.startswith("bom") else b""
            cfg.write_bytes(bom + b"epochs = 1\nbatch_size = 32\nseed = 1\xff\n")
            where = rf"byte 0xff at offset {35 + len(bom)}"
        assert run([command, "--in", synth_file, "--config", cfg, "--out", tmp_path / "r.embf",
                    "--checkpoint", tmp_path / "r.sskp", "--report", tmp_path / "r.json"]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert re.fullmatch(rf"error: {re.escape(str(cfg))}: not UTF-8 text \({where}\)\n", err)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.embf", "m.cfg"]

    # Adam runs at fixed constants and the command sets the skip path, so
    # those former keys are unknown ones
    @pytest.mark.parametrize("key", ["adam_beta1", "adam_beta2", "adam_eps",
                                     "skip_enabled", "zero_init_residual_out"])
    def test_removed_config_key_exits_one(self, tmp_path, synth_file, capsys, key):
        cfg = tmp_path / "old.cfg"
        cfg.write_text(f"epochs = 1\nbatch_size = 32\n{key} = 0\n")
        for command in ("refine", "ablate"):
            assert run([command, "--in", synth_file, "--config", cfg,
                        "--out", tmp_path / "r.embf", "--checkpoint", tmp_path / "m.sskp",
                        "--report", tmp_path / "r.json"]) == 1, command
            last = capsys.readouterr().err.splitlines()[-1]
            assert last == f"error: {cfg}:3: unknown config key {key!r}", command
            assert sorted(p.name for p in tmp_path.iterdir()) == ["d.embf", "old.cfg"]

    # a value that does not parse, then one that fails its range check
    @pytest.mark.parametrize("line,key", [("epochs = 1.5", "epochs"),
                                          ("learning_rate = 1e-3x", "learning_rate"),
                                          ("tau = 0", "tau"),
                                          ("epochs = -1", "epochs"),
                                          ("augment.mask_prob = 2", "augment.mask_prob")],
                             ids=["int", "float", "range", "epochs-range", "augment-range"])
    def test_bad_config_value_names_file_and_line(self, tmp_path, synth_file, capsys, line,
                                                  key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"batch_size = 32\n{line}\n")
        assert run(["refine", "--in", synth_file, "--config", cfg, "--out", tmp_path / "r.embf",
                    "--report", tmp_path / "r.json"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {cfg}:2: config key {key!r}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg", "d.embf"]

    def test_config_with_byte_order_mark(self, tmp_path, synth_file):
        # as some editors save it: the mark is not part of the first key
        text = b"epochs = 2\nbatch_size = 32\nseed = 3\n"
        outputs = {}
        for name, data in (("plain", text), ("bom", b"\xef\xbb\xbf" + text)):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_bytes(data)
            embf, ckpt = tmp_path / f"{name}.embf", tmp_path / f"{name}.sskp"
            assert run(["refine", "--in", synth_file, "--config", cfg, "--out", embf,
                        "--checkpoint", ckpt]) == 0
            outputs[name] = (load_train_config(cfg), embf.read_bytes(), ckpt.read_bytes())
        assert outputs["bom"] == outputs["plain"]

    def test_repeated_config_key_exits_one(self, tmp_path, synth_file, capsys):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("epochs = 3\nbatch_size = 32\nepochs = 5\n")
        assert run(["refine", "--in", synth_file, "--config", cfg, "--out", tmp_path / "r.embf",
                    "--checkpoint", tmp_path / "m.sskp", "--report", tmp_path / "r.json"]) == 1
        assert "'epochs' is given twice (lines 1 and 3)" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.embf", "twice.cfg"]

    def test_empty_training_split_exits_one(self, tmp_path, synth_file, capsys):
        # floor(0.01 * 80) = 0 training rows
        report = tmp_path / "eval.json"
        assert run(["eval", "--original", synth_file, "--refined", synth_file,
                    "--train-fraction", 0.01, "--report", report]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "train_fraction 0.01 of 80 rows" in err
        assert not report.exists()

    # each removed flag, given a value its command once took
    @pytest.mark.parametrize("command,argv,flag", [
        ("eval", "--original {d} --refined {d} --report {o} --csv {c}", "--csv"),
        ("eval", "--original {d} --refined {d} --report {o} --probe mlp3", "--probe"),
        ("theory", "--in {d} --report {o} --sample-size 10", "--sample-size"),
        ("gen-synth", "--mix-strength 0.5 --out {o} --mix-seed 3", "--mix-seed"),
        ("refine", "--in {d} --out {o} --lr-sweep", "--lr-sweep"),
        ("ablate", "--in {d} --out {o} --lr-sweep", "--lr-sweep"),
        ("theory", "--in {d} --report {o} --radius 5", "--radius"),
        ("theory", "--in {d} --report {o} --rademacher 1", "--rademacher"),
        ("theory", "--in {d} --report {o} --delta-conf 0.05", "--delta-conf"),
        ("theory", "--in {d} --report {o} --alpha 1", "--alpha"),
        ("theory", "--in {d} --report {o} --eta 1", "--eta"),
        ("theory", "--in {d} --report {o} --eps-slack 0", "--eps-slack"),
        ("eval", "--original {d} --refined {d} --report {o} --knn-k 5", "--knn-k"),
        ("eval", "--original {d} --refined {d} --report {o} --probe-lr 0.1", "--probe-lr"),
        ("eval", "--original {d} --refined {d} --report {o} --probe-seed 3", "--probe-seed"),
        ("eval", "--original {d} --refined {d} --report {o} --split-seed 2", "--split-seed"),
        ("gen-synth", "--out {o} --separation 10", "--separation"),
        ("gen-synth", "--out {o} --sigma 1", "--sigma"),
    ], ids=["eval-csv", "eval-probe", "theory-sample-size", "gen-synth-mix-seed",
            "refine-lr-sweep", "ablate-lr-sweep", "theory-radius", "theory-rademacher",
            "theory-delta-conf", "theory-alpha", "theory-eta", "theory-eps-slack",
            "eval-knn-k", "eval-probe-lr", "eval-probe-seed", "eval-split-seed",
            "gen-synth-separation", "gen-synth-sigma"])
    def test_removed_flag_exits_one(self, tmp_path, synth_file, capsys, command, argv, flag):
        argv = argv.format(d=synth_file, o=tmp_path / "out", c=tmp_path / "e.csv").split()
        assert run([command, *argv]) == 1
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("error:") and flag in last
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.embf"]

    def test_abbreviated_flag_exits_one(self, tmp_path, capsys):
        # with prefix matching, --mix would run as --mix-strength
        assert run(["gen-synth", "--mix", 0.5, "--out", tmp_path / "x.embf"]) == 1
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("error:") and "--mix" in last
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("lr", [-1, 0])
    def test_probe_learning_rate_must_be_positive(self, lr):
        with pytest.raises(ValidationError, match="learning_rate"):
            LinearProbe(learning_rate=lr)

    def test_probe_epochs_must_be_nonnegative(self, tmp_path, synth_file, capsys):
        with pytest.raises(ValidationError, match="epochs"):
            LinearProbe(epochs=-3)
        LinearProbe(epochs=0)
        report = tmp_path / "eval.json"
        assert run(["eval", "--original", synth_file, "--refined", synth_file,
                    "--probe-epochs", -3, "--report", report]) == 1
        assert "epochs" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("command,flag", [
        ("gen-synth", "--seed"), ("theory", "--seed"), ("augment", "--seed"),
        ("refine", "config"), ("ablate", "config")])
    def test_negative_seed_exits_one(self, tmp_path, synth_file, capsys, command, flag):
        out = tmp_path / "out"
        argv = {
            "gen-synth": ["--mix-strength", 0.5, "--out", out],
            "theory": ["--in", synth_file, "--report", out],
            "augment": ["--in", synth_file, "--report", out],
        }.get(command)
        if flag == "config":
            cfg = tmp_path / "seed.cfg"
            cfg.write_text("epochs = 1\nbatch_size = 32\nseed = -1\n")
            with pytest.raises(ValidationError, match="seed"):
                load_train_config(cfg)
            argv = ["--in", synth_file, "--config", cfg, "--out", out,
                    "--checkpoint", tmp_path / "m.sskp", "--report", tmp_path / "r.json"]
        else:
            argv = [*argv, flag, -1]
        assert run([command, *argv]) == 1
        # a usage error prints the usage lines first; the error line is last
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("error:") and "seed" in last
        assert not out.exists()
        assert {p.name for p in tmp_path.iterdir()} <= {"d.embf", "seed.cfg"}

    # (command, its arguments) with {d} the data file, {c} a config file, {e}
    # a copy of {d} and {l} a symlink to {d}; one output names an input
    @pytest.mark.parametrize("command,argv", [
        ("refine", "--in {d} --out {d}"),
        ("refine", "--in {d} --config {c} --out {e} --checkpoint {c}"),
        ("refine", "--in {d} --out {e} --report {l}"),
        ("ablate", "--in {d} --config {c} --out {l}"),
        ("eval", "--original {d} --refined {e} --report {d}"),
        ("eval", "--original {d} --refined {d} {e} --report {l}"),
        ("eval", "--original {l} --refined {e} --report {e}"),
        ("theory", "--in {d} --report {d}"),
        ("augment", "--in {l} --report {d}"),
        ("inspect", "--in {d} --report {l}"),
    ], ids=["refine-out", "refine-checkpoint", "refine-report-link", "ablate-out-link",
            "eval-report", "eval-csv-link", "eval-report-refined", "theory-report",
            "augment-report", "inspect-report-link"])
    def test_output_naming_an_input_exits_one(self, tmp_path, synth_file, train_cfg,
                                              capsys, command, argv):
        copy, link = tmp_path / "e.embf", tmp_path / "l.embf"
        copy.write_bytes(synth_file.read_bytes())
        link.symlink_to(synth_file)
        files = {p: p.read_bytes() for p in (synth_file, train_cfg, copy)}
        argv = argv.format(d=synth_file, c=train_cfg, e=copy, l=link).split()
        assert run([command, *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "inputs are never overwritten" in err
        assert {p: p.read_bytes() for p in files} == files
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "d.embf", "e.embf", "l.embf", "train.cfg"]

    # {o} an output path that two of the command's outputs name
    @pytest.mark.parametrize("command,argv", [
        ("refine", "--in {d} --config {c} --out {o} --checkpoint {o}"),
        ("ablate", "--in {d} --out r.embf --checkpoint {o} --report {o}"),
    ], ids=["refine-out-checkpoint", "ablate-checkpoint-report"])
    def test_two_outputs_naming_one_file_exit_one(self, tmp_path, synth_file, train_cfg,
                                                  capsys, monkeypatch, command, argv):
        monkeypatch.chdir(tmp_path)
        argv = argv.format(d=synth_file, c=train_cfg, o=tmp_path / "o.out").split()
        assert run([command, *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "each output needs its own file" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.embf", "train.cfg"]

    @pytest.mark.parametrize("command,argv,problem", [
        ("refine", "--in {d} --config {c} --out r.embf --checkpoint m.sskp "
                   "--report nodir/train.json", "--report nodir/train.json: nodir is not"),
        ("gen-synth", "--out nodir/d.embf", "--out nodir/d.embf: nodir is not"),
        ("eval", "--original {d} --refined {d} --report nodir/e.json",
         "--report nodir/e.json: nodir is not"),
        ("theory", "--in {d} --report d.embf/bound.json",
         "--report d.embf/bound.json: d.embf is not"),
        ("refine", "--in {d} --config {c} --out adir --report t.json",
         "--out adir is a directory"),
    ], ids=["refine-report", "gen-synth-out", "eval-csv", "theory-report-under-a-file",
            "refine-out-is-a-directory"])
    def test_output_that_cannot_be_a_file_exits_one(self, tmp_path, synth_file, train_cfg,
                                                     capsys, monkeypatch, command, argv,
                                                     problem):
        # checked before anything is read or trained, so no output is written
        monkeypatch.chdir(tmp_path)
        (tmp_path / "adir").mkdir()
        assert run([command, *argv.format(d=synth_file, c=train_cfg).split()]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {problem}") and ".tmp" not in err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["adir", "d.embf", "train.cfg"]

    @pytest.mark.parametrize("rows", [0, -1])
    def test_augment_rows_must_be_positive(self, tmp_path, synth_file, capsys, rows):
        report = tmp_path / "aug.json"
        assert run(["augment", "--in", synth_file, "--rows", rows, "--report", report]) == 1
        assert "--rows" in capsys.readouterr().err
        assert not report.exists()

    def test_augment_rows_beyond_the_file_exits_one(self, tmp_path, synth_file, capsys):
        # previews are never silently cut to the rows the file has
        report = tmp_path / "aug.json"
        assert run(["augment", "--in", synth_file, "--rows", 81, "--report", report]) == 1
        assert "--rows 81 exceeds the file's 80 rows" in capsys.readouterr().err
        assert not report.exists()

    def test_console_entry_point(self, tmp_path):
        out = tmp_path / "cli.embf"
        proc = run_child(["gen-synth", "--classes", "2", "--dim", "4", "--per-class", "5",
                          "--seed", "0", "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        assert load_embeddings(out).count == 10

    def test_inspect_closes_its_input(self, synth_file):
        # an unclosed file would raise under -W error::ResourceWarning
        proc = run_child(["inspect", "--in", str(synth_file)],
                         flags=["-X", "dev", "-W", "error::ResourceWarning"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["kind"] == "embeddings"


# every public name of the package, by the submodule that defines it
PUBLIC_NAMES = {
    "augment": ["AugmentConfig", "DEFAULT_NOISE_SCALE", "gaussian_noise",
                "make_positive_pairs", "random_mask"],
    "cli": [],
    "embedding_store": ["EmbeddingDataset", "dataset_fingerprint", "load_embeddings",
                        "save_embeddings", "split"],
    "errors": ["FormatError", "NumericsError", "ShapeError", "SimSkipError",
               "ValidationError"],
    "evaluate": ["LinearProbe", "MLP3Probe", "compare_embeddings", "evaluate_embeddings",
                 "evaluate_probe", "knn_same_label_score", "train_probe"],
    "losses": ["logistic_loss", "nt_xent"],
    "model": ["SimSkipParams", "encoder_forward", "init_params", "load_checkpoint",
              "projector_forward", "refine", "save_checkpoint"],
    "nn_core": ["adam_init", "adam_step"],
    "synth_data": ["MixtureSpec", "apply_class_mixing", "generate_gaussian_mixture"],
    "theory": ["Triplets", "bound_rhs", "gen_m", "sample_triplets", "skip_inequality_check"],
    "trainer": ["TrainConfig", "load_train_config", "train"],
}


class TestImports:
    """A fresh start loads only the modules its command runs."""

    def test_gen_synth_loads_no_training_evaluation_or_theory(self, tmp_path):
        loaded = loaded_package_modules(["gen-synth", "--out", str(tmp_path / "d.embf")])
        assert "simskip.synth_data" in loaded
        assert loaded.isdisjoint({f"simskip.{m}" for m in (
            "trainer", "model", "nn_core", "losses", "evaluate", "theory")}), loaded

    def test_theory_loads_no_training_or_evaluation(self, tmp_path, synth_file):
        loaded = loaded_package_modules(["theory", "--in", str(synth_file), "--triplets", "50",
                                         "--report", str(tmp_path / "bound.json")])
        assert "simskip.theory" in loaded
        assert loaded.isdisjoint({f"simskip.{m}" for m in (
            "trainer", "model", "nn_core", "evaluate")}), loaded

    def test_eval_loads_no_training_or_model(self, tmp_path, synth_file):
        # scoring stands on the layer kit; embeddings from any encoder need no trainer
        loaded = loaded_package_modules(["eval", "--original", str(synth_file), "--refined",
                                         str(synth_file), "--report", str(tmp_path / "e.json")])
        assert "simskip.evaluate" in loaded
        assert loaded.isdisjoint({"simskip.trainer", "simskip.model"}), loaded

    def test_inspect_of_a_checkpoint_loads_no_losses(self, tmp_path):
        ckpt = tmp_path / "m.sskp"
        save_checkpoint(init_params(8, seed=0), ckpt)
        loaded = loaded_package_modules(["inspect", "--in", str(ckpt)])
        assert "simskip.model" in loaded
        assert "simskip.losses" not in loaded, loaded

    def test_bare_import_loads_no_submodule(self):
        assert loaded_package_modules([], main=("-c", "import simskip")) == {"simskip"}

    def test_public_names_resolve_to_their_module_attributes(self):
        assert sorted(simskip.__all__) == sorted(n for names in PUBLIC_NAMES.values()
                                                 for n in names)
        for module_name, names in PUBLIC_NAMES.items():
            module = importlib.import_module(f"simskip.{module_name}")
            assert getattr(simskip, module_name) is module
            for name in names:
                assert getattr(simskip, name) is getattr(module, name), name
                assert name in dir(simskip), name

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            simskip.no_such_name  # noqa: B018

    @pytest.mark.parametrize("name", ["load_csv", "save_csv", "empirical_unsup_loss",
                                      "save_train_config", "augment_view",
                                      "make_positive_pair", "ProbeConfig", "LossValue"])
    def test_removed_names_raise_attribute_error(self, name):
        # EMBF is the one file format; skip_inequality_check is the one L_un path;
        # only people write config files; make_positive_pairs is the one view drawer;
        # a probe's kind is its type (LinearProbe, MLP3Probe); nt_xent returns a plain
        # (value, grad) pair
        with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
            getattr(simskip, name)

    def test_names_are_read_from_their_module_on_every_access(self, monkeypatch):
        # a wrapper swapped into a module and then restored never sticks in the package
        sentinel = object()
        monkeypatch.setattr(trainer, "train", sentinel)
        assert simskip.train is sentinel
        monkeypatch.undo()
        assert simskip.train is trainer.train
        assert "train" not in vars(simskip)
