import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import simskip
from simskip.cli import parse_and_run
from simskip.embedding_store import load_embeddings


def run(argv):
    return parse_and_run([str(a) for a in argv])


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
        csv_out = tmp_path / "eval.csv"
        assert run(["eval", "--original", synth_file, "--refined", refined,
                    "--report", eval_report, "--csv", csv_out, "--knn-k", 5]) == 0
        payload = json.loads(eval_report.read_text())
        assert "deltas" in payload["refined"][0]
        assert "knn_score" in payload["refined"][0]["deltas"]
        # the other probe kind rides along in the report
        assert payload["refined"][0]["secondary_probe"]["kind"] == "mlp3"
        assert csv_out.read_text().startswith("path,orig_knn")

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

    def test_ablate_tags_report(self, tmp_path, synth_file, train_cfg):
        refined = tmp_path / "ab.embf"
        report = tmp_path / "ab.json"
        assert run(["ablate", "--in", synth_file, "--config", train_cfg,
                    "--out", refined, "--report", report]) == 0
        payload = json.loads(report.read_text())
        assert payload["variant"] == "simskip-minus"
        assert payload["config"]["skip_enabled"] is False

    def test_lr_sweep_reports_grid(self, tmp_path, synth_file):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("epochs = 2\nbatch_size = 32\nseed = 1\n")
        report = tmp_path / "sweep.json"
        assert run(["refine", "--in", synth_file, "--config", cfg, "--lr-sweep",
                    "--out", tmp_path / "s.embf", "--report", report]) == 0
        payload = json.loads(report.read_text())
        assert len(payload["lr_sweep_final_losses"]) == 4
        best = min(payload["lr_sweep_final_losses"].values())
        assert payload["final_loss"] == best

    def test_eval_multiple_refined(self, tmp_path, synth_file, train_cfg):
        r1, r2 = tmp_path / "r1.embf", tmp_path / "r2.embf"
        for out in (r1, r2):
            assert run(["refine", "--in", synth_file, "--config", train_cfg,
                        "--out", out]) == 0
        report = tmp_path / "multi.json"
        assert run(["eval", "--original", synth_file, "--refined", r1, r2,
                    "--report", report, "--knn-k", 5]) == 0
        payload = json.loads(report.read_text())
        assert len(payload["refined"]) == 2


class TestTheoryCommand:
    def test_report_fields(self, tmp_path, synth_file):
        report = tmp_path / "bound.json"
        assert run(["theory", "--in", synth_file, "--triplets", 200,
                    "--k", 1, "--seed", 2, "--report", report]) == 0
        payload = json.loads(report.read_text())
        for key in ("nonneg_margin_fraction", "L_un_identity", "L_un_doubled",
                    "holds", "gen_m", "bound_rhs", "config"):
            assert key in payload


class TestAugmentCommand:
    def test_preview(self, tmp_path, synth_file):
        report = tmp_path / "aug.json"
        assert run(["augment", "--in", synth_file, "--kind", "mask",
                    "--mask-prob", 0.5, "--rows", 2, "--seed", 4,
                    "--report", report]) == 0
        payload = json.loads(report.read_text())
        assert len(payload["previews"]) == 2
        assert len(payload["previews"][0]["view_a"]) == 8


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
        assert payload["weight_parameter_counts"]["encoder_layer1"] == 8 * 4


class TestErrorPaths:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_corrupt_embf_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.embf"
        bad.write_bytes(b"NOPE" + b"\x00" * 20)
        assert run(["inspect", "--in", bad]) == 1
        assert "magic" in capsys.readouterr().err

    def test_bad_config_exits_one(self, tmp_path, synth_file, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not_a_key = 1\n")
        assert run(["refine", "--in", synth_file, "--config", cfg,
                    "--out", tmp_path / "r.embf"]) == 1

    def test_console_entry_point(self, tmp_path):
        out = tmp_path / "cli.embf"
        # the child imports the same package as this process, installed or not
        package_root = str(Path(simskip.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (package_root, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-m", "simskip.cli", "gen-synth", "--classes", "2",
             "--dim", "4", "--per-class", "5", "--seed", "0", "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert load_embeddings(out).count == 10
