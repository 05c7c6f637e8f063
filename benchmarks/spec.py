"""Workload shapes and metric names shared by the benchmark's processes.

`run.py` imports this without loading numpy or simskip.
"""

from __future__ import annotations

import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# share of each row blended with a random row, degrading class structure so
# that refinement has something to recover
MIX_STRENGTH = 0.4
# Eval holds out half the rows. The probe check compares the accuracy of the
# original and the refined embedding on these rows. With the CLI's default 20%
# held out, one row is 0.3-0.5% of accuracy. Refinement moves the accuracy by a
# few rows either way from seed to seed, centred on zero. A 0.02 gate then
# tripped on one row of noise, at one seed in forty.
EVAL_TRAIN_FRACTION = 0.5

# what the installed `simskip` console script does
ENTRY_POINT = "import sys; from simskip.cli import main; sys.argv[0] = 'simskip'; main()"


@dataclass(frozen=True)
class Workload:
    name: str
    classes: int
    per_class: int
    dim: int
    batch: int
    epochs: int             # refine; ablate runs one epoch, to cover the no-skip path
    eval_ablated: bool      # eval on R=2 refined files (skip and no-skip), else R=1
    hidden_dim: int         # mlp3 probe width
    triplets: int
    k: int

    def gen_synth_args(self, seed: int, out) -> list[str]:
        return ["gen-synth", "--classes", str(self.classes), "--dim", str(self.dim),
                "--per-class", str(self.per_class), "--seed", str(seed),
                "--mix-strength", str(MIX_STRENGTH), "--out", str(out)]

    def fresh_gen_synth(self, seed: int, out) -> tuple[float, str | None]:
        """Run gen-synth in a fresh interpreter, the way a user starts it.

        Returns the wall time and, when it did not exit 0, an error message.
        """
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", ENTRY_POINT,
                               *self.gen_synth_args(seed, out)],
                              capture_output=True, text=True, timeout=60)
        seconds = time.perf_counter() - t0
        if proc.returncode != 0:
            return seconds, f"gen-synth exited with {proc.returncode}: {proc.stderr.strip()}"
        return seconds, None

    def stage_args(self, seed: int, f: "Files") -> list[tuple[str, list[str]]]:
        """The pipeline after set-up, as (stage, simskip argv) in run order."""
        refined = [str(f.refined)] + ([str(f.ablated)] if self.eval_ablated else [])
        return [
            ("refine", ["refine", "--in", str(f.data), "--config", str(f.train_cfg),
                        "--out", str(f.refined), "--checkpoint", str(f.checkpoint),
                        "--report", str(f.train_report)]),
            ("ablate", ["ablate", "--in", str(f.data), "--config", str(f.ablate_cfg),
                        "--out", str(f.ablated), "--report", str(f.ablate_report)]),
            ("eval", ["eval", "--original", str(f.data), "--refined", *refined,
                      "--hidden-dim", str(self.hidden_dim),
                      "--train-fraction", str(EVAL_TRAIN_FRACTION),
                      "--report", str(f.eval_report)]),
            ("theory", ["theory", "--in", str(f.refined), "--triplets", str(self.triplets),
                        "--k", str(self.k), "--seed", str(seed),
                        "--report", str(f.theory_report)]),
        ]

    def configs(self, seed: int) -> tuple[str, str]:
        """Train config text for `refine` and for `ablate`."""
        return tuple(f"batch_size = {self.batch}\nepochs = {epochs}\nseed = {seed}\n"
                     for epochs in (self.epochs, 1))


class Files:
    """Paths of one run's inputs and outputs inside its work directory."""

    def __init__(self, workdir):
        d = Path(workdir)
        self.dir = d
        self.data = d / "data.embf"
        self.regenerated = d / "regenerated.embf"
        self.train_cfg = d / "train.cfg"
        self.ablate_cfg = d / "ablate.cfg"
        self.refined = d / "refined.embf"
        self.checkpoint = d / "refined.sskp"
        self.train_report = d / "train.json"
        self.ablated = d / "ablated.embf"
        self.ablate_report = d / "ablate.json"
        self.eval_report = d / "eval.json"
        self.theory_report = d / "theory.json"
        self.result = d / "result.json"
        self.spans = d / "spans.json"
        self.log = d / "child.log"

    def outputs(self) -> list[Path]:
        """Every file the pipeline writes; rerunning must reproduce them byte for byte."""
        return [self.refined, self.checkpoint, self.train_report, self.ablated,
                self.ablate_report, self.eval_report, self.theory_report]


# Each workload loads one hot spot; see README.md for the reasons.
WORKLOADS = {w.name: w for w in (
    # nt_xent over a 1024 x 1024 similarity matrix dominates each step
    Workload("train-narrow", classes=4, per_class=256, dim=16, batch=512, epochs=25,
             eval_ablated=False, hidden_dim=64, triplets=1000, k=1),
    # d x d linear layers and Adam dominate; nt_xent is small at 2B = 128
    Workload("train-wide", classes=4, per_class=128, dim=768, batch=64, epochs=2,
             eval_ablated=False, hidden_dim=16, triplets=1000, k=1),
    # kNN and probe fits over R=2 refined files, then per-row theory loops
    Workload("eval-theory", classes=8, per_class=200, dim=32, batch=64, epochs=1,
             eval_ablated=True, hidden_dim=16, triplets=10000, k=4),
)}

# metric name -> unit, reported with --trace 0
END_TO_END = {
    "pipeline_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ops_share": "ratio",
}


def _layer_metrics() -> dict[str, str]:
    units = {"calls": "count", "total_s": "s", "self_s": "s", "wall_s": "s",
             "p50_ms": "ms", "p90_ms": "ms", "rows": "count", "peak_alloc_mb": "MB",
             "bytes": "bytes", "useful_ratio": "ratio", "overhead_s": "s"}
    names = [f"cli.{s}.wall_s" for s in ("gen_synth", "refine", "ablate", "eval", "theory")]
    names += [f"cli.{s}.self_s" for s in ("refine", "eval", "theory")]
    names += [f"losses.nt_xent.{s}" for s in
              ("calls", "total_s", "p50_ms", "p90_ms", "rows", "peak_alloc_mb")]
    names += ["losses.logistic_loss.calls"]
    names += ["trainer.train.calls", "trainer.train.self_s"]
    names += [f"trainer.adam_step.{s}" for s in ("calls", "total_s", "p50_ms")]
    names += [f"model.{f}.total_s" for f in ("encoder_forward", "encoder_backward",
                                             "projector_forward", "projector_backward",
                                             "refine")]
    names += [f"model.contrastive_loss_and_grads.{s}" for s in
              ("calls", "total_s", "self_s", "p50_ms", "p90_ms")]
    names += ["model.save_checkpoint.total_s", "model.save_checkpoint.bytes"]
    names += [f"nn_core.{layer}_{op}.{s}" for layer in ("linear", "batchnorm", "relu", "dropout")
              for op in ("apply", "backward") for s in ("calls", "total_s")]
    names += ["augment.make_positive_pairs.calls", "augment.make_positive_pairs.total_s"]
    names += [f"evaluate.compare_embeddings.{s}" for s in ("calls", "total_s", "self_s")]
    names += [f"evaluate.knn_same_label_score.{s}" for s in
              ("calls", "total_s", "p50_ms", "peak_alloc_mb")]
    names += [f"evaluate.train_probe.{kind}.{s}" for kind in ("linear", "mlp3")
              for s in ("calls", "total_s")]
    names += ["evaluate.knn.useful_ratio", "evaluate.probe.useful_ratio"]
    names += [f"theory.{f}.total_s" for f in ("sample_triplets", "triplet_margins",
                                              "bound_report")]
    names += ["theory.skip_inequality_check.total_s", "theory.skip_inequality_check.self_s"]
    names += [f"embedding_store.{f}.{s}" for f in ("load_embeddings", "save_embeddings",
                                                   "dataset_fingerprint")
              for s in ("calls", "total_s")]
    names += [f"synth_data.{f}.total_s" for f in ("generate_gaussian_mixture",
                                                  "apply_class_mixing")]
    names += ["trace.overhead_s"]
    return {n: units[n.rsplit(".", 1)[1]] for n in names}


# metric name -> unit, reported with --trace 1
PER_LAYER = _layer_metrics()
