"""Tests of the benchmark's own arithmetic, counters and checks."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import pipeline
import run
from spec import END_TO_END, PER_LAYER, WORKLOADS, Files, Workload
from tracer import Tracer, per_name, self_times, stray_wrappers

from simskip.cli import parse_and_run
from simskip.embedding_store import EmbeddingDataset, load_embeddings, save_embeddings
from simskip.synth_data import MixtureSpec, generate_gaussian_mixture

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def test_self_time_of_nested_spans():
    spans = [
        ("a", 0.0, 10.0, -1, "r"),
        ("b", 1.0, 4.0, 0, "r"),
        ("c", 3.0, 6.0, 0, "r"),    # overlaps b: a's children cover [1, 6]
        ("d", 2.0, 3.0, 1, "r"),    # grandchild of a, counted only against b
        ("e", 8.0, 12.0, 0, "r"),   # runs past a's end: only [8, 10] counts
        ("a", 20.0, 21.0, -1, "s"),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0, 1.0])
    stats = per_name(spans)
    assert stats["a"]["calls"] == {"r": 1, "s": 1}
    assert stats["a"]["self_s"]["r"] == pytest.approx(3.0)
    assert stats["a"]["total_s"]["s"] == pytest.approx(1.0)
    assert per_name(spans, runs={"s"}).keys() == {"a"}


def test_useful_ratios_on_r2_eval(tmp_path):
    original = generate_gaussian_mixture(MixtureSpec(num_classes=3, dim=4, points_per_class=20,
                                                     seed=3))
    paths = [tmp_path / n for n in ("orig.embf", "r1.embf", "r2.embf")]
    save_embeddings(original, paths[0])
    save_embeddings(EmbeddingDataset(2.0 * original.vectors, original.labels), paths[1])
    save_embeddings(EmbeddingDataset(original.vectors + 0.5, original.labels), paths[2])

    tracer = Tracer()
    targets, replays = pipeline.build_targets(tracer)
    tracer.run = "it0"
    tracer.install(pipeline.SIMSKIP_MODULES, targets)
    try:
        rc = parse_and_run(["eval", "--original", str(paths[0]), "--refined", str(paths[1]),
                            str(paths[2]), "--probe-epochs", "5", "--hidden-dim", "4",
                            "--report", str(tmp_path / "eval.json")])
    finally:
        left = tracer.uninstall()
    assert rc == 0
    assert left == [] and stray_wrappers(pipeline.SIMSKIP_MODULES) == []

    knn_keys = tracer.keys[("evaluate.knn", "it0")]
    assert len(knn_keys) == 8 and len(set(knn_keys)) == 3
    metrics = pipeline.layer_metrics(tracer, replays, ["it0"], overhead_s=0.0)
    assert metrics["evaluate.knn_same_label_score.calls"] == 8
    assert metrics["evaluate.knn.useful_ratio"] == 3 / 8
    # two probe kinds on three datasets: six distinct fits out of eight
    assert metrics["evaluate.train_probe.linear.calls"] == 4
    assert metrics["evaluate.train_probe.mlp3.calls"] == 4
    assert metrics["evaluate.probe.useful_ratio"] == 6 / 8
    assert metrics["evaluate.compare_embeddings.calls"] == 4
    assert metrics["evaluate.knn_same_label_score.peak_alloc_mb"] > 0
    assert set(metrics) == set(PER_LAYER)


def test_iteration_schedule():
    nxt = pipeline.next_iteration
    # untraced: at least three iterations, then only while time is left
    assert nxt(False, 0, 0, in_time=False, p90_calls=0) is False
    assert nxt(False, 3, 0, in_time=True, p90_calls=0) is False
    assert nxt(False, 3, 0, in_time=False, p90_calls=0) is None
    # traced: untraced and traced alternate, starting untraced
    assert [nxt(True, n, n // 2, in_time=True, p90_calls=0) for n in range(4)] == [
        False, True, False, True]
    # out of time: traced iterations top up the p90 sample, within a cap
    assert nxt(True, 4, 2, in_time=False, p90_calls=99) is True
    assert nxt(True, 4, 2, in_time=False, p90_calls=100) is None
    assert nxt(True, 20, pipeline.MAX_TRACED, in_time=False, p90_calls=0) is None


TINY = Workload("tiny", classes=2, per_class=16, dim=4, batch=8, epochs=1, eval_ablated=True,
                hidden_dim=4, triplets=20, k=1)


def test_failed_check_counts_and_exits_nonzero(tmp_path):
    f = Files(tmp_path)
    assert parse_and_run(TINY.gen_synth_args(1, f.data)) == 0
    train_cfg, ablate_cfg = TINY.configs(1)
    f.train_cfg.write_text(train_cfg)
    f.ablate_cfg.write_text(ablate_cfg)
    original = load_embeddings(f.data)

    ops = pipeline.Ops()
    assert pipeline.run_iteration(ops, TINY, 1, f, None, None, "it0") is not None
    pipeline.check_outputs(ops, f, original)
    assert ops.failed == 0 and ops.attempted > 0

    f.refined.write_bytes(f.refined.read_bytes()[:-3])   # truncated output
    pipeline.check_outputs(ops, f, original)
    assert ops.failed == 1
    assert "refined.embf does not load" in ops.errors[0]

    result = {"ops": ops.to_json(), "environment": {}, "values": {},
              "metrics": {"pipeline_s": 1.0, "peak_rss_mb": 50.0}}
    text, final, code = run.finish(result, [0.3] * 5, trace=False)
    assert code != 0
    assert final["correct"] is False and final["failed"] == 1
    share = final["metrics"]["ok_ops_share"]["value"]
    assert share == (final["attempted"] - 1) / final["attempted"] < 1.0
    assert "FAILED: refined.embf does not load" in text


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    bench = tmp_path / BENCH_DIR.name
    bench.mkdir()
    for p in BENCH_DIR.glob("*.py"):
        shutil.copy(p, bench)
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "train-narrow",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
