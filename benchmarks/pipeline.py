"""One measured run of one workload: the child process that `run.py` starts.

It runs the simskip CLI pipeline (refine, ablate, eval, theory) in process,
over and over on the set-up input, for about `--seconds` seconds, checks
every iteration's outputs, and writes `result.json` to the work directory.

Untraced (`--trace 0`) every iteration is plain and timed. Traced
(`--trace 1`) untraced and traced iterations alternate; a traced iteration
also runs gen-synth in process, and wraps the layer entry points listed in
`targets` for the length of the iteration only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

import numpy as np

import simskip
from simskip import (augment, cli, embedding_store, evaluate, losses, model, nn_core,
                     synth_data, theory, trainer)
from simskip.embedding_store import load_embeddings
from simskip.errors import SimSkipError
from simskip.evaluate import LINEAR
from simskip.model import load_checkpoint

from spec import PER_LAYER, WORKLOADS, Files
from tracer import Tracer, p90, per_name, stray_wrappers

MIN_ITERATIONS = 3       # the repeat checks need at least two reruns
MIN_TRACED_PAIRS = 2     # (untraced, traced) iteration pairs in a traced run
P90_SPANS = ("losses.nt_xent", "model.contrastive_loss_and_grads")
P90_SAMPLES = 100        # calls pooled over traced iterations: ten lie beyond the p90
MAX_TRACED = 12          # cap on traced iterations spent reaching P90_SAMPLES
PROBE_SLACK = 0.02       # refined linear-probe accuracy may trail the original by this

SIMSKIP_MODULES = [m for name, m in sorted(sys.modules.items())
                   if name == "simskip" or name.startswith("simskip.")]


class Ops:
    """Operations attempted and failed: stage invocations and checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok

    def to_json(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "errors": self.errors[:20]}


# ---------------------------------------------------------------------------
# tracing targets


def _content_key(dataset) -> str:
    h = hashlib.sha1(dataset.vectors.tobytes())
    if dataset.labels is not None:
        h.update(dataset.labels.tobytes())
    return h.hexdigest()


def build_targets(tracer: Tracer) -> tuple[dict, dict]:
    """Wrappers for every traced entry point, keyed by id of the original, and
    the arguments kept for replaying a call under tracemalloc."""
    replays: dict[str, tuple] = {}

    def nt_xent_after(args, kwargs, result):
        rows = args[0].shape[0]
        tracer.samples["losses.nt_xent.rows"].append(rows)
        if "nt_xent" not in replays or rows > replays["nt_xent"][0][0].shape[0]:
            replays["nt_xent"] = (args, kwargs)

    def knn_after(args, kwargs, result):
        tracer.keys[("evaluate.knn", tracer.run)].append(_content_key(args[0]))
        replays.setdefault("knn", (args, kwargs))

    def probe_cfg(args, kwargs):
        return args[1] if len(args) > 1 else kwargs.get("cfg")

    def probe_name(args, kwargs):
        cfg = probe_cfg(args, kwargs)
        return f"evaluate.train_probe.{cfg.kind if cfg else LINEAR}"

    def probe_after(args, kwargs, result):
        key = (_content_key(args[0]), repr(probe_cfg(args, kwargs)))
        tracer.keys[("evaluate.probe", tracer.run)].append(key)

    def checkpoint_after(args, kwargs, result):
        path = args[1] if len(args) > 1 else kwargs["path"]
        tracer.samples["model.save_checkpoint.bytes"].append(os.path.getsize(path))

    timed = {
        losses: ["nt_xent"],
        trainer: ["train", "adam_step"],
        model: ["encoder_forward", "encoder_backward", "projector_forward",
                "projector_backward", "refine", "contrastive_loss_and_grads",
                "save_checkpoint"],
        nn_core: [f"{layer}_{op}" for layer in ("linear", "batchnorm", "relu", "dropout")
                  for op in ("apply", "backward")],
        augment: ["make_positive_pairs"],
        evaluate: ["compare_embeddings", "knn_same_label_score", "train_probe"],
        theory: ["sample_triplets", "triplet_margins", "bound_report",
                 "skip_inequality_check"],
        embedding_store: ["load_embeddings", "save_embeddings", "dataset_fingerprint"],
        synth_data: ["generate_gaussian_mixture", "apply_class_mixing"],
    }
    hooks = {
        "losses.nt_xent": (None, nt_xent_after),
        "evaluate.knn_same_label_score": (None, knn_after),
        "evaluate.train_probe": (probe_name, probe_after),
        "model.save_checkpoint": (None, checkpoint_after),
    }
    targets = {}
    for module, funcs in timed.items():
        layer = module.__name__.rsplit(".", 1)[1]
        for func in funcs:
            name = f"{layer}.{func}"
            original = getattr(module, func)
            before, after = hooks.get(name, (None, None))
            targets[id(original)] = (original, tracer.timed(name, original, before, after))
    # called once per triplet row: counted, not timed
    original = losses.logistic_loss
    targets[id(original)] = (original, tracer.counted("losses.logistic_loss", original))
    return targets, replays


def peak_alloc_mb(fn, args, kwargs) -> float:
    """Peak traced allocation of one replayed call, with tracemalloc on only around it."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def layer_metrics(tracer: Tracer, replays: dict, runs: list[str], overhead_s: float) -> dict:
    stats = per_name(tracer.spans, set(runs))

    def med(name, field):
        entry = stats.get(name)
        return statistics.median(entry[field][r] if entry else 0 for r in runs)

    def pct(name, q):
        durations = stats[name]["durations"] if name in stats else []
        if not durations:
            return 0.0
        return 1e3 * (statistics.median(durations) if q == 50 else p90(durations))

    def ratio(layer):
        values = []
        for r in runs:
            keys = tracer.keys.get((layer, r), [])
            values.append(len(set(keys)) / len(keys) if keys else 0.0)
        return statistics.median(values)

    replayed = {"losses.nt_xent.peak_alloc_mb": (losses.nt_xent, "nt_xent"),
                "evaluate.knn_same_label_score.peak_alloc_mb":
                    (evaluate.knn_same_label_score, "knn")}
    out = {}
    for metric in PER_LAYER:
        name, stat = metric.rsplit(".", 1)
        if stat in ("calls", "total_s", "self_s", "wall_s"):
            field = "total_s" if stat == "wall_s" else stat
            if name == "losses.logistic_loss":
                value = statistics.median(tracer.counts[(name, r)] for r in runs)
            else:
                value = med(name, field)
        elif stat in ("p50_ms", "p90_ms"):
            value = pct(name, 50 if stat == "p50_ms" else 90)
        elif stat == "peak_alloc_mb":
            fn, key = replayed[metric]
            value = peak_alloc_mb(fn, *replays[key]) if key in replays else 0.0
        elif stat in ("rows", "bytes"):
            value = max(tracer.samples.get(metric) or [0])
        elif stat == "useful_ratio":
            value = ratio(name)
        elif metric == "trace.overhead_s":
            value = overhead_s
        else:
            raise KeyError(metric)
        out[metric] = value
    return out


# ---------------------------------------------------------------------------
# one iteration


def run_stage(ops: Ops, name: str, argv: list[str], tracer: Tracer | None) -> bool:
    sid = tracer.begin(f"cli.{name}") if tracer else None
    try:
        rc = cli.parse_and_run(argv)
    except Exception:  # a crash in the program is a failed operation, not a benchmark crash
        rc = traceback.format_exc()
    finally:
        if tracer:
            tracer.end(sid)
    return ops.check(rc == 0, f"{name} exited with {rc}")


def digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes() if Path(p).is_file() else b"<missing>")
    return h.hexdigest()


def _load(ops: Ops, loader, path):
    """Load one output; a file that does not load is a failed check."""
    try:
        value = loader(path)
    except (SimSkipError, OSError, ValueError) as exc:
        ops.check(False, f"{path.name} does not load: {exc}")
        return None
    ops.check(True, "")
    return value


def check_outputs(ops: Ops, f: Files, original) -> dict:
    """Load every output and check its content; return the recorded values."""
    loaded = {p: _load(ops, load_embeddings, p) for p in (f.refined, f.ablated)}
    _load(ops, load_checkpoint, f.checkpoint)
    reports = {p: _load(ops, lambda p: json.loads(p.read_text()), p)
               for p in (f.train_report, f.ablate_report, f.eval_report, f.theory_report)}

    for path, ds in loaded.items():
        if ds is None:
            continue
        ok = (ds.vectors.shape == original.vectors.shape
              and bool(np.all(np.isfinite(ds.vectors)))
              and np.array_equal(ds.labels, original.labels))
        ops.check(ok, f"{path.name}: not finite, or shape/labels differ from the input")

    values = {}
    ev = reports.get(f.eval_report)
    if ev is not None:
        skip = ev["refined"][0]
        ops.check(skip["probe_accuracy"] >= ev["original"]["probe_accuracy"] - PROBE_SLACK,
                  f"skip-path probe accuracy {skip['probe_accuracy']} below original "
                  f"{ev['original']['probe_accuracy']} - {PROBE_SLACK}")
        values["probe_delta"] = skip["deltas"]["probe_accuracy"]
        values["knn_delta"] = skip["deltas"]["knn_score"]
    if reports[f.train_report] is not None:
        values["final_loss"] = reports[f.train_report]["final_loss"]
    return values


def run_iteration(ops, w, seed, f: Files, tracer: Tracer | None, targets, label: str):
    """Run the pipeline once; return its timings, or None when a stage failed."""
    stages = {}
    if tracer:
        tracer.run = label
        tracer.install(SIMSKIP_MODULES, targets)
    else:
        left = stray_wrappers(SIMSKIP_MODULES)
        ops.check(not left, f"untraced iteration would run with wrappers: {left}")
    try:
        if tracer:
            t0 = time.perf_counter()
            ok = run_stage(ops, "gen_synth", w.gen_synth_args(seed, f.regenerated), tracer)
            stages["gen_synth"] = time.perf_counter() - t0
            if not ok:
                return None
        start = time.perf_counter()
        for name, argv in w.stage_args(seed, f):
            t0 = time.perf_counter()
            if not run_stage(ops, name, argv, tracer):
                return None
            stages[name] = time.perf_counter() - t0
        pipeline_s = time.perf_counter() - start
    finally:
        if tracer:
            left = tracer.uninstall()
            ops.check(not left, f"wrappers not restored: {left}")
    if tracer:
        ops.check(f.regenerated.read_bytes() == f.data.read_bytes(),
                  "in-process gen-synth output differs from the set-up input")
    return {"label": label, "traced": tracer is not None, "pipeline_s": pipeline_s,
            "stages": stages}


# ---------------------------------------------------------------------------
# the run


def p90_samples(tracer: Tracer) -> dict[str, int]:
    return {name: sum(1 for s in tracer.spans if s[0] == name) for name in P90_SPANS}


def next_iteration(trace: bool, done: int, traced: int, in_time: bool, p90_calls: int):
    """Whether the next iteration is traced, or None when the run is over."""
    if not trace:
        return False if done < MIN_ITERATIONS or in_time else None
    if done < 2 * MIN_TRACED_PAIRS or in_time:
        return done % 2 == 1              # untraced and traced alternate
    if p90_calls < P90_SAMPLES and traced < MAX_TRACED:
        return True                       # top up the pooled p90 sample
    return None


def run(w, seed: int, seconds: float, trace: bool, f: Files) -> dict:
    ops = Ops()
    train_cfg, ablate_cfg = w.configs(seed)
    f.train_cfg.write_text(train_cfg)
    f.ablate_cfg.write_text(ablate_cfg)
    original = load_embeddings(f.data)
    data = f.data.read_bytes()
    setup_times: list[float] = []
    tracer = Tracer() if trace else None
    targets, replays = build_targets(tracer) if trace else (None, None)

    iterations: list[dict] = []
    reference = None
    values: dict = {}
    start = time.perf_counter()
    walls: list[float] = []
    while True:
        elapsed = time.perf_counter() - start
        in_time = not walls or elapsed + statistics.median(walls) <= seconds
        p90_calls = min(p90_samples(tracer).values()) if trace else 0
        trace_next = next_iteration(trace, len(iterations),
                                    sum(it["traced"] for it in iterations), in_time, p90_calls)
        if trace_next is None:
            break
        t0 = time.perf_counter()
        it = run_iteration(ops, w, seed, f, tracer if trace_next else None, targets,
                           f"it{len(iterations)}")
        if it is None:
            break
        if not iterations:
            # the first iteration's peak, before any check loads outputs: later
            # iterations add only allocator fragmentation, which varies run to run
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = check_outputs(ops, f, original)
        # one set-up sample per iteration, outside the pipeline's timing
        setup_s, error = w.fresh_gen_synth(seed, f.regenerated)
        setup_times.append(setup_s)
        ops.check(error is None and f.regenerated.read_bytes() == data,
                  error or "fresh gen-synth output differs from the set-up input")
        d = digest(f.outputs())
        if reference is None:
            reference = d
        else:
            ops.check(d == reference, f"{it['label']}: outputs differ from the first iteration")
        iterations.append(it)
        walls.append(time.perf_counter() - t0)

    plain = [it["pipeline_s"] for it in iterations if not it["traced"]]
    traced = [it for it in iterations if it["traced"]]
    result = {"ops": ops.to_json(), "values": values, "iterations": iterations,
              "setup_s_samples": setup_times}
    if not plain or (trace and not traced):
        return result
    if trace:
        overhead = (statistics.median(it["pipeline_s"] for it in traced)
                    - statistics.median(plain))
        result["metrics"] = layer_metrics(tracer, replays, [it["label"] for it in traced], overhead)
        result["p90_samples"] = p90_samples(tracer)
        tracer.dump(f.spans, {"workload": w.name, "seed": seed})
    else:
        q = statistics.quantiles(plain, n=4) if len(plain) > 1 else [plain[0]] * 3
        result["pipeline_s_spread"] = {"median": statistics.median(plain), "q1": q[0],
                                       "q3": q[2], "n": len(plain)}
        result["metrics"] = {
            "pipeline_s": statistics.median(plain),
            "peak_rss_mb": peak_rss_mb,
        }
    return result


def environment(seed: int, src: Path) -> dict:
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        cpu = platform.processor()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    loc = sum(1 for p in sorted((src / "simskip").rglob("*.py"))
              for line in p.read_text().splitlines() if line.strip())
    return {
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                     "SIMSKIP_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "seed": seed,
        "simskip_source_lines": loc,
        "simskip_path": str(Path(simskip.__file__).parent),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    f = Files(args.workdir)
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), f)
    result["environment"] = environment(args.seed, Path(simskip.__file__).parent.parent)
    f.result.write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
