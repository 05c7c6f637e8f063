"""simskip benchmark: one run of one workload, printing every metric.

    python3 benchmarks/run.py --workload train-narrow --seed 1 --seconds 30 --trace 0

Set-up runs gen-synth in a fresh interpreter a few times, and the child
(`pipeline.py`) runs it once more after each pipeline iteration, so that the
`setup_s` samples spread over the run. The pipeline runs in that one fresh
child process with pinned thread settings, one caller and no overlap.
`--trace 0` reports the end-to-end metrics and `--trace 1` the per-layer
ones. The last line of standard output is one JSON object; the exit code
is 0 only when every stage and correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spec import END_TO_END, PER_LAYER, WORKLOADS, Files

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
RUN_LIMIT_S = 170  # the whole run, set-up included, ends within this


def pin_environment() -> None:
    """Environment every child inherits: this checkout's package, pinned threads."""
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    # BLAS and OpenMP single-threaded; the kNN pool gets at most one thread per core
    os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
                      SIMSKIP_THREADS=str(min(2, len(os.sched_getaffinity(0)))))


def setup(w, seed: int, f: Files, failures: list) -> list[float]:
    """Fresh-interpreter gen-synth runs; each must exit 0 and write the same bytes."""
    times, blobs = [], set()
    for _ in range(SETUP_REPEATS):
        f.data.unlink(missing_ok=True)
        seconds, error = w.fresh_gen_synth(seed, f.data)
        times.append(seconds)
        if error:
            failures.append(error)
            break
        blobs.add(f.data.read_bytes())
    if len(blobs) > 1:
        failures.append("gen-synth wrote different bytes on repeated runs")
    return times


def finish(result: dict, setup_times: list[float], trace: bool) -> tuple[str, dict, int]:
    """Fold set-up into the child's result; return the report text, the final
    JSON object and the exit code."""
    ops = result["ops"]
    ops["attempted"] += len(setup_times) + 1   # each gen-synth run, plus the repeat check
    metrics = result["metrics"]
    result["setup_s_samples"] = setup_times + result.get("setup_s_samples", [])
    if trace:
        units = PER_LAYER
    else:
        units = END_TO_END
        metrics["setup_s"] = statistics.median(result["setup_s_samples"])
        metrics["ok_ops_share"] = (ops["attempted"] - ops["failed"]) / ops["attempted"]
    result["metrics"] = {name: metrics[name] for name in units}

    lines = [f"environment: {json.dumps(result['environment'], sort_keys=True)}",
             f"values: {json.dumps(result.get('values', {}), sort_keys=True)}"]
    spread = result.get("pipeline_s_spread")
    if spread:
        lines.append(f"pipeline_s: median {spread['median']:.4f} s, quartiles "
                     f"{spread['q1']:.4f}-{spread['q3']:.4f} s over {spread['n']} iterations")
    for name, value in result["metrics"].items():
        lines.append(f"{name:<52} {value:>14.6g} {units[name]}")
    lines.append(f"operations: {ops['attempted']} attempted, {ops['failed']} failed")
    lines += [f"FAILED: {e}" for e in ops["errors"]]
    final = {
        "correct": ops["failed"] == 0,
        "attempted": ops["attempted"],
        "failed": ops["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }
    return "\n".join(lines), final, 0 if ops["failed"] == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one simskip benchmark workload.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "simskip" / "__init__.py").is_file():
        print(f"error: no simskip package under {SRC}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    w = WORKLOADS[args.workload]
    f = Files(ROOT / ".bench_work" / w.name)
    shutil.rmtree(f.dir, ignore_errors=True)
    f.dir.mkdir(parents=True)
    pin_environment()

    failures: list[str] = []
    setup_times = setup(w, args.seed, f, failures)
    if failures:
        print("\n".join(f"FAILED: {e}" for e in failures), file=sys.stderr)
        return 1

    cmd = [sys.executable, str(BENCH_DIR / "pipeline.py"), "--workload", w.name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(f.dir)]
    timeout = RUN_LIMIT_S - (time.perf_counter() - started)
    with open(f.log, "w") as log:
        try:
            proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"error: pipeline did not finish within {RUN_LIMIT_S} s", file=sys.stderr)
            return 1
    if proc.returncode != 0 or not f.result.is_file():
        print(f"error: pipeline exited with {proc.returncode}; see {f.log}", file=sys.stderr)
        return 1

    result = json.loads(f.result.read_text())
    if "metrics" not in result:
        print(f"error: no pipeline iteration completed: {result['ops']['errors']}",
              file=sys.stderr)
        return 1
    text, final, code = finish(result, setup_times, bool(args.trace))
    f.result.write_text(json.dumps(result, indent=1))
    print(text)
    print(json.dumps(final))
    return code


if __name__ == "__main__":
    sys.exit(main())
