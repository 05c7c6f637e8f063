"""Spans and counters recorded around simskip's layer entry points.

A `Tracer` replaces selected functions with timing wrappers in every
`simskip.*` namespace that holds them (a function imported by name lives
on in the importing module too), records one span per call in memory, and
puts every original object back on `uninstall`. Nothing under `src/` is
edited: the wrappers are module attributes set from this file.

Run as a script to summarise a span dump written by the benchmark:

    python3 benchmarks/tracer.py .bench_work/<workload>/spans.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

# tag carried by every wrapper, so a stray one left in a namespace is found
WRAPPED_MARK = "__bench_wrapped__"


class Tracer:
    """In-memory span recorder.

    Spans are tuples (name, start, end, parent, run) indexed by their span
    id; `parent` is the id of the enclosing span or -1. Wrapped calls come
    from one thread (the pipeline's), so a plain stack gives the parent.
    """

    FIELDS = ("name", "start", "end", "parent", "run")

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.samples: dict[str, list] = defaultdict(list)
        self.keys: dict[str, list] = defaultdict(list)
        self.run = ""
        self._stack: list[int] = []
        self._patches: list = []

    # -- spans -----------------------------------------------------------

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), None, parent, self.run))
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, _, parent, run = self.spans[sid]
        self.spans[sid] = (name, start, end, parent, run)

    def timed(self, name: str, fn, before=None, after=None):
        """Wrapper recording a span named `name` around each call of `fn`.

        `before(args, kwargs)` may return a different span name (used to
        split one function by an argument); `after(args, kwargs, result)`
        records per-call samples. Both run outside the span.
        """
        def wrapper(*args, **kwargs):
            span_name = before(args, kwargs) if before else name
            sid = self.begin(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if after:
                after(args, kwargs, result)
            return result
        setattr(wrapper, WRAPPED_MARK, True)
        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn):
        """Wrapper that only counts calls, per run; for functions called once per row."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[(name, self.run)] += 1
            return fn(*args, **kwargs)
        setattr(wrapper, WRAPPED_MARK, True)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching --------------------------------------------------------

    def install(self, modules, targets) -> None:
        """Swap each target function for its wrapper in every module holding it.

        `targets` maps id(original) to (original, wrapper).
        """
        for module in modules:
            for attr, value in list(vars(module).items()):
                original, wrapper = targets.get(id(value), (None, None))
                if original is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> list[str]:
        """Restore every patched attribute; return those not restored."""
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        bad = [f"{m.__name__}.{a}" for m, a, o in self._patches if getattr(m, a) is not o]
        self._patches = []
        return bad

    def dump(self, path, meta: dict) -> None:
        payload = {"meta": meta, "fields": list(self.FIELDS), "spans": self.spans}
        with open(path, "w") as fh:
            json.dump(payload, fh)


def stray_wrappers(modules) -> list[str]:
    """Module attributes that still hold a benchmark wrapper."""
    return [f"{m.__name__}.{a}" for m in modules for a, v in vars(m).items()
            if getattr(v, WRAPPED_MARK, False)]


# ---------------------------------------------------------------------------
# arithmetic over spans


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of `intervals`."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part its child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent, run in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [end - start - covered(children.get(i, ()), start, end)
            for i, (name, start, end, parent, run) in enumerate(spans)]


def per_name(spans, runs=None) -> dict[str, dict]:
    """For each span name: per-run call counts, total and self seconds, and
    every call's duration pooled over runs."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for (name, start, end, parent, run), own in zip(spans, selfs):
        if runs is not None and run not in runs:
            continue
        entry = out.setdefault(name, {"calls": Counter(), "total_s": Counter(),
                                      "self_s": Counter(), "durations": []})
        entry["calls"][run] += 1
        entry["total_s"][run] += end - start
        entry["self_s"][run] += own
        entry["durations"].append(end - start)
    return out


def p90(values) -> float:
    """90th percentile. It has ten values beyond it only from 100 values on;
    the benchmark runs traced iterations until it has that many."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[-1]


# ---------------------------------------------------------------------------
# summariser


def summarise(payload: dict) -> str:
    spans = [tuple(s) for s in payload["spans"]]
    runs = sorted({s[4] for s in spans})
    stats = per_name(spans)
    layers = Counter()
    for name, entry in stats.items():
        layers[name.split(".")[0]] += sum(entry["self_s"].values())
    lines = [f"{len(spans)} spans over {len(runs)} run(s): {', '.join(runs)}",
             "", f"{'layer':<18}{'self s/run':>12}"]
    for layer, secs in layers.most_common():
        lines.append(f"{layer:<18}{secs / len(runs):>12.4f}")
    lines += ["", f"{'span':<44}{'calls/run':>10}{'total s/run':>13}{'self s/run':>12}"]
    for name, entry in sorted(stats.items(), key=lambda kv: -sum(kv[1]["self_s"].values())):
        lines.append(f"{name:<44}{sum(entry['calls'].values()) / len(runs):>10.1f}"
                     f"{sum(entry['total_s'].values()) / len(runs):>13.4f}"
                     f"{sum(entry['self_s'].values()) / len(runs):>12.4f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Print self time per layer from a span dump.")
    parser.add_argument("spans", help="spans.json written by a traced benchmark run")
    args = parser.parse_args(argv)
    with open(args.spans) as fh:
        print(summarise(json.load(fh)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
