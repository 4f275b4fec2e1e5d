"""The workload process: set up, measure, check, print one JSON line.

Started fresh by :mod:`benchmarks.wall.runner` for every measurement, so
that ``setup_s`` and ``peak_rss_mb`` are those of one workload alone.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from benchmarks.wall import host
from benchmarks.wall.paths import OUT
from benchmarks.wall.spans import NULL_TRACER, Tracer
from benchmarks.wall.stats import median, percentile
from benchmarks.wall.workloads import FULL, QUICK, REGISTRY, create

#: Length (seconds) of the parts an untraced window is cut into (see
#: :func:`measure`).
SLICE_S = 1.0
#: Window (seconds) of a workload that is not the traced run's focus.
QUICK_WINDOW_S = 0.6


def ready(name: str, seed: int):
    workload = create(name, seed)
    workload.setup()
    workload.warmup()
    return workload


def measure(workload, seconds: float) -> dict:
    """The untraced run: every end-to-end metric but ``setup_s``.

    The window is cut into parts of ``SLICE_S`` and each timing metric
    is that of the **best part**.  This host runs the same code 10-40 %
    slower for seconds to minutes at a time (neighbours of the virtual
    machine; the process's own steal time stays 0), which says nothing
    about the program, while a real slow-down slows every part.  Ten
    seeds of one workload spread two to three times wider on the median
    over the parts, and wider on fewer, longer parts (README.md, "Why
    the best part", has the table).  ``latency_p95_ms`` (reported, not
    gated) pools all parts.
    """
    count = max(1, round(seconds / SLICE_S))
    before = host.calibrate()
    parts = [workload.window(seconds / count, NULL_TRACER) for _ in range(count)]
    after = host.calibrate()
    latencies = [t for part in parts for t in part.latencies]
    doc = account(*parts)
    doc["samples"] = len(latencies)
    doc["calibration"] = {"before": before, "after": after}
    doc["noisy"] = host.drifted(before, after)
    done = [part for part in parts if part.completed]
    if done:
        doc["metrics"] = {
            "throughput_ops_s": max(p.completed / p.wall_s for p in done),
            "latency_p50_ms": min(median(p.latencies) for p in done) * 1e3,
            "cpu_ms_per_op": min(p.cpu_s * 1e3 / p.completed for p in done),
        }
        doc["latency_p95_ms"] = percentile(latencies, 95) * 1e3
    return doc


def account(*windows) -> dict:
    return {
        "attempted": sum(w.attempted for w in windows),
        "failed": sum(w.failed for w in windows),
        "errors": [e for w in windows for e in w.errors][:5],
    }


def dissect(focus, seconds: float, quick: bool) -> dict:
    """The traced run: every per-layer metric.

    Each workload runs an untraced and a traced window and then its
    layer probes; ``focus`` (already set up) gets ``seconds`` and the
    full probe effort, the other six a short window and the quick one.
    Only the focus workload's spans are written out.
    """
    metrics = dict(host.calibrate())
    produced = {focus.name: list(metrics)}
    windows = []
    self_ms = {}
    # The focus goes first, so that what its set-up started is closed
    # whatever happens to the other six.
    for name in sorted(REGISTRY, key=lambda n: n != focus.name):
        focused = name == focus.name
        workload = focus if focused else ready(name, focus.seed)
        try:
            window_s = seconds / 2 if focused else QUICK_WINDOW_S
            untraced = workload.window(window_s, NULL_TRACER)
            tracer = Tracer()
            traced = workload.window(window_s, tracer)
            windows += [untraced, traced]
            if not (untraced.latencies and traced.latencies):
                continue  # every operation failed; reported through `failed`
            effort = FULL if focused and not quick else QUICK
            layers = workload.layers(traced, untraced, tracer, effort)
            layers[f"bench.trace_overhead_frac.{name}"] = (
                median(traced.latencies) / median(untraced.latencies) - 1.0
            )
            metrics.update(layers)
            produced.setdefault(name, []).extend(layers)
            if focused:
                OUT.mkdir(exist_ok=True)
                tracer.dump(OUT / f"trace_{name}.json")
                self_ms = {
                    span: median(times) * 1e3
                    for span, times in sorted(tracer.self_times().items())
                }
        finally:
            workload.close()
    doc = account(*windows)
    doc["metrics"] = metrics
    doc["produced"] = produced
    doc["self_time_ms"] = self_ms
    doc["diagnostics"] = focus.diagnostics
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.wall.child")
    parser.add_argument("--workload", required=True, choices=list(REGISTRY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="0 = set up, report setup_s and exit")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--t0", type=float, required=True,
                        help="time.time() just before this process was started")
    args = parser.parse_args(argv)

    workload = ready(args.workload, args.seed)
    setup_s = time.time() - args.t0
    if args.trace:
        doc = dissect(workload, args.seconds, args.quick)
    else:
        try:
            doc = measure(workload, args.seconds) if args.seconds else {}
        finally:
            workload.close()
        doc.setdefault("metrics", {})["setup_s"] = setup_s
        doc["metrics"]["peak_rss_mb"] = host.peak_rss_mb()
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
