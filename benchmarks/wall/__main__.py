"""``python -m benchmarks.wall run|trace|compare`` — see README.md."""

from __future__ import annotations

import argparse
import json
import sys

from benchmarks.wall import compare, runner, spec
from benchmarks.wall.stats import highest_supported

QUICK_SECONDS = 1.0


def seconds_of(args) -> float:
    return QUICK_SECONDS if args.quick else spec.run_seconds()


def write(path, doc: dict) -> None:
    if path:
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")


def measured(name: str, args, seconds: float) -> dict:
    """One untraced measurement of ``name``; a workload the host-noise
    guard flagged is measured once more and the second result kept, so
    that a passing disturbance does not end up in a result set."""
    result = runner.one_run(name, args.seed, seconds, False, args.quick)
    if result["noisy"]:
        print(f"{name}: host drifted during the run, measuring once more", file=sys.stderr)
        result = runner.one_run(name, args.seed, seconds, False, args.quick)
    return result


def cmd_run(args) -> int:
    """Every workload, each in fresh processes, tracing off."""
    doc = {"kind": "run", "seed": args.seed, "seconds": seconds_of(args), "workloads": {}}
    status = 0
    for name in spec.workloads():
        try:
            result = measured(name, args, doc["seconds"])
        except runner.RunFailed as exc:
            print(f"{name}: FAILED\n{exc}", file=sys.stderr)
            status = 1
            continue
        doc["workloads"][name] = result
        samples = result["samples"]
        print(f"{name}  ({result['attempted']} attempted, {samples} timed"
              f"{', NOISY HOST' if result['noisy'] else ''})")
        for metric, entry in result["metrics"].items():
            note = f"  (n={samples})" if metric == "latency_p50_ms" else ""
            print(f"  {metric:18s} {entry['value']:12.4f} {entry['unit']}{note}")
        highest = highest_supported(samples)
        print(f"  {'latency_p95_ms':18s} {result['latency_p95_ms']:12.4f} ms  (n={samples}; "
              "reported, not gated; highest percentile with 10 samples beyond it: "
              f"{'none' if highest is None else f'p{highest:g}'})")
        print(f"  {'error_rate':18s} {result['error_rate']:12.4f} fraction")
        for kernel, ms in result["calibration"]["after"].items():
            print(f"  {kernel:18s} {ms:12.4f} ms")
        for error in result["errors"]:
            print(f"  incorrect: {error}")
        if result["failed"]:
            status = 1
    write(args.out, doc)
    return status


def cmd_trace(args) -> int:
    """The separate traced run: per-layer metrics, one span file per
    workload.  Each workload is the focus of one process; a metric is
    reported from the process whose focus produced it."""
    doc = {"kind": "trace", "seed": args.seed, "seconds": seconds_of(args),
           "per_layer": {}, "workloads": {}}
    status = 0
    for name in spec.workloads():
        try:
            result = runner.one_run(name, args.seed, doc["seconds"], True, args.quick)
        except runner.RunFailed as exc:
            print(f"{name}: FAILED\n{exc}", file=sys.stderr)
            status = 1
            continue
        doc["workloads"][name] = {
            key: result[key]
            for key in ("attempted", "failed", "errors", "self_time_ms", "diagnostics")
        }
        print(f"{name}  (spans: benchmarks/wall/out/trace_{name}.json)")
        for metric in result["produced"][name]:
            entry = result["metrics"][metric]
            doc["per_layer"][metric] = {**entry, "from": name}
            print(f"  {metric:42s} {entry['value']:14.4f} {entry['unit']}")
        print("  self time per span (median ms): " + ", ".join(
            f"{span}={ms:.3f}" for span, ms in result["self_time_ms"].items()))
        for label, values in result["diagnostics"].items():
            print(f"  {label}: " + ", ".join(f"{k}={v:.3f}" for k, v in values.items()))
        if result["failed"]:
            status = 1
    write(args.out, doc)
    return status


def cmd_compare(args) -> int:
    with open(args.base) as fh:
        base = json.load(fh)
    with open(args.new) as fh:
        new = json.load(fh)
    try:
        table = compare.rows(base, new)
    except ValueError as exc:
        print(f"cannot compare: {exc}", file=sys.stderr)
        return 3
    print(compare.render(table))
    return compare.exit_code(table)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.wall", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in (("run", cmd_run), ("trace", cmd_trace)):
        p = sub.add_parser(name, help=handler.__doc__.splitlines()[0])
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--out", help="write the results to this JSON file")
        p.add_argument("--quick", action="store_true",
                       help="about a second per workload, one set-up, least probe effort")
        p.set_defaults(handler=handler)
    p = sub.add_parser("compare", help="judge result set B against A by the bounds")
    p.add_argument("base", help="A: results of `run --out`")
    p.add_argument("new", help="B: results of `run --out`")
    p.set_defaults(handler=cmd_compare)
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
