"""Serving-layer fault storm (not a paper figure).

Drives the closed-loop load generator, a quarter of its requests
faulted, against servers of increasing worker count and records
requests/second, cache-hit rate and tail latency.  Every run also
re-verifies a sample of outcomes bit-identically against solo
execution, so the benchmark doubles as a concurrency soak under faults.
Clean serving throughput is measured by the wall-clock benchmark
(``benchmarks/wall``, workloads ``serve_closed`` and ``serve_open``).
"""

from time import perf_counter

from benchmarks.reporting import emit_table, ms
from repro.service import LoadSpec, ServerConfig, run_loadgen

STORM = LoadSpec(
    seed=11, tenants=4, requests=64, shapes=3, fault_rate=0.25,
    verify_sample=4,
)
WORKER_COUNTS = (1, 2, 4)


def _drive(spec: LoadSpec, workers: int):
    start = perf_counter()
    report = run_loadgen(spec, ServerConfig(workers=workers))
    elapsed = perf_counter() - start
    assert report.ok, report.summary()
    slo = report.server.slo()
    assert slo["served"] == spec.requests
    return elapsed, slo


def test_throughput_under_fault_storm(benchmark):
    """A 25% fault-storm workload still serves everything, recovering
    in place; the table records what the storm costs end to end."""
    rows = []
    for workers in WORKER_COUNTS:
        if workers == 2:
            elapsed, slo = benchmark.pedantic(
                lambda: _drive(STORM, 2), rounds=3, iterations=1
            )
        else:
            elapsed, slo = _drive(STORM, workers)
        lat = slo["latency_s"]["total"]
        rows.append(
            [
                workers,
                STORM.requests,
                f"{STORM.requests / elapsed:.0f}",
                f"{slo['cache_hit_rate']:.1%}",
                f"{ms(lat['p50']):.2f}",
                f"{ms(lat['p99']):.2f}",
            ]
        )
    emit_table(
        "service_fault_storm",
        "Serving-layer throughput under a 25% fault storm (seed=11)",
        ["workers", "requests", "req/s", "hit rate", "p50 ms", "p99 ms"],
        rows,
        notes="faulted requests recover resume-based (policy every=4) "
        "before falling back to the planner ladder",
    )
