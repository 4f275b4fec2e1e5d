"""``compile_miss``: cache-miss compiles into a disk-backed plan cache.

Why: here ``transpose`` (planner and algorithms moving real numpy
blocks), ``plans.recorder`` and ``plans.ir`` serialisation dominate and
replay is never called — the workload on which a replay-only
optimisation must show *no change*, and where work moved from replay
time into compile time (lowering at cache insert) becomes visible.
"""

from __future__ import annotations

import random
import shutil
import tempfile

from benchmarks.wall import adapter as A
from benchmarks.wall import expected
from benchmarks.wall.paths import OUT
from benchmarks.wall.stats import median
from benchmarks.wall.workloads import Workload, probe, span_median
from benchmarks.wall.workloads.fixtures import capture, cm_problem, compiled

ALGORITHMS = ("mpt", "dpt", "spt")


class CompileMiss(Workload):
    name = "compile_miss"

    def setup(self) -> None:
        self.params, self.before = cm_problem(6, 12)
        OUT.mkdir(exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="plans-", dir=OUT)
        self.cache = A.PlanCache(path=self.dir)
        self.rng = random.Random(self.seed)

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def operation(self, index: int, tracer):
        """One cycle: the three algorithms, in an order the seed draws."""
        problems = []
        for algorithm in self.rng.sample(ALGORITHMS, len(ALGORITHMS)):
            with tracer.span("layout.synthetic_matrix"):
                matrix = A.synthetic_matrix(self.before)
            with tracer.span(f"transpose.capture.{algorithm}"):
                result, plan = A.capture_transpose(
                    self.params, matrix, algorithm=algorithm
                )
            with tracer.span("plans.cache.plan_key"):
                key = A.plan_key(self.params, self.before, None, algorithm)
            with tracer.span("plans.cache.put"):
                self.cache.put(key, plan)
            problems.append(
                expected.mismatch(
                    self.name, f"cm-n6-2^12-{algorithm}", expected.counters(result.stats)
                )
            )
        return next((p for p in problems if p is not None), None)

    def layers(self, traced, untraced, tracer, effort) -> dict:
        params, before = self.params, self.before
        _, plan, _ = compiled(6, 12, "mpt")
        key = A.plan_key(params, before, None, "mpt")
        text = plan.dumps()
        self.cache.put(key, plan)
        metrics = {
            "layout.synthetic_matrix_ms": span_median(tracer, "layout.synthetic_matrix") * 1e3,
            "plans.cache.plan_key_us": span_median(tracer, "plans.cache.plan_key") * 1e6,
            "plans.cache.put_disk_ms": span_median(tracer, "plans.cache.put") * 1e3,
            "plans.ir.dumps_ms": probe(plan.dumps, effort.reps) * 1e3,
            "plans.ir.loads_ms": probe(lambda: A.CompiledPlan.loads(text), effort.reps) * 1e3,
            "plans.ir.plan_json_bytes": len(text.encode()),
            "plans.cache.get_mem_us": probe(lambda: self.cache.get(key), effort.reps) * 1e6,
            # A fresh cache over the same directory: every get reads,
            # parses and admits the on-disk entry.
            "plans.cache.get_disk_ms": probe(
                lambda cache: cache.get(key),
                effort.reps,
                lambda: A.PlanCache(path=self.dir),
            )
            * 1e3,
        }
        for algorithm in ALGORITHMS:
            metrics[f"transpose.capture_ms.{algorithm}"] = (
                span_median(tracer, f"transpose.capture.{algorithm}") * 1e3
            )
        for label, n, log_elements, reps in (
            ("mpt_n8", 8, 14, effort.reps),
            ("mpt_n10", 10, 16, effort.big_reps),
        ):
            # The shared fixture's own capture is the first repetition.
            times = [compiled(n, log_elements, "mpt")[2]]
            times += [
                probe(lambda: capture(n, log_elements, "mpt"), 1) for _ in range(reps - 1)
            ]
            metrics[f"transpose.capture_ms.{label}"] = median(times) * 1e3

        fft_params = A.connection_machine(6)

        def compile_fft():
            workload = A.parse_workload("fft@64x64")
            A.build_pipeline(workload, 6).compile(fft_params)

        fft_cache = A.PlanCache()

        def serve_fft():
            A.serve_workload(A.build_pipeline("fft@64x64", 6), fft_params, cache=fft_cache)

        serve_fft()
        metrics["workloads.compile_fft_ms"] = probe(compile_fft, effort.reps) * 1e3
        metrics["workloads.serve_hit_ms"] = probe(serve_fft, effort.reps) * 1e3
        return metrics
