"""``recover_faulted``: faulted plan executions through checkpointed recovery.

Why: ``recovery`` (checkpoints, rollback, surgery, symbolic verify)
dominates; the reference engine stays the only path under faults, so
lowering clean replay must leave this unchanged, while a single
execution core must not slow it.
"""

from __future__ import annotations

import random

from benchmarks.wall import adapter as A
from benchmarks.wall import expected
from benchmarks.wall.spans import NULL_TRACER
from benchmarks.wall.workloads import Workload, probe, span_median
from benchmarks.wall.workloads.fixtures import cm_problem, compiled

#: label -> fault spec on the cm n=6 cube, fixed here (not seeded): the
#: pinned outcome of each is in ``expected.json``.
FAULTS = {
    "transient": "tlinks=0-1@0-3+5-7@1-4",
    "permanent": "links=0-1+6-4",
    "mixed": "links=0-1,tlinks=5-7@1-4",
}
POLICY = "every=4"


class RecoverFaulted(Workload):
    name = "recover_faulted"

    def setup(self) -> None:
        self.params, self.plan, _ = compiled(6, 12, "mpt")
        self.policy = A.RecoveryPolicy.from_spec(POLICY)
        self.faults = {
            label: A.FaultPlan.from_spec(6, spec) for label, spec in FAULTS.items()
        }
        self.rng = random.Random(self.seed)

    def execute(self, label: str, tracer):
        """One faulted execution: ``(outcome, network)``."""
        with tracer.span("machine.faults.fork"):
            faults = self.faults[label].fork()
        with tracer.span("machine.engine.construct"):
            network = A.EnsembleNetwork(self.params, faults=faults)
        with tracer.span(f"recovery.execute.{label}"):
            outcome = A.execute_with_recovery(self.plan, network, policy=self.policy)
        return outcome, network

    def operation(self, index: int, tracer):
        """One cycle: the three fault plans, in an order the seed draws."""
        problems = []
        for label in self.rng.sample(tuple(FAULTS), len(FAULTS)):
            outcome, network = self.execute(label, tracer)
            report = outcome.report
            observed = expected.counters(network.stats)
            observed.update(
                verified=outcome.verified,
                resolved=report.resolved,
                rollbacks=report.rollbacks,
                checkpoints=report.checkpoints_taken,
            )
            problems.append(expected.mismatch(self.name, label, observed))
        return next((p for p in problems if p is not None), None)

    def layers(self, traced, untraced, tracer, effort) -> dict:
        params, plan, policy = self.params, self.plan, self.policy
        metrics = {
            "machine.faults.from_spec_us": probe(
                lambda: A.FaultPlan.from_spec(6, FAULTS["mixed"]), effort.reps
            )
            * 1e6,
            "machine.faults.fork_us": span_median(tracer, "machine.faults.fork") * 1e6,
        }
        reports = []
        for label in FAULTS:
            metrics[f"recovery.execute_ms.{label}"] = (
                span_median(tracer, f"recovery.execute.{label}") * 1e3
            )
            reports.append(self.execute(label, NULL_TRACER)[0].report)
        # Exact counts over one cycle; they must repeat run after run.
        metrics["recovery.rollbacks"] = sum(r.rollbacks for r in reports)
        metrics["recovery.replayed_phases"] = sum(r.replayed_phases for r in reports)
        metrics["recovery.checkpoints"] = sum(r.checkpoints_taken for r in reports)
        metrics["recovery.wasted_elements"] = sum(r.wasted_elements for r in reports)

        def fresh():
            return A.EnsembleNetwork(params)

        # What checkpointing costs when no fault ever fires.
        metrics["recovery.clean_ratio"] = probe(
            lambda net: A.execute_with_recovery(plan, net, policy=policy), effort.reps, fresh
        ) / probe(lambda net: A.replay_plan(plan, net), effort.reps, fresh)

        # The ladder path on the same faults, plan cache hot.
        before = cm_problem(6, 12)[1]
        cache = A.PlanCache()

        def ladder():
            for label in FAULTS:
                A.replay_degraded(
                    params, before, faults=self.faults[label].fork(),
                    algorithm="mpt", cache=cache,
                )

        ladder()
        metrics["plans.replay_degraded_ms"] = probe(ladder, effort.reps) * 1e3
        return metrics
