"""``replay_hit``: clean cache-hit replay of one precompiled plan.

Why: a clean cache hit is the hot path of ``replay``, ``batch`` and
every served request; ``plans.replay`` + ``machine.engine`` +
``machine.metrics`` do all the work, planner, numpy and service none.
The input is one fixed plan, so ``--seed`` has nothing to vary here.
"""

from __future__ import annotations

from benchmarks.wall import adapter as A
from benchmarks.wall import expected
from benchmarks.wall.stats import percentile
from benchmarks.wall.workloads import Workload, probe, span_median
from benchmarks.wall.workloads.fixtures import compiled

#: (label, machine dimension, log2 elements, algorithm) of the scale sweep.
SWEEP = (
    ("n4", 4, 8, "mpt"),
    ("n6", 6, 12, "mpt"),
    ("n10", 10, 16, "mpt"),
    ("spt_n10", 10, 16, "spt"),
)


def drive(plan, network) -> None:
    """Walk ``plan`` through the engine's public methods directly — the
    engine's cost without ``replay_plan``'s loop, checks and span."""
    mask = 0
    for op in plan.ops:
        kind = type(op).__name__
        if kind == "PhaseOp":
            network.execute_phase(
                [A.Message(m.src ^ mask, m.dst ^ mask, m.keys) for m in op.messages],
                exclusive=op.exclusive,
            )
        elif kind == "PlaceOp":
            network.place(op.node ^ mask, A.Block(op.key, virtual_size=op.size))
        elif kind == "CollectOp":
            network.memory(op.node ^ mask).pop(op.key)
        elif kind == "LocalOp":
            costs = op.costs if isinstance(op.costs, float) else dict(op.costs)
            elements = (
                op.elements
                if op.elements is None or isinstance(op.elements, int)
                else dict(op.elements)
            )
            network.execute_local(costs, elements)
        elif kind == "CopyOp":
            network.charge_copy(dict(op.per_node))
        elif kind == "IdleOp":
            network.idle_phase()
        elif kind == "RemapOp":
            mask ^= op.mask
        else:
            raise ValueError(f"unknown plan op {kind}")


class ReplayHit(Workload):
    name = "replay_hit"

    def setup(self) -> None:
        self.params, self.plan, _ = compiled(8, 14, "mpt")
        network = A.EnsembleNetwork(self.params)
        A.replay_plan(self.plan, network)
        # A mismatch with the pinned counters fails every operation.
        self.unpinned = expected.mismatch(
            self.name, "cm-n8-2^14-mpt", expected.counters(network.stats)
        )
        self.reference = A.stats_fingerprint(network.stats)

    def operation(self, index: int, tracer):
        with tracer.span("machine.engine.construct"):
            network = A.EnsembleNetwork(self.params)
        with tracer.span("plans.replay.replay_plan"):
            A.replay_plan(self.plan, network)
        with tracer.span("service.stats_fingerprint"):
            fingerprint = A.stats_fingerprint(network.stats)
        if fingerprint != self.reference:
            return "replayed statistics differ from the set-up run"
        return self.unpinned

    def layers(self, traced, untraced, tracer, effort) -> dict:
        params, plan = self.params, self.plan

        def fresh():
            return A.EnsembleNetwork(params)

        def instrumented():
            network = fresh()
            A.Instrumentation().attach(network)
            return network

        replay_s = span_median(tracer, "plans.replay.replay_plan")
        driven_s = probe(lambda net: drive(plan, net), effort.reps, fresh)
        plain_s = probe(lambda net: A.replay_plan(plan, net), effort.reps, fresh)
        noverify_s = probe(
            lambda net: A.replay_plan(plan, net, verify_sizes=False, check_params=False),
            effort.reps,
            fresh,
        )
        observed_s = probe(lambda net: A.replay_plan(plan, net), effort.reps, instrumented)
        network = fresh()
        A.replay_plan(plan, network)
        metrics = {
            "machine.engine.construct_us": span_median(tracer, "machine.engine.construct")
            * 1e6,
            "plans.replay.replay_ms": replay_s * 1e3,
            "machine.engine.driven_ms": driven_s * 1e3,
            "plans.replay.overhead_ms": (plain_s - driven_s) * 1e3,
            "plans.replay.noverify_ms": noverify_s * 1e3,
            "plans.ir.fingerprint_ms": probe(lambda: plan.fingerprint, effort.reps) * 1e3,
            "service.stats_fingerprint_ms": span_median(tracer, "service.stats_fingerprint")
            * 1e3,
            "machine.metrics.as_dict_ms": probe(network.stats.as_dict, effort.reps) * 1e3,
            "plans.replay.us_per_msg.n8": replay_s * 1e6 / plan.num_messages,
            "plans.replay.latency_p95_ms": percentile(untraced.latencies, 95) * 1e3,
            "obs.instrumented_replay_ratio": observed_s / plain_s,
        }
        for label, n, log_elements, algorithm in SWEEP:
            sweep_params, sweep_plan, _ = compiled(n, log_elements, algorithm)
            seconds = probe(
                lambda net: A.replay_plan(sweep_plan, net),
                effort.big_reps if n == 10 else effort.reps,
                lambda: A.EnsembleNetwork(sweep_params),
            )
            metrics[f"plans.replay.us_per_msg.{label}"] = (
                seconds * 1e6 / sweep_plan.num_messages
            )
        return metrics
