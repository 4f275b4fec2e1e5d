"""Serve compiled pipelines: cache, replay, and checkpointed recovery.

The pipeline analogue of :func:`repro.plans.replay.replay_degraded`.
A pipeline has no §9 degradation ladder — there is no slower tier of
"the same pipeline" to fall back to — so the fault story is exactly the
recovery executor's: transient faults resume from checkpoints, permanent
faults go through plan surgery, and when recovery is exhausted the
request fails (the server's retry budget takes it from there).
"""

from __future__ import annotations

from repro.machine.engine import EnsembleNetwork
from repro.machine.faults import FaultPlan
from repro.machine.params import MachineParams
from repro.plans.cache import PlanCache
from repro.plans.replay import DegradedReplay, replay_plan
from repro.recovery.executor import execute_with_recovery
from repro.recovery.policy import RecoveryPolicy
from repro.transpose.exchange import BufferPolicy
from repro.workloads.pipeline import Pipeline

__all__ = ["serve_workload"]


def serve_workload(
    pipeline: Pipeline,
    params: MachineParams,
    *,
    faults: FaultPlan | None = None,
    cache: PlanCache | None = None,
    policy: BufferPolicy | None = None,
    packet_size: int | None = None,
    observer=None,
    recovery: RecoveryPolicy | None = None,
    dtype: str = "float64",
) -> DegradedReplay:
    """Compile-or-fetch the pipeline's plan and run it once.

    Mirrors the serving layer's clean/faulted split: fault-free requests
    replay the cached plan on a fresh machine; faulted ones run through
    :func:`~repro.recovery.executor.execute_with_recovery` —  under
    ``recovery`` when given, else the default
    :class:`~repro.recovery.policy.RecoveryPolicy`.  A pipeline has no
    lower tier, so the outcome is never ``degraded``: its ``resolved`` is
    ``clean`` or the recovery verdict.
    """
    key = pipeline.key(
        params, policy=policy, packet_size=packet_size, dtype=dtype
    )

    def compile_fn():
        plan, _ = pipeline.compile(
            params, policy=policy, dtype=dtype
        )
        return plan

    if cache is not None:
        plan, hit = cache.get_or_compile(
            key, compile_fn, observer=observer
        )
    else:
        plan, hit = compile_fn(), False

    network = EnsembleNetwork(
        params, faults=None if faults is None else faults.fork()
    )
    if observer is not None:
        observer.attach(network)
    report = verified = None
    if faults is not None:
        outcome = execute_with_recovery(
            plan, network, policy=recovery or RecoveryPolicy()
        )
        report, verified = outcome.report, outcome.verified
    else:
        replay_plan(plan, network)
    return DegradedReplay(
        algorithm=pipeline.algorithm,
        requested=pipeline.algorithm,
        skipped=(),
        stats=network.stats,
        replayed=True,
        cache_hit=hit,
        recovery=report,
        verified=verified,
    )
