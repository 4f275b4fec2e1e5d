"""Compiled schedule IR, plan capture/replay, and the plan cache.

The paper's transposes are static phase schedules; this package
separates *planning* (running an algorithm once, under a recorder) from
*execution* (replaying the resulting :class:`CompiledPlan` on any
compatible network, faulted or not), with a content-addressed cache in
between so repeated requests never re-plan.
"""

from repro.plans.batch import (
    BatchOutcome,
    BatchReport,
    BatchRequest,
    ResolvedProblem,
    resolve_problem,
    run_batch,
    serve,
)
from repro.plans.cache import PlanCache, plan_key
from repro.plans.ir import (
    PLAN_FORMAT_VERSION,
    CollectOp,
    CompiledPlan,
    CopyOp,
    IdleOp,
    LayoutSpec,
    LocalOp,
    MachineSpec,
    PhaseOp,
    PlaceOp,
    PlanError,
    PlanMessage,
    PlanOp,
    RemapOp,
    canonical_key,
)
from repro.plans.recorder import (
    RecordingNetwork,
    capture_permutation,
    capture_transpose,
    synthetic_matrix,
)
from repro.plans.replay import (
    DegradedReplay,
    PlanReplayError,
    replay_degraded,
    replay_plan,
)
from repro.plans.symbolic import (
    SymbolicError,
    SymbolicState,
    holdings_to_symbolic,
    simulate_ops,
)

__all__ = [
    "PLAN_FORMAT_VERSION",
    "BatchOutcome",
    "BatchReport",
    "BatchRequest",
    "CollectOp",
    "CompiledPlan",
    "CopyOp",
    "DegradedReplay",
    "IdleOp",
    "LayoutSpec",
    "LocalOp",
    "MachineSpec",
    "PhaseOp",
    "PlaceOp",
    "PlanCache",
    "PlanError",
    "PlanMessage",
    "PlanOp",
    "PlanReplayError",
    "RecordingNetwork",
    "RemapOp",
    "ResolvedProblem",
    "SymbolicError",
    "SymbolicState",
    "canonical_key",
    "capture_permutation",
    "capture_transpose",
    "holdings_to_symbolic",
    "plan_key",
    "replay_degraded",
    "replay_plan",
    "resolve_problem",
    "run_batch",
    "serve",
    "simulate_ops",
    "synthetic_matrix",
]
