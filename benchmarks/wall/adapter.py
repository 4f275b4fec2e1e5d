"""The benchmark's only import of the program under test.

Every other file of the benchmark reaches ``repro`` through the names
re-exported here, so this list *is* the measured public surface: a
later change that renames or removes one of these names must update
this file, and nothing else in the benchmark.  ``README.md`` repeats the
list.
"""

from __future__ import annotations

import sys

from benchmarks.wall.paths import SRC, require_source

require_source()
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.layout import DistributedMatrix, partition  # noqa: E402
from repro.machine import (  # noqa: E402
    Block,
    EnsembleNetwork,
    FaultPlan,
    Message,
)
from repro.machine.presets import connection_machine, custom_machine  # noqa: E402
from repro.obs import Instrumentation  # noqa: E402
from repro.plans import (  # noqa: E402
    BatchRequest,
    CompiledPlan,
    PlanCache,
    capture_transpose,
    plan_key,
    replay_degraded,
    replay_plan,
    synthetic_matrix,
)
from repro.recovery import RecoveryPolicy, execute_with_recovery  # noqa: E402
from repro.service import (  # noqa: E402
    ServerConfig,
    TransposeRequest,
    TransposeServer,
    resolve_request,
    stats_fingerprint,
)
from repro.transpose.planner import default_after_layout, transpose  # noqa: E402
from repro.workloads import build_pipeline, parse_workload, serve_workload  # noqa: E402

__all__ = [
    "BatchRequest",
    "Block",
    "CompiledPlan",
    "DistributedMatrix",
    "EnsembleNetwork",
    "FaultPlan",
    "Instrumentation",
    "Message",
    "PlanCache",
    "RecoveryPolicy",
    "ServerConfig",
    "TransposeRequest",
    "TransposeServer",
    "build_pipeline",
    "capture_transpose",
    "connection_machine",
    "custom_machine",
    "default_after_layout",
    "execute_with_recovery",
    "parse_workload",
    "partition",
    "plan_key",
    "replay_degraded",
    "replay_plan",
    "resolve_request",
    "serve_workload",
    "stats_fingerprint",
    "synthetic_matrix",
    "transpose",
]
