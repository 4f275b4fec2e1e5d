"""repro — matrix transposition on Boolean n-cube ensemble architectures.

A from-scratch reproduction of S. Lennart Johnsson & Ching-Tien Ho,
*Algorithms for Matrix Transposition on Boolean n-cube Configured
Ensemble Architectures* (ICPP 1987 / YALEU/DCS/TR-572), built on a
deterministic link-level cube simulator.

Quick start::

    import numpy as np
    from repro import (
        EnsembleNetwork, DistributedMatrix, intel_ipsc, transpose,
        two_dim_cyclic,
    )

    layout = two_dim_cyclic(p=5, q=5, n_r=2, n_c=2)
    A = np.random.default_rng(0).standard_normal((32, 32))
    dm = DistributedMatrix.from_global(A, layout)
    net = EnsembleNetwork(intel_ipsc(layout.n))
    result = transpose(net, dm)
    assert result.verify_against(A)
    print(result.algorithm, result.stats.summary())

See DESIGN.md for the module map and EXPERIMENTS.md for the
paper-versus-measured record of every figure.
"""

from repro.layout.classify import CommClass, classify_transpose
from repro.layout.fields import Layout, ProcField
from repro.layout.matrix import DistributedMatrix
from repro.layout.partition import (
    column_consecutive,
    column_cyclic,
    combined_contiguous,
    row_consecutive,
    row_cyclic,
    two_dim_consecutive,
    two_dim_cyclic,
    two_dim_mixed,
)
from repro.machine.engine import EnsembleNetwork
from repro.machine.params import MachineParams, PortModel
from repro.machine.presets import connection_machine, custom_machine, intel_ipsc
from repro.topology import (
    Hypercube,
    SwappedDragonfly,
    Topology,
    TopologyError,
    TorusMesh,
    parse_topology,
)
from repro.transpose.exchange import BufferPolicy, convert_layout
from repro.transpose.planner import (
    TransposeResult,
    default_after_layout,
    select_algorithm,
    transpose,
)

__version__ = "1.0.0"

from repro.plans import (  # noqa: E402  (needs __version__ for provenance)
    BatchRequest,
    CompiledPlan,
    PlanCache,
    RecordingNetwork,
    capture_transpose,
    plan_key,
    replay_degraded,
    replay_plan,
    run_batch,
)
from repro.obs import (  # noqa: E402
    ChromeTraceSink,
    Instrumentation,
    JsonlSink,
    MetricsRegistry,
)
from repro.recovery import (  # noqa: E402
    CheckpointManager,
    RecoveryPolicy,
    RecoveryReport,
    execute_with_recovery,
    plan_surgery,
    run_chaos,
)

__all__ = [
    "BatchRequest",
    "BufferPolicy",
    "CheckpointManager",
    "ChromeTraceSink",
    "CommClass",
    "CompiledPlan",
    "DistributedMatrix",
    "EnsembleNetwork",
    "Hypercube",
    "Instrumentation",
    "JsonlSink",
    "Layout",
    "MachineParams",
    "MetricsRegistry",
    "PlanCache",
    "PortModel",
    "ProcField",
    "RecordingNetwork",
    "RecoveryPolicy",
    "RecoveryReport",
    "SwappedDragonfly",
    "Topology",
    "TopologyError",
    "TorusMesh",
    "TransposeResult",
    "capture_transpose",
    "classify_transpose",
    "column_consecutive",
    "column_cyclic",
    "combined_contiguous",
    "connection_machine",
    "convert_layout",
    "custom_machine",
    "default_after_layout",
    "execute_with_recovery",
    "intel_ipsc",
    "parse_topology",
    "plan_key",
    "plan_surgery",
    "replay_degraded",
    "replay_plan",
    "row_consecutive",
    "row_cyclic",
    "run_batch",
    "run_chaos",
    "select_algorithm",
    "transpose",
    "two_dim_consecutive",
    "two_dim_cyclic",
    "two_dim_mixed",
    "__version__",
]
