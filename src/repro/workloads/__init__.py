"""Composite permutation pipelines: §6-§7 workloads as compiled plans.

A *workload* chains the paper's data-movement repertoire — transpose
(§4-§5), bit-reversal and dimension permutation (§7), binary <-> Gray
storage conversion (§2, §6) — into one typed stage pipeline, compiles it
to a single :class:`~repro.plans.ir.CompiledPlan` (fusing adjacent
bit-permutation stages into one exchange sequence), and rides the
entire existing stack unchanged: plan cache, replay, checkpointed
recovery, integrity, tracing and the serving layer.  Arbitrary matrix
shapes embed into the power-of-two domain via
:mod:`repro.layout.embed`.

The first composite consumer is the ``fft`` preset — the APE FFT
schedule (dimension permutation + bit-reversal + transpose) of Lippert
et al. — requestable end to end as ``workload="fft@64x64"`` or
``pipeline:bitrev+transpose@13x11``.
"""

from repro.workloads.pipeline import (
    Pipeline,
    chain_plans,
    fuse_ops,
    start_layout,
)
from repro.workloads.serve import serve_workload
from repro.workloads.spec import (
    PRESETS,
    Workload,
    WorkloadSpecError,
    build_pipeline,
    parse_workload,
)
from repro.workloads.stages import (
    BitReversalStage,
    DimPermStage,
    GrayConvertStage,
    Stage,
    TransposeStage,
    axis_permutation_order,
)

__all__ = [
    "BitReversalStage",
    "DimPermStage",
    "GrayConvertStage",
    "PRESETS",
    "Pipeline",
    "Stage",
    "TransposeStage",
    "Workload",
    "WorkloadSpecError",
    "axis_permutation_order",
    "build_pipeline",
    "chain_plans",
    "fuse_ops",
    "parse_workload",
    "serve_workload",
    "start_layout",
]
