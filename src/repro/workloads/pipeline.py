"""Compile composite stage pipelines into one :class:`CompiledPlan`.

The compiler threads a single location frame through every stage: the
run's *before* layout fixes the frame (exactly as in
:class:`~repro.transpose.exchange.ExchangeExecutor`), each stage
contributes its address map, and the plan records whatever communication
realizes the composite.

**Fusion rules** (see ``docs/workloads.md``):

1. *Compose* — adjacent bit-permutation stages (transpose, bit-reversal,
   dimension permutation) compose algebraically: the fused group plans
   **one** exchange sequence for the *composed* position permutation,
   so cycles shared between stages merge or cancel outright
   (``transpose+transpose`` compiles to zero communication;
   ``bitrev+transpose`` needs half the exchange steps of the two
   schedules run back to back).  Gray re-encodings are not bit
   rearrangements (§2), so a :class:`GrayConvertStage` is a fusion
   barrier executed through the block-routed converter.
2. *Relabel* — when separately captured plans are chained
   (:func:`chain_plans`), XOR node-relabelled segments
   (:meth:`CompiledPlan.relabeled`, the COSTA-style §6.2 remap)
   contribute leading :class:`~repro.plans.ir.RemapOp`s;
   :func:`fuse_ops` folds adjacent masks into one (XOR composes),
   drops identity masks and elides empty phases, so relabel-only
   stages cost nothing at replay.

The output is a plain :class:`~repro.plans.ir.CompiledPlan` with a
content-addressed key (:meth:`Pipeline.key` — the ordinary
:func:`~repro.plans.cache.plan_key` with the canonical spec as the
algorithm), so the cache, replay, recovery, integrity and serving
stacks apply unchanged.  Arbitrary shapes ride along via the padded
embedding of :mod:`repro.layout.embed`: two shapes padding to the same
domain share one plan by construction.
"""

from __future__ import annotations

from dataclasses import replace as _dc_replace

import numpy as np

from repro.layout import partition as pt
from repro.layout.embed import EmbeddedShape, embed, extract
from repro.layout.fields import Layout
from repro.layout.matrix import DistributedMatrix
from repro.machine.engine import EnsembleNetwork
from repro.machine.params import MachineParams
from repro.obs.instrumentation import instrumentation_of
from repro.plans.cache import plan_key
from repro.plans.ir import CompiledPlan, PhaseOp, PlanOp, RemapOp
from repro.plans.recorder import RecordingNetwork
from repro.transpose.exchange import (
    BufferPolicy,
    ExchangeExecutor,
    bit_permutation_for_map,
    convert_layout,
    plan_exchange_sequence,
)
from repro.workloads.stages import GrayConvertStage, Stage, TransposeStage

__all__ = ["Pipeline", "chain_plans", "fuse_ops", "start_layout"]


def start_layout(kind: str, p: int, q: int, n: int) -> Layout:
    """The pipeline's initial layout — CLI vocabulary, rectangular-aware."""
    if kind == "2d":
        if n % 2:
            raise ValueError("2d layout needs an even cube dimension")
        return pt.two_dim_cyclic(p, q, n // 2, n // 2)
    if kind == "1d-rows":
        return pt.row_consecutive(p, q, n)
    if kind == "1d-cols":
        return pt.column_cyclic(p, q, n)
    raise ValueError(f"unknown layout {kind!r}")


def _mirror_layout(layout: Layout, kind: str, n: int) -> Layout:
    """The transpose target: the same partitioning kind on ``A^T``."""
    return start_layout(kind, layout.q, layout.p, n)


class Pipeline:
    """A validated stage sequence on one embedded shape, ready to compile."""

    def __init__(
        self,
        stages,
        shape: EmbeddedShape,
        n: int,
        *,
        layout: str = "2d",
        machine_kind: str | None = None,
    ) -> None:
        stages = tuple(stages)
        if not stages:
            raise ValueError("a pipeline needs at least one stage")
        for stage in stages:
            if not isinstance(stage, Stage):
                raise TypeError(f"not a pipeline stage: {stage!r}")
        self.stages = stages
        self.shape = shape
        self.n = n
        self.layout_kind = layout
        # Thread the layout/shape through every stage eagerly: this is
        # where barrier ordering ("transpose after gray") and layout/fit
        # problems surface as ValueError, at admission time.
        layouts = [start_layout(layout, shape.p, shape.q, n)]
        shapes = [shape]
        for stage in stages:
            current = layouts[-1]
            if stage.fusible and current.is_gray:
                raise ValueError(
                    f"stage {stage.token!r} needs a binary-encoded frame; "
                    f"insert a 'binary' stage after 'gray'"
                )
            if isinstance(stage, TransposeStage):
                layouts.append(_mirror_layout(current, layout, n))
                shapes.append(shapes[-1].transposed())
            else:
                target = stage.out_layout(current)
                layouts.append(current if target is None else target)
                shapes.append(shapes[-1])
        self.layouts = tuple(layouts)
        self.shapes = tuple(shapes)

    # -- identity ------------------------------------------------------------

    @property
    def algorithm(self) -> str:
        """Canonical stage spec — the plan's algorithm / cache identity."""
        return "pipeline:" + "+".join(s.token for s in self.stages)

    @property
    def spec(self) -> str:
        """Canonical spec including the true (unpadded) shape."""
        return f"{self.algorithm}@{self.shape.rows}x{self.shape.cols}"

    @property
    def before(self) -> Layout:
        return self.layouts[0]

    @property
    def after(self) -> Layout:
        return self.layouts[-1]

    @property
    def out_shape(self) -> EmbeddedShape:
        return self.shapes[-1]

    def key(
        self,
        params: MachineParams,
        *,
        policy: BufferPolicy | None = None,
        packet_size: int | None = None,
        dtype: str = "float64",
        topology: str = "cube",
    ) -> str:
        """Content address: the ordinary plan key with the spec as the
        algorithm.  The true shape is *not* part of the key — plans are
        functions of the padded domain, so ``13x11`` and ``14x12``
        deliberately share one cache entry."""
        return plan_key(
            params,
            self.before,
            self.after,
            self.algorithm,
            policy=policy,
            packet_size=packet_size,
            dtype=dtype,
            topology=topology,
        )

    # -- numpy semantics -----------------------------------------------------

    def reference_padded(self, padded: np.ndarray) -> np.ndarray:
        """Compose every stage's numpy semantics on the padded domain."""
        out = np.asarray(padded)
        p, q = self.shape.p, self.shape.q
        if out.shape != (1 << p, 1 << q):
            raise ValueError(
                f"padded input must be {1 << p}x{1 << q}, got {out.shape}"
            )
        for stage in self.stages:
            out = stage.reference(out)
            p, q = stage.out_shape(p, q)
        return out

    def reference(self, a: np.ndarray, *, fill=0.0) -> np.ndarray:
        """The composed semantics on a true-shape input, extracted."""
        padded = np.full(
            (self.shape.padded_rows, self.shape.padded_cols),
            fill,
            dtype=np.asarray(a).dtype,
        )
        padded[: self.shape.rows, : self.shape.cols] = a
        out = self.reference_padded(padded)
        return out[: self.out_shape.rows, : self.out_shape.cols].copy()

    # -- execution -----------------------------------------------------------

    def _groups(self, fuse: bool):
        """Runs of fusible stages (plus their layout indices); barriers
        stay singleton.  With ``fuse=False`` every stage is its own
        group — the naive chained schedule the fused one is benchmarked
        against."""
        groups: list[tuple[int, list[Stage]]] = []
        for idx, stage in enumerate(self.stages):
            if (
                fuse
                and stage.fusible
                and groups
                and groups[-1][1][-1].fusible
            ):
                groups[-1][1].append(stage)
            else:
                groups.append((idx, [stage]))
        return groups

    def _run(
        self,
        network: EnsembleNetwork,
        dm: DistributedMatrix,
        *,
        policy: BufferPolicy | None = None,
        fuse: bool = True,
    ) -> DistributedMatrix:
        instr = instrumentation_of(network)
        with instr.span(
            "pipeline",
            category="algorithm",
            spec=self.spec,
            stages=len(self.stages),
            fused=fuse,
        ):
            for start, group in self._groups(fuse):
                label = "+".join(s.token for s in group)
                in_layout = self.layouts[start]
                out_layout = self.layouts[start + len(group)]
                if not group[0].fusible:
                    with instr.span(
                        f"stage({label})", category="workload", kind="convert"
                    ):
                        if out_layout is not in_layout:
                            dm = convert_layout(network, dm, out_layout)
                    continue
                # Compose the group's address maps in one pass; the
                # fused position permutation plans a single exchange
                # sequence (fusion rule 1).
                maps = []
                p, q = in_layout.p, in_layout.q
                for stage in group:
                    maps.append(stage.address_map(p, q))
                    p, q = stage.out_shape(p, q)

                def composed(w: int, _maps=tuple(maps)) -> int:
                    for fn in _maps:
                        w = fn(w)
                    return w

                perm = bit_permutation_for_map(
                    in_layout, out_layout, composed
                )
                pairs = plan_exchange_sequence(perm, in_layout)
                with instr.span(
                    f"stage({label})",
                    category="workload",
                    kind="exchange",
                    stages=len(group),
                    steps=len(pairs),
                ):
                    executor = ExchangeExecutor(network, dm, policy=policy)
                    executor.run(pairs)
                    dm = executor.finish(out_layout)
        return dm

    def synthetic(self, dtype=np.float64) -> np.ndarray:
        """Deterministic padded payload for virtual captures."""
        rows, cols = self.shape.padded_rows, self.shape.padded_cols
        return np.arange(rows * cols, dtype=dtype).reshape(rows, cols)

    def compile(
        self,
        params: MachineParams,
        *,
        policy: BufferPolicy | None = None,
        observer=None,
        topology=None,
        fuse: bool = True,
        dtype: str = "float64",
        record_payloads: bool = False,
    ):
        """Capture the whole pipeline as one :class:`CompiledPlan`.

        Returns ``(plan, payloads)`` — ``payloads`` is the block->array
        ledger when ``record_payloads`` is set (for payload-true
        recovery runs), else ``None``.
        """
        kwargs = {} if topology is None else {"topology": topology}
        network = RecordingNetwork(
            params, record_payloads=record_payloads, **kwargs
        )
        if observer is not None:
            network.observer = observer
        dm = DistributedMatrix.from_global(
            self.synthetic(np.dtype(dtype)), self.before
        )
        self._run(network, dm, policy=policy, fuse=fuse)
        plan = network.compile(
            algorithm=self.algorithm,
            before=self.before,
            after=self.after,
            requested=self.spec,
            comm_class="pipeline",
            dtype=dtype,
        )
        plan = _dc_replace(plan, ops=fuse_ops(plan.ops))
        return plan, (network.payloads if record_payloads else None)

    def execute(
        self,
        network: EnsembleNetwork,
        a: np.ndarray,
        *,
        policy: BufferPolicy | None = None,
        fuse: bool = True,
        fill=0.0,
    ) -> np.ndarray:
        """Run the pipeline on real data; returns the extracted result."""
        dm = embed(np.asarray(a), self.shape, self.before, fill=fill)
        dm = self._run(network, dm, policy=policy, fuse=fuse)
        return extract(dm, self.out_shape)


def fuse_ops(ops) -> tuple[PlanOp, ...]:
    """Plan-level fusion pass: fold relabels, drop no-op phases.

    Adjacent :class:`RemapOp` masks XOR-compose into one; identity masks
    and empty phases are elided.  Replay semantics are unchanged — the
    replay mask-folding loop applies exactly the composed mask.
    """
    fused: list[PlanOp] = []
    for op in ops:
        if isinstance(op, PhaseOp) and not op.messages:
            continue
        if isinstance(op, RemapOp):
            if fused and isinstance(fused[-1], RemapOp):
                mask = fused[-1].mask ^ op.mask
                fused.pop()
                if mask:
                    fused.append(RemapOp(mask))
                continue
            if not op.mask:
                continue
        fused.append(op)
    return tuple(fused)


def chain_plans(plans, *, algorithm: str | None = None) -> CompiledPlan:
    """Chain separately captured plans into one, applying fusion rule 2.

    Every plan must target the same machine and the layouts must be
    continuous (each plan's *after* is the next plan's *before*).  The
    chained op stream goes through :func:`fuse_ops`, so relabel-only
    segments (plans spliced via :meth:`CompiledPlan.relabeled`)
    collapse to a single mask — or to nothing when masks cancel.
    """
    plans = list(plans)
    if not plans:
        raise ValueError("chain_plans needs at least one plan")
    first = plans[0]
    ops: list[PlanOp] = []
    for prev, nxt in zip(plans, plans[1:]):
        if nxt.machine.as_dict(with_name=False) != first.machine.as_dict(
            with_name=False
        ):
            raise ValueError("chained plans must share one machine model")
        if prev.after.as_dict() != nxt.before.as_dict():
            raise ValueError(
                f"plan layouts are not continuous: {prev.algorithm!r} ends "
                f"in {prev.after.name!r} but {nxt.algorithm!r} starts from "
                f"{nxt.before.name!r}"
            )
        if nxt.dtype != first.dtype:
            raise ValueError("chained plans must agree on dtype")
    for plan in plans:
        ops.extend(plan.ops)
    name = algorithm or "+".join(p.algorithm for p in plans)
    return CompiledPlan(
        algorithm=name,
        machine=first.machine,
        before=first.before,
        after=plans[-1].after,
        ops=fuse_ops(ops),
        requested=name,
        comm_class="pipeline",
        dtype=first.dtype,
        code_version=first.code_version,
    )
