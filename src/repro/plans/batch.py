"""Resolve and serve transpose requests through the plan cache.

This is the plan-once/replay-many surface, and the one request path the
batch layer and the serving layer share: :meth:`BatchRequest.resolve`
turns a request into machine, layouts, algorithm tier and a content
address (:func:`~repro.plans.cache.plan_key`) exactly once, and
:func:`serve` executes the result.  On a miss the schedule is captured
once from a real run, on a hit the cached
:class:`~repro.plans.ir.CompiledPlan` replays on a fresh network with no
planning and no payload movement.  A second batch over the same request
set is therefore served entirely from cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterable, Mapping

from repro.layout.fields import Layout
from repro.machine.engine import EnsembleNetwork
from repro.machine.params import MachineParams, PortModel
from repro.plans.cache import PlanCache, plan_key
from repro.plans.recorder import capture_transpose, synthetic_matrix
from repro.plans.replay import DegradedReplay, replay_degraded, replay_plan

__all__ = [
    "BatchOutcome",
    "BatchReport",
    "BatchRequest",
    "ResolvedProblem",
    "resolve_problem",
    "run_batch",
    "serve",
]


def resolve_problem(
    n: int, elements: int, layout: str
) -> tuple[Layout, Layout | None]:
    """Map CLI-style problem parameters to a ``(before, after)`` pair.

    Mirrors the ``run`` subcommand exactly: ``after`` is ``None`` for a
    square matrix (planner default), the mirrored layout otherwise.
    Raises :class:`ValueError` with the CLI's own messages on bad input.
    """
    from repro.layout import partition as pt

    bits = elements.bit_length() - 1
    if elements <= 0 or 1 << bits != elements:
        raise ValueError("element count must be a power of two")
    p = bits // 2
    q = bits - p
    if layout == "2d":
        if n % 2:
            raise ValueError("2d layout needs an even cube dimension")
        before = pt.two_dim_cyclic(p, q, n // 2, n // 2)
        after = (
            None if p == q else pt.two_dim_cyclic(q, p, n // 2, n // 2)
        )
    elif layout == "1d-rows":
        before = pt.row_consecutive(p, q, n)
        after = None if p == q else pt.row_consecutive(q, p, n)
    elif layout == "1d-cols":
        before = pt.column_cyclic(p, q, n)
        after = None if p == q else pt.column_cyclic(q, p, n)
    else:
        raise ValueError(f"unknown layout {layout!r}")
    return before, after


@dataclass(frozen=True)
class BatchRequest:
    """One transpose request in CLI vocabulary."""

    #: Element count (power of two).  Optional for ``workload`` requests
    #: whose spec carries an explicit ``@RxC`` shape.
    elements: int = 0
    n: int = 6
    layout: str = "2d"
    machine: str = "ipsc"
    algorithm: str = "auto"
    tau: float = 1.0
    t_c: float = 1.0
    n_port: bool = False
    #: Optional fault scenario (``FaultPlan.from_spec`` syntax); see
    #: :func:`serve` for how faulted requests are served.
    faults: str | None = None
    #: Interconnect spec (``repro.topology.parse_topology`` syntax); the
    #: topology's node count must equal ``2**n``.
    topology: str = "cube"
    #: Composite pipeline spec (``repro.workloads.parse_workload``
    #: grammar, e.g. ``pipeline:bitrev+transpose@13x11`` or
    #: ``fft@64x64``).  When set, the request is served as a compiled
    #: workload pipeline; ``elements`` supplies a square default shape
    #: for specs without an ``@RxC`` suffix and ``algorithm`` is ignored.
    workload: str | None = None

    @classmethod
    def from_dict(cls, d: Mapping) -> "BatchRequest":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ValueError(
                f"unknown batch request field(s): {', '.join(sorted(unknown))}"
            )
        return cls(**d)

    def machine_params(self) -> MachineParams:
        from repro.machine.presets import (
            connection_machine,
            custom_machine,
            intel_ipsc,
        )

        if self.machine == "ipsc":
            return intel_ipsc(self.n)
        if self.machine == "cm":
            return connection_machine(self.n)
        if self.machine == "custom":
            return custom_machine(
                self.n,
                tau=self.tau,
                t_c=self.t_c,
                port_model=PortModel.N_PORT
                if self.n_port
                else PortModel.ONE_PORT,
            )
        raise ValueError(f"unknown machine {self.machine!r}")

    def resolve(self) -> ResolvedProblem:
        """Resolve once: machine, interconnect, layouts, tier, plan key.

        ``auto`` goes through the planner's §9 selection and a cube-only
        tier on another topology is floored to ``routed-universal`` —
        both *before* keying, so an explicit request for the same tier
        shares the cached plan, and neither counts as a degradation
        later.  The fault spec is validated here but not kept: every
        :func:`serve` call parses its own.  Raises :class:`ValueError`
        on malformed problems (element counts, layouts, machines,
        topologies, workload specs, fault specs, algorithm names).
        """
        from repro.topology import parse_topology
        from repro.transpose.planner import default_after_layout, select_tier

        params = self.machine_params()
        topo = parse_topology(self.topology, self.n)
        if topo.num_nodes != 1 << self.n:
            raise ValueError(
                f"topology {topo.spec!r} has {topo.num_nodes} nodes but the "
                f"request needs 2^{self.n} = {1 << self.n}"
            )
        on_cube = topo.name == "cube"
        workload = None
        if self.workload:
            from repro.workloads import build_pipeline

            if not on_cube:
                raise ValueError(
                    "workload pipelines require the cube topology "
                    f"(requested {topo.spec!r})"
                )
            pipeline = build_pipeline(
                self.workload, self.n, layout=self.layout, elements=self.elements
            )
            before, after, name = pipeline.before, pipeline.after, pipeline.algorithm
            key = pipeline.key(params)
            workload = pipeline.spec
            elements = pipeline.shape.rows * pipeline.shape.cols
        else:
            before, after = resolve_problem(self.n, self.elements, self.layout)
            target = after if after is not None else default_after_layout(before)
            name, _ = select_tier(
                self.algorithm, before, target, params.port_model, topology=topo
            )
            key = plan_key(params, before, target, name, topology=topo.spec)
            elements = self.elements
        if self.faults:
            from repro.machine.faults import FaultPlan

            FaultPlan.from_spec(
                self.n, self.faults, topology=None if on_cube else topo
            )
        return ResolvedProblem(
            problem=self,
            params=params,
            before=before,
            after=after,
            algorithm=name,
            key=key,
            elements=elements,
            topology=topo.spec,
            workload=workload,
        )


@dataclass(frozen=True)
class ResolvedProblem:
    """A :class:`BatchRequest` after :meth:`BatchRequest.resolve`."""

    problem: BatchRequest
    params: MachineParams
    before: Layout
    #: Explicit target layout (``None`` keeps the planner's default).
    after: Layout | None
    #: Concrete algorithm tier (``auto`` and the capability floor
    #: already applied); a pipeline's canonical stage spec.
    algorithm: str
    key: str
    #: Matrix elements the request moves (a pipeline's true shape).
    elements: int
    #: Canonical interconnect spec.  :func:`serve` re-parses it per call
    #: so no Topology instance (or its mutable BFS distance cache) is
    #: ever shared across machines or worker threads.
    topology: str = "cube"
    #: Canonical composite-pipeline spec for ``workload=`` requests
    #: (``None`` for ordinary transposes), re-parsed per :func:`serve`
    #: call — a Pipeline is cheap and never shared across threads.
    workload: str | None = None


def serve(
    resolved: ResolvedProblem,
    cache: PlanCache,
    *,
    recovery=None,
    observer=None,
    traced: bool = False,
) -> DegradedReplay:
    """Execute a resolved request once, against ``cache``.

    Fault-free requests fetch their plan (compiling it on a miss) and
    replay it on a fresh machine — except a cold transpose with no
    ``observer``, which keeps the capture run's stats: they are the same
    modelled numbers, and nobody is watching a replay.  Faulted
    transposes go through :func:`~repro.plans.replay.replay_degraded`
    with the resolved tier, faulted pipelines through
    :func:`~repro.workloads.serve_workload`; ``recovery`` (a
    :class:`~repro.recovery.policy.RecoveryPolicy`) makes either
    resume-based.  Recovery rewrites cube schedules, so faulted requests
    on other topologies always serve restart-based.

    ``observer`` is installed on every machine the call builds and sees
    the cache's events.  ``traced`` (a serving worker's request under an
    armed trace context) wraps the plan lookup and the run in
    ``plan-resolve`` and ``execute`` stage spans on ``observer`` and
    records the execute span's wall time on the returned stats.
    """
    from repro.obs.instrumentation import NULL_INSTRUMENTATION
    from repro.topology import parse_topology

    problem = resolved.problem
    params = resolved.params
    topo = parse_topology(resolved.topology, problem.n)
    stages = observer if traced else NULL_INSTRUMENTATION
    if problem.faults:
        from repro.machine.faults import FaultPlan

        on_cube = topo.name == "cube"
        faults = FaultPlan.from_spec(
            problem.n, problem.faults, topology=None if on_cube else topo
        )
        attrs = {"faulted": True}
        if resolved.workload is not None:
            from repro.workloads import serve_workload

            attrs["workload"] = resolved.algorithm

            def run():
                return serve_workload(
                    _pipeline(resolved),
                    params,
                    faults=faults,
                    cache=cache,
                    observer=observer,
                    recovery=recovery,
                )
        else:

            def run():
                return replay_degraded(
                    params,
                    resolved.before,
                    resolved.after,
                    faults=faults,
                    algorithm=resolved.algorithm,
                    cache=cache,
                    observer=observer,
                    recovery=recovery if on_cube else None,
                    topology=topo,
                )
    else:
        captured = []

        def compile_fn():
            if resolved.workload is not None:
                return _pipeline(resolved).compile(params)[0]
            from repro.transpose.planner import default_after_layout

            target = resolved.after
            if target is None:
                target = default_after_layout(resolved.before)
            result, plan = capture_transpose(
                params,
                synthetic_matrix(resolved.before),
                target,
                algorithm=resolved.algorithm,
                topology=topo,
            )
            captured.append(result.stats)
            return plan

        with stages.span(
            "plan-resolve", category="plan", key=resolved.key[:16]
        ) as span:
            plan, hit = cache.get_or_compile(
                resolved.key, compile_fn, observer=observer
            )
            span.annotate(cache_hit=hit)
        if captured and observer is None:
            return _replayed(resolved, plan, captured[0], hit)
        network = EnsembleNetwork(params, topology=topo)
        network.observer = observer
        attrs = {"algorithm": plan.algorithm}

        def run():
            replay_plan(plan, network)
            return _replayed(resolved, plan, network.stats, hit)

    with stages.span("execute", category="execute", **attrs) as span:
        served = run()
    if traced:
        # A hub whose wall axis was never armed (tracing switched back
        # on by the brownout ladder) has no execute time to give.
        served.stats.record_traced(
            0.0 if span.wall_start is None else span.wall_duration
        )
    return served


def _replayed(
    resolved: ResolvedProblem, plan, stats, hit: bool
) -> DegradedReplay:
    """The outcome of a fault-free request: its cached plan, run clean."""
    return DegradedReplay(
        algorithm=plan.algorithm,
        requested=resolved.algorithm,
        skipped=(),
        stats=stats,
        replayed=True,
        cache_hit=hit,
    )


def _pipeline(resolved: ResolvedProblem):
    """A fresh Pipeline for a resolved ``workload=`` request."""
    from repro.workloads import build_pipeline

    problem = resolved.problem
    return build_pipeline(
        resolved.workload,
        problem.n,
        layout=problem.layout,
        elements=problem.elements,
    )


@dataclass(frozen=True)
class BatchOutcome:
    """What happened to one request."""

    index: int
    elements: int
    algorithm: str
    cache_hit: bool
    modelled_time: float
    wall_seconds: float
    key: str
    #: How a faulted request completed (``clean`` for fault-free ones).
    resolved: str = "clean"
    #: Recovery accounting (``RecoveryReport.as_dict()``) when the
    #: request was served resume-based; None otherwise.
    recovery: dict | None = None

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "elements": self.elements,
            "algorithm": self.algorithm,
            "cache_hit": self.cache_hit,
            "modelled_time": self.modelled_time,
            "wall_seconds": self.wall_seconds,
            "key": self.key,
            "resolved": self.resolved,
            "recovery": self.recovery,
        }


@dataclass
class BatchReport:
    """Aggregate outcome of one :func:`run_batch` call."""

    outcomes: list[BatchOutcome] = field(default_factory=list)

    @property
    def hits(self) -> int:
        return sum(1 for o in self.outcomes if o.cache_hit)

    @property
    def misses(self) -> int:
        return sum(1 for o in self.outcomes if not o.cache_hit)

    @property
    def wall_seconds(self) -> float:
        return sum(o.wall_seconds for o in self.outcomes)

    def summary(self) -> str:
        base = (
            f"{len(self.outcomes)} request(s): {self.hits} served from "
            f"cache, {self.misses} compiled; "
            f"wall {self.wall_seconds * 1e3:.1f} ms"
        )
        rec = self.recovery_summary()
        if rec["faulted_requests"]:
            base += (
                f"; {rec['faulted_requests']} faulted "
                f"({rec['recovered']} recovered, {rec['ladders']} laddered)"
            )
        return base

    def recovery_summary(self) -> dict:
        """Aggregate recovery accounting over every faulted request."""
        faulted = [o for o in self.outcomes if o.resolved != "clean"]
        reports = [o.recovery for o in self.outcomes if o.recovery]
        return {
            "faulted_requests": len(faulted),
            "recovered": sum(1 for r in reports if r.get("recovered")),
            "ladders": sum(1 for o in faulted if o.resolved == "ladder"),
            "fault_encounters": sum(
                r.get("fault_encounters", 0) for r in reports
            ),
            "checkpoints_taken": sum(
                r.get("checkpoints_taken", 0) for r in reports
            ),
            "rollbacks": sum(r.get("rollbacks", 0) for r in reports),
            "replayed_phases": sum(
                r.get("replayed_phases", 0) for r in reports
            ),
            "backoff_phases": sum(
                r.get("backoff_phases", 0) for r in reports
            ),
            "wasted_elements": sum(
                r.get("wasted_elements", 0) for r in reports
            ),
        }

    def as_dict(self) -> dict:
        return {
            "requests": len(self.outcomes),
            "hits": self.hits,
            "misses": self.misses,
            "wall_seconds": self.wall_seconds,
            "recovery": self.recovery_summary(),
            "outcomes": [o.as_dict() for o in self.outcomes],
        }


def run_batch(
    requests: Iterable[BatchRequest],
    *,
    cache: PlanCache | None = None,
    recovery=None,
) -> BatchReport:
    """Resolve and :func:`serve` every request against one cache.

    ``auto`` algorithms are resolved through the planner's §9 selection
    *before* keying, so an explicit request for the same strategy and an
    ``auto`` request share one cached plan.  ``recovery`` (a
    :class:`~repro.recovery.policy.RecoveryPolicy`) makes faulted
    requests resume-based, and each outcome then carries the recovery
    accounting; see :func:`serve`.
    """
    if cache is None:
        cache = PlanCache()
    report = BatchReport()
    for index, req in enumerate(requests):
        started = perf_counter()
        resolved = req.resolve()
        served = serve(resolved, cache, recovery=recovery)
        report.outcomes.append(
            BatchOutcome(
                index=index,
                elements=resolved.elements,
                algorithm=served.algorithm,
                cache_hit=served.cache_hit,
                modelled_time=served.stats.time,
                wall_seconds=perf_counter() - started,
                key=resolved.key,
                resolved=served.resolved,
                recovery=(
                    None if served.recovery is None
                    else served.recovery.as_dict()
                ),
            )
        )
    return report
