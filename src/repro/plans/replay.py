"""Execute a :class:`~repro.plans.ir.CompiledPlan` on a fresh network.

Replay re-performs the captured schedule with *virtual* blocks (sizes
only): every phase, message, copy and local charge is re-executed
through the engine, so the resulting
:class:`~repro.machine.metrics.TransferStats` — times, phases, messages,
start-ups, element hops, per-link loads — is identical to the original
run's, at a fraction of the wall-clock cost (no planning, no NumPy
payload movement).  Exclusive phases are replayed exclusively, so the
paper's edge-disjointness lemmas are re-checked whenever a plan is
walked.  A clean replay walks each plan once per machine and then
applies the recorded effect (see ``_prepared``).

A replay network may carry a :class:`~repro.machine.faults.FaultPlan`;
deliveries over faulted resources raise the usual typed errors.
:func:`replay_degraded` combines this with the PR 1 degradation ladder:
it selects the surviving tier for a fault plan *without re-planning*,
replays the cached plan of that tier, and only falls back to direct
execution if a mid-replay fault aborts the schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.layout.fields import Layout
from repro.machine.engine import EnsembleNetwork
from repro.machine.faults import (
    DisconnectedCubeError,
    FaultError,
    FaultPlan,
    RoutingStalledError,
)
from repro.machine.message import Block, Message
from repro.machine.metrics import TransferStats
from repro.machine.params import MachineParams
from repro.obs.instrumentation import (
    NULL_INSTRUMENTATION,
    Instrumentation,
    instrumentation_of,
)
from repro.plans.ir import (
    CollectOp,
    CompiledPlan,
    CopyOp,
    IdleOp,
    LocalOp,
    PhaseOp,
    PlaceOp,
    RemapOp,
)

__all__ = ["DegradedReplay", "PlanReplayError", "replay_degraded", "replay_plan"]


class PlanReplayError(RuntimeError):
    """The plan cannot run on this network (wrong machine, corrupt ops)."""


def replay_plan(
    plan: CompiledPlan,
    network: EnsembleNetwork,
    *,
    check_params: bool = True,
    verify_sizes: bool = True,
    checkpoints=None,
) -> float:
    """Replay every op of ``plan`` on ``network``; returns modelled time.

    ``check_params`` insists the network's cost model equals the plan's
    provenance (names aside) — replaying a schedule on a machine with
    different constants would silently produce wrong times.
    ``verify_sizes`` cross-checks each message's element count against
    the blocks actually present, catching corrupt or mis-bound plans.

    ``checkpoints`` optionally attaches a
    :class:`~repro.recovery.checkpoint.CheckpointManager` to the network
    for the duration of the replay: the engine then snapshots node
    memories on the manager's phase cadence, giving even a plain replay
    rollback points (the resume path itself lives in
    :func:`repro.recovery.executor.execute_with_recovery`).

    Fault errors from a faulted network propagate untouched, exactly as
    they would from direct execution, so callers can ladder down.
    """
    if check_params:
        if not plan.machine.compatible_with(network.params):
            raise PlanReplayError(
                f"plan was compiled for {plan.machine.as_dict(with_name=False)} "
                f"but the network is {network.params.name!r} "
                f"(n={network.params.n})"
            )
        if plan.machine.topology != network.topology.spec:
            raise PlanReplayError(
                f"plan was compiled for topology {plan.machine.topology!r} "
                f"but the network interconnect is {network.topology.spec!r}"
            )
    start_time = network.stats.time
    if checkpoints is not None:
        network.checkpoints = checkpoints
    hub = instrumentation_of(network)
    attrs = (
        {"ops": len(plan.ops), "fingerprint": plan.fingerprint[:12]}
        if hub.enabled
        else {}
    )
    try:
        with hub.span(
            "replay", category="algorithm", algorithm=plan.algorithm, **attrs
        ):
            effect = _prepared(plan, network)
            if effect is None:
                _replay_ops(plan, network, 0, verify_sizes)
            else:
                _apply(effect, network)
    finally:
        if checkpoints is not None:
            network.checkpoints = None
    return network.stats.time - start_time


# -- prepared replay ---------------------------------------------------------
#
# A plan is a static schedule: on a fresh, fault-free machine its stats,
# final node memories and observer calls depend only on (plan, params,
# topology).  So the first clean replay per machine walks the plan once
# on a private network and keeps that effect on the plan instance
# (outside its fields, freed with it); every later clean replay applies
# it in O(nodes + links + phases).  ``execute_phase`` stays the only
# pricing code — this re-applies what it produced.


class _CallRecorder(list):
    """Observer keeping the engine's ``on_phase``/``on_local`` calls."""

    def on_phase(self, transfers, duration) -> None:
        self.append(("on_phase", tuple(transfers), duration))

    def on_local(self, elements, duration) -> None:
        self.append(("on_local", elements, duration))


def _prepared(plan: CompiledPlan, network: EnsembleNetwork):
    """The memoised effect of a clean replay of ``plan`` on ``network``'s
    machine, or None when this call must walk the plan itself.

    Only a plain network that is empty, fault-free, without integrity
    checking or checkpoints and at time zero qualifies (at time zero
    ``merge``'s float additions equal the walk's).  A walk that raises
    stores nothing; the caller's own walk then raises the same error
    with the same partial state.
    """
    if not (
        type(network) is EnsembleNetwork
        and (network.faults is None or network.faults.is_empty)
        and network.integrity is None
        and network.checkpoints is None
        and network.stats.time == 0
        and not any(len(mem) for mem in network.memories)
    ):
        return None
    memo = plan.__dict__.setdefault("_prepared", {})
    key = (network.params, network.topology.spec)
    effect = memo.get(key)
    if effect is None:
        private = EnsembleNetwork(network.params, topology=network.topology)
        private.observer = calls = _CallRecorder()
        try:
            _replay_ops(plan, private, 0, True)
        except Exception:
            return None
        # Concurrent preparers build identical effects; the last wins.
        effect = (private.stats, private.snapshot_memories(), tuple(calls))
        memo[key] = effect
    return effect


def _apply(effect, network: EnsembleNetwork) -> None:
    stats, memories, calls = effect
    network.stats.merge(stats)
    network.restore_memories(memories)
    observer = network.observer
    if observer is not None:
        for hook, arg, duration in calls:
            if hook == "on_phase":
                observer.on_phase(list(arg), duration)
            else:
                observer.on_local(arg, duration)


def _replay_ops(
    plan: CompiledPlan, network: EnsembleNetwork, mask: int, verify_sizes: bool
) -> None:
    for op in plan.ops:
        if isinstance(op, PhaseOp):
            messages = [
                Message(m.src ^ mask, m.dst ^ mask, m.keys)
                for m in op.messages
            ]
            if verify_sizes:
                for msg, pm in zip(messages, op.messages):
                    have = _held_elements(network, msg.src, msg.keys)
                    if have is not None and have != pm.elements:
                        raise PlanReplayError(
                            f"message {msg.src}->{msg.dst} carries {have} "
                            f"element(s) but the plan recorded {pm.elements}"
                        )
            network.execute_phase(messages, exclusive=op.exclusive)
        elif isinstance(op, PlaceOp):
            network.place(
                op.node ^ mask, Block(op.key, virtual_size=op.size)
            )
        elif isinstance(op, CollectOp):
            network.memories[op.node ^ mask].pop(op.key)
        elif isinstance(op, CopyOp):
            network.charge_copy({n ^ mask: c for n, c in op.per_node})
        elif isinstance(op, LocalOp):
            costs = (
                op.costs
                if isinstance(op.costs, float)
                else {n ^ mask: c for n, c in op.costs}
            )
            elements = (
                op.elements
                if op.elements is None or isinstance(op.elements, int)
                else {n ^ mask: c for n, c in op.elements}
            )
            network.execute_local(costs, elements)
        elif isinstance(op, IdleOp):
            network.idle_phase()
        elif isinstance(op, RemapOp):
            mask ^= op.mask
        else:
            raise PlanReplayError(f"unknown op in plan: {op!r}")


def _held_elements(network: EnsembleNetwork, node: int, keys) -> int | None:
    try:
        return sum(network.memories[node].get(key).size for key in keys)
    except KeyError:
        return None  # let the engine raise its canonical error


# -- fault-ladder integration ----------------------------------------------------


@dataclass(frozen=True)
class DegradedReplay:
    """Outcome of one served request.

    Returned by :func:`replay_degraded`,
    :func:`repro.workloads.serve_workload` and
    :func:`repro.plans.batch.serve`.
    """

    algorithm: str
    requested: str
    #: Tiers skipped by the proactive feasibility check, plus — if the
    #: replay itself aborted on a fault — the tier whose replay failed.
    skipped: tuple[str, ...]
    stats: TransferStats
    #: True when the cached/compiled plan replayed to completion; False
    #: when a mid-replay fault forced a direct fault-tolerant run.
    replayed: bool
    #: True when the plan came out of the cache rather than a fresh capture.
    cache_hit: bool
    #: Recovery accounting when serving with ``recovery=`` (else None).
    recovery: object | None = None
    #: Resume-mode final-state verification verdict (None when the run
    #: was not served through the recovery executor).
    verified: bool | None = None

    @property
    def degraded(self) -> bool:
        return self.algorithm != self.requested or bool(self.skipped)

    @property
    def resolved(self) -> str:
        """How the request completed: the recovery verdict when served
        resume-based, else ``clean``, ``degraded`` (a lower tier's plan
        replayed) or ``ladder`` (a direct fault-tolerant run)."""
        if self.recovery is not None:
            return self.recovery.resolved
        if not self.degraded:
            return "clean"
        return "degraded" if self.replayed else "ladder"


def replay_degraded(
    params: MachineParams,
    before: Layout,
    after: Layout | None = None,
    *,
    faults: FaultPlan,
    algorithm: str = "auto",
    cache=None,
    policy=None,
    packet_size: int | None = None,
    observer=None,
    recovery=None,
    topology=None,
) -> DegradedReplay:
    """Serve a transpose under faults from cached plans where possible.

    The PR 1 ladder (MPT -> DPT -> SPT -> router) is walked *before*
    execution using the fault plan's link/node sets — the same proactive
    feasibility check the planner uses — but instead of re-planning the
    surviving tier from scratch, its :class:`CompiledPlan` is fetched
    from ``cache`` (compiled and stored on miss) and replayed on a fresh
    faulted network.  Only a fault that aborts the replay mid-flight
    (possible for strategies the ladder cannot pre-check) falls back to
    one direct fault-tolerant run.

    ``recovery`` (a :class:`~repro.recovery.policy.RecoveryPolicy`)
    switches the serve from restart-based to *resume-based*: proactive
    tier degradation is skipped entirely — the requested tier's plan is
    executed under :func:`repro.recovery.executor.execute_with_recovery`,
    which backs off transient faults and rewrites the remaining schedule
    around permanent ones.  The ladder is taken only when recovery
    itself gives up or its final-state verification fails; the returned
    :class:`DegradedReplay` then carries the recovery report with
    ``resolved="ladder"``.

    ``observer`` is installed on every network this call creates (the
    replay network and, if needed, the direct-fallback network); pass an
    :class:`~repro.obs.instrumentation.Instrumentation` hub to get a
    ``serve`` span annotated with tier selection, cache outcome and
    fault counters, with the replay/transpose spans nested inside.
    """
    from repro.plans.cache import plan_key
    from repro.plans.recorder import capture_transpose, synthetic_matrix
    from repro.recovery.executor import (
        RecoveryFailedError,
        execute_with_recovery,
    )
    from repro.topology import parse_topology
    from repro.transpose.planner import (
        default_after_layout,
        degrade_strategy,
        select_tier,
        transpose,
    )

    topo = parse_topology(topology, before.n)
    on_cube = topo.name == "cube"
    if recovery is not None and not on_cube:
        raise ValueError(
            "resume-based recovery rewrites cube schedules (checkpoint "
            "surgery, XOR relabeling) and is unavailable on topology "
            f"{topo.spec!r}; serve with recovery=None instead"
        )
    target = after if after is not None else default_after_layout(before)
    name, skipped = select_tier(
        algorithm, before, target, params.port_model, topology=topo
    )
    requested = name if algorithm == "auto" else algorithm
    if not faults.is_empty:
        if not faults.surviving_connected():
            raise DisconnectedCubeError(
                "the surviving topology is not strongly connected; no "
                f"transpose can complete ({faults.describe()})"
            )
        if recovery is None and on_cube:
            name, more = degrade_strategy(name, before.n, faults)
            skipped = (*skipped, *more)

    key = plan_key(
        params,
        before,
        target,
        name,
        policy=policy,
        packet_size=packet_size,
        topology=topo.spec,
    )
    instr = (
        observer
        if isinstance(observer, Instrumentation)
        else NULL_INSTRUMENTATION
    )
    cache_obs = instr if instr.enabled else None
    # The attr is named fault_spec, not faults: on_fault calls
    # span.count("faults") on every open span, which would collide with
    # a string-valued "faults" annotation the moment a fault fires.
    with instr.span(
        "serve", category="run", requested=requested, tier=name,
        skipped=list(skipped), fault_spec=faults.describe(),
        mode="resume" if recovery is not None else "restart",
    ) as serve_span:
        plan = (
            cache.get(key, observer=cache_obs) if cache is not None else None
        )
        cache_hit = plan is not None
        serve_span.annotate(cache_hit=cache_hit)
        if plan is None:
            _, plan = capture_transpose(
                params,
                synthetic_matrix(before),
                target,
                algorithm=name,
                policy=policy,
                packet_size=packet_size,
                topology=topo,
            )
            if cache is not None:
                cache.put(key, plan, observer=cache_obs)

        network = EnsembleNetwork(params, faults=faults, topology=topo)
        network.observer = observer
        report = None
        try:
            if recovery is None:
                replay_plan(plan, network)
            else:
                outcome = execute_with_recovery(plan, network, policy=recovery)
                report = outcome.report
                serve_span.annotate(
                    resolved=report.resolved, verified=outcome.verified
                )
            if recovery is None or outcome.verified:
                return DegradedReplay(
                    algorithm=name,
                    requested=requested,
                    skipped=skipped,
                    stats=network.stats,
                    replayed=True,
                    cache_hit=cache_hit,
                    recovery=report,
                    verified=None if recovery is None else True,
                )
        except (RecoveryFailedError, FaultError, RoutingStalledError) as exc:
            if recovery is None:
                serve_span.annotate(replay_aborted=name)
            else:
                report = getattr(exc, "report", report)
                serve_span.annotate(recovery_failed=type(exc).__name__)
        # Safety net: one direct fault-tolerant run on a fresh network,
        # exactly as the planner does when a schedule aborts mid-flight
        # (a failed recovery may also have left partial state behind).
        if recovery is not None:
            if report is not None:
                report.resolved = "ladder"
            if instr.enabled:
                instr.recovery("ladder", tier=name, aborted=name)
        direct = EnsembleNetwork(params, faults=faults, topology=topo)
        direct.observer = observer
        result = transpose(
            direct,
            synthetic_matrix(before),
            after,
            algorithm=requested,
            policy=policy,
            packet_size=packet_size,
        )
        return DegradedReplay(
            algorithm=result.algorithm,
            requested=requested,
            skipped=(*skipped, name),
            stats=direct.stats,
            replayed=False,
            cache_hit=cache_hit,
            recovery=report,
            verified=None if recovery is None else False,
        )
