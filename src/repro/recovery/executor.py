"""Resume-based plan execution: checkpoint, roll back, repair, continue.

:func:`execute_with_recovery` runs a :class:`~repro.plans.ir.CompiledPlan`
op by op on a (possibly faulted) network, checkpointing on cadence.  On
a :class:`~repro.machine.faults.FaultError` it does **not** restart:

* a **transient** fault's window end is read off the attached
  :class:`~repro.machine.faults.FaultPlan`; the executor inserts idle
  phases until the window closes (the phase clock is the fault clock),
  rolls the memories back to the newest checkpoint and resumes from its
  cursor — replaying at most ``checkpoint_every`` phases instead of the
  whole run;
* a **permanent** fault triggers *plan surgery*
  (:mod:`repro.recovery.surgery`): the remaining op suffix is rewritten
  around the dead links (detour expansion or XOR relabeling), completed
  phases' work is kept, and execution continues on the repaired suffix.

Every action is accounted: ``checkpoints`` / ``rollbacks`` /
``replayed_phases`` / ``wasted_elements`` counters on the network's
:class:`~repro.machine.metrics.TransferStats`, a
:class:`RecoveryReport` for callers, ``recover`` spans and
``recovery_mttr`` model-time histograms on an attached
:class:`~repro.obs.instrumentation.Instrumentation` hub.  When the
budget runs out (``max_rollbacks``) or surgery finds no valid rewrite,
:class:`RecoveryFailedError` tells the caller to take the PR 1
degradation ladder instead.

The finished run **self-verifies**: the final key→node state (residual
blocks plus collected blocks) must equal the symbolic execution of the
original plan, so a recovery can never silently deliver blocks to the
wrong nodes.  With a payload ledger (``payloads=``, see
:class:`~repro.plans.recorder.RecordingNetwork`) the run moves real
arrays, enabling bit-identical comparison against a fault-free run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Mapping

import numpy as np

from repro.integrity.errors import CorruptedCheckpointError
from repro.machine.engine import EnsembleNetwork
from repro.machine.faults import (
    FaultError,
    FaultKind,
    LinkFailureError,
    NodeFailureError,
)
from repro.machine.message import Block, Message
from repro.obs.instrumentation import instrumentation_of
from repro.plans.ir import (
    CollectOp,
    CompiledPlan,
    CopyOp,
    IdleOp,
    LocalOp,
    PhaseOp,
    PlaceOp,
    PlanOp,
    RemapOp,
)
from repro.plans.replay import PlanReplayError
from repro.plans.symbolic import SymbolicError, simulate_ops
from repro.recovery.checkpoint import CheckpointManager
from repro.recovery.policy import RecoveryPolicy
from repro.recovery.surgery import SurgeryError, physicalize, plan_surgery

__all__ = [
    "RecoveryFailedError",
    "RecoveryOutcome",
    "RecoveryReport",
    "execute_with_recovery",
    "outcomes_equivalent",
]


class RecoveryFailedError(RuntimeError):
    """Recovery gave up; the caller should take the degradation ladder.

    Carries the :class:`RecoveryReport` accumulated so far as
    ``report``, so the failed attempt's cost is still visible.
    """

    def __init__(self, message: str, report: "RecoveryReport") -> None:
        super().__init__(message)
        self.report = report


@dataclass
class RecoveryReport:
    """What recovery did during one plan execution."""

    fault_encounters: int = 0
    checkpoints_taken: int = 0
    rollbacks: int = 0
    replayed_phases: int = 0
    wasted_elements: int = 0
    backoff_phases: int = 0
    #: One entry per successful surgery: strategy, cost, detour/relabel data.
    surgeries: list[dict] = field(default_factory=list)
    #: Model-time repair durations (fault encounter -> caught back up).
    mttr: list[float] = field(default_factory=list)
    #: How the run ultimately completed: ``clean`` (no fault touched it),
    #: ``resume`` (transient backoff only), ``surgery-detour`` /
    #: ``surgery-relabel`` (a permanent fault was rewired), or —  set by
    #: callers that ladder after :class:`RecoveryFailedError` —
    #: ``ladder``.
    resolved: str = "clean"

    @property
    def recovered(self) -> bool:
        return self.resolved not in ("clean", "ladder")

    def as_dict(self) -> dict:
        return {
            "fault_encounters": self.fault_encounters,
            "checkpoints_taken": self.checkpoints_taken,
            "rollbacks": self.rollbacks,
            "replayed_phases": self.replayed_phases,
            "wasted_elements": self.wasted_elements,
            "backoff_phases": self.backoff_phases,
            "surgeries": [dict(s) for s in self.surgeries],
            "mttr": list(self.mttr),
            "resolved": self.resolved,
            "recovered": self.recovered,
        }


@dataclass
class RecoveryOutcome:
    """Result of one :func:`execute_with_recovery` run."""

    plan: CompiledPlan
    report: RecoveryReport
    #: key -> (physical node, block) for every collected block.
    collected: dict[Hashable, tuple[int, Block]]
    #: key -> (physical node, size) for blocks still resident at the end.
    residual: dict[Hashable, tuple[int, int]]
    #: Final-state check against the symbolic run of the original plan.
    verified: bool
    #: Modelled time the run took (includes backoff and replays).
    elapsed: float


def outcomes_equivalent(a: RecoveryOutcome, b: RecoveryOutcome) -> bool:
    """Do two runs end in the same state (payload-exact when real)?"""
    if set(a.collected) != set(b.collected):
        return False
    if a.residual != b.residual:
        return False
    for key, (node, block) in a.collected.items():
        other_node, other = b.collected[key]
        if node != other_node or block.size != other.size:
            return False
        if block.data is not None and other.data is not None:
            if not np.array_equal(block.data, other.data):
                return False
    return True


def execute_with_recovery(
    plan: CompiledPlan,
    network: EnsembleNetwork,
    *,
    policy: RecoveryPolicy | None = None,
    payloads: Mapping[Hashable, list] | None = None,
) -> RecoveryOutcome:
    """Run ``plan`` on ``network`` with checkpointed fault recovery.

    ``payloads`` optionally binds real arrays to placements (a ledger
    keyed by block key, one array per successive placement of the key —
    see ``RecordingNetwork(record_payloads=True)``); without it the run
    is virtual, exactly like :func:`~repro.plans.replay.replay_plan`.
    Raises :class:`RecoveryFailedError` when the policy's budgets are
    exhausted or no plan surgery validates.
    """
    if policy is None:
        policy = RecoveryPolicy()
    if not plan.machine.compatible_with(network.params):
        raise PlanReplayError(
            f"plan was compiled for {plan.machine.as_dict(with_name=False)} "
            f"but the network is {network.params.name!r} "
            f"(n={network.params.n})"
        )
    n = network.params.n
    instr = instrumentation_of(network)
    report = RecoveryReport()
    manager = CheckpointManager(
        every=policy.checkpoint_every, retain=policy.max_checkpoints
    )
    ops: tuple[PlanOp, ...] = plan.ops
    cursor = 0
    mask = 0
    consumed: dict[Hashable, int] = {}
    collected: dict[Hashable, tuple[int, Block]] = {}
    #: Open repair episodes: (cursor the run must pass, model start time).
    episodes: list[list] = []
    start_time = network.stats.time

    manager.take(network, cursor=0, mask=0)
    report.checkpoints_taken += 1

    while cursor < len(ops):
        op = ops[cursor]
        if isinstance(op, RemapOp):
            mask ^= op.mask
            cursor += 1
            continue
        try:
            _execute_op(op, network, mask, payloads, consumed, collected)
        except FaultError as exc:
            ops, cursor, mask = _handle_fault(
                exc, network, policy, manager, report, instr,
                ops, cursor, mask, consumed, collected, episodes,
            )
            continue
        cursor += 1
        if isinstance(op, (PhaseOp, IdleOp)):
            if manager.maybe_take(
                network,
                cursor=cursor,
                mask=mask,
                consumed=consumed,
                collected=collected,
            ):
                report.checkpoints_taken += 1
        if episodes:
            now = network.stats.time
            still_open = []
            for episode in episodes:
                if cursor > episode[0]:
                    duration = now - episode[1]
                    report.mttr.append(duration)
                    if instr.enabled:
                        instr.metrics.histogram(
                            "recovery_mttr"
                        ).observe(duration)
                else:
                    still_open.append(episode)
            episodes = still_open

    residual = {
        key: (x, mem.get(key).size)
        for x, mem in enumerate(network.memories)
        for key in mem.keys()
    }
    verified = _verify_final_state(plan, residual, collected, n)
    if instr.enabled:
        if report.recovered:
            instr.metrics.counter("recovered_runs").inc()
        if report.replayed_phases:
            instr.metrics.counter("recovery_replayed_phases").inc(
                report.replayed_phases
            )
        if report.wasted_elements:
            instr.metrics.counter("recovery_wasted_elements").inc(
                report.wasted_elements
            )
    return RecoveryOutcome(
        plan=plan,
        report=report,
        collected=collected,
        residual=residual,
        verified=verified,
        elapsed=network.stats.time - start_time,
    )


def _execute_op(
    op: PlanOp,
    network: EnsembleNetwork,
    mask: int,
    payloads: Mapping[Hashable, list] | None,
    consumed: dict,
    collected: dict,
) -> None:
    if isinstance(op, PhaseOp):
        messages = [
            Message(m.src ^ mask, m.dst ^ mask, m.keys) for m in op.messages
        ]
        network.execute_phase(messages, exclusive=op.exclusive)
    elif isinstance(op, PlaceOp):
        node = op.node ^ mask
        if payloads is None:
            network.place(node, Block(op.key, virtual_size=op.size))
        else:
            ledger = payloads.get(op.key)
            index = consumed.get(op.key, 0)
            if ledger is None or index >= len(ledger):
                raise PlanReplayError(
                    f"payload ledger has no array for placement "
                    f"#{index + 1} of key {op.key!r}"
                )
            network.place(node, Block(op.key, data=ledger[index]))
            consumed[op.key] = index + 1
    elif isinstance(op, CollectOp):
        node = op.node ^ mask
        collected[op.key] = (node, network.memories[node].pop(op.key))
    elif isinstance(op, CopyOp):
        network.charge_copy({x ^ mask: c for x, c in op.per_node})
    elif isinstance(op, LocalOp):
        costs = (
            op.costs
            if isinstance(op.costs, float)
            else {x ^ mask: c for x, c in op.costs}
        )
        elements = (
            op.elements
            if op.elements is None or isinstance(op.elements, int)
            else {x ^ mask: c for x, c in op.elements}
        )
        network.execute_local(costs, elements)
    elif isinstance(op, IdleOp):
        network.idle_phase()
    else:
        raise PlanReplayError(f"unknown op in plan: {op!r}")


def _suffix_cost(ops, start: int, stop: int) -> tuple[int, int]:
    """(phase count, message element-hops) of ``ops[start:stop]``."""
    phases = 0
    elements = 0
    for op in ops[start:stop]:
        if isinstance(op, (PhaseOp, IdleOp)):
            phases += 1
        if isinstance(op, PhaseOp):
            elements += sum(m.elements for m in op.messages)
    return phases, elements


def _rollback(
    network, manager, report, ops, failed_cursor, consumed, collected
):
    """Restore the newest valid checkpoint; returns its cursor state.

    Checkpoints are digest-validated on restore; if every retained
    snapshot fails its seal, recovery refuses to resume from corrupted
    state and fails over to the caller's degradation ladder.
    """
    try:
        ckpt = manager.rollback(network)
    except CorruptedCheckpointError as err:
        raise RecoveryFailedError(
            f"cannot resume from checkpointed state: {err}", report
        ) from err
    replayed, wasted = _suffix_cost(ops, ckpt.cursor, failed_cursor)
    network.stats.record_rollback(replayed)
    network.stats.record_wasted(wasted)
    report.rollbacks += 1
    report.replayed_phases += replayed
    report.wasted_elements += wasted
    consumed.clear()
    consumed.update(ckpt.consumed)
    collected.clear()
    collected.update(ckpt.collected)
    return ckpt


def _handle_fault(
    exc: FaultError,
    network: EnsembleNetwork,
    policy: RecoveryPolicy,
    manager: CheckpointManager,
    report: RecoveryReport,
    instr,
    ops: tuple[PlanOp, ...],
    cursor: int,
    mask: int,
    consumed: dict,
    collected: dict,
    episodes: list,
) -> tuple[tuple[PlanOp, ...], int, int]:
    report.fault_encounters += 1
    episodes.append([cursor, network.stats.time])
    if report.rollbacks >= policy.max_rollbacks:
        raise RecoveryFailedError(
            f"rollback budget ({policy.max_rollbacks}) exhausted at "
            f"phase {network.phase_index}: {exc}",
            report,
        )
    kind = getattr(exc, "kind", FaultKind.PERMANENT)
    if kind is FaultKind.TRANSIENT:
        return _backoff_and_resume(
            exc, network, policy, manager, report, instr,
            ops, cursor, consumed, collected,
        )
    return _repair_and_resume(
        exc, network, policy, manager, report, instr,
        ops, cursor, mask, consumed, collected, episodes,
    )


def _backoff_and_resume(
    exc, network, policy, manager, report, instr,
    ops, cursor, consumed, collected,
):
    """Idle out the transient window, then resume from the checkpoint."""
    fault = None
    phase = network.phase_index
    if isinstance(exc, LinkFailureError):
        fault = network.faults.link_fault(exc.src, exc.dst, phase)
    elif isinstance(exc, NodeFailureError):
        fault = network.faults.node_fault(exc.node, phase)
    wait = 1 if fault is None or fault.end is None else fault.end - phase
    wait = max(wait, 1)
    if wait > policy.max_backoff_phases:
        raise RecoveryFailedError(
            f"transient window needs {wait} idle phase(s), over the "
            f"backoff budget ({policy.max_backoff_phases}): {exc}",
            report,
        )
    with instr.span(
        "recover",
        category="recovery",
        action="backoff",
        phase=phase,
        wait=wait,
    ):
        for _ in range(wait):
            network.idle_phase()
            network.stats.record_stall()
        report.backoff_phases += wait
        ckpt = _rollback(
            network, manager, report, ops, cursor, consumed, collected
        )
    if instr.enabled:
        instr.recovery(
            "backoff", phase=phase, wait=wait, resume_cursor=ckpt.cursor
        )
    if report.resolved == "clean":
        report.resolved = "resume"
    return ops, ckpt.cursor, ckpt.mask


def _repair_and_resume(
    exc, network, policy, manager, report, instr,
    ops, cursor, mask, consumed, collected, episodes,
):
    """Roll back, rewrite the remaining suffix around dead resources."""
    if not policy.allow_surgery:
        raise RecoveryFailedError(
            f"permanent fault with surgery disabled: {exc}", report
        )
    phase = network.phase_index
    with instr.span(
        "recover", category="recovery", action="surgery", phase=phase
    ) as span:
        ckpt = _rollback(
            network, manager, report, ops, cursor, consumed, collected
        )
        remaining = physicalize(ops[ckpt.cursor :], ckpt.mask)
        holdings: dict[Hashable, int] = {}
        sizes: dict[Hashable, int] = {}
        for x, mem in enumerate(network.memories):
            for key in mem.keys():
                holdings[key] = x
                sizes[key] = mem.get(key).size
        faults = network.faults
        # Quarantined links (repeat corruption offenders) are permanently
        # dead for all planning purposes: surgery must detour or relabel
        # around them exactly as it does for fail-stop link faults.
        dead_links = set(
            faults.permanent_links() if faults is not None else ()
        )
        dead_nodes = (
            faults.permanent_nodes() if faults is not None else set()
        )
        if network.integrity is not None:
            dead_links |= network.integrity.quarantined_links()
        try:
            result = plan_surgery(
                remaining,
                n=network.params.n,
                dead_links=dead_links,
                dead_nodes=dead_nodes,
                holdings=holdings,
                sizes=sizes,
                allow_relabel=policy.allow_relabel,
            )
        except SurgeryError as err:
            raise RecoveryFailedError(
                f"plan surgery found no valid rewrite: {err}", report
            ) from err
        span.annotate(
            strategy=result.strategy,
            added_element_hops=result.added_element_hops,
        )
    report.surgeries.append(
        {
            "phase": phase,
            "strategy": result.strategy,
            "added_element_hops": result.added_element_hops,
            "detoured_messages": result.detoured_messages,
            "relabel_mask": result.relabel_mask,
        }
    )
    report.resolved = f"surgery-{result.strategy}"
    if instr.enabled:
        instr.recovery(
            "surgery",
            phase=phase,
            strategy=result.strategy,
            added_element_hops=result.added_element_hops,
        )
    # Old checkpoints index the pre-surgery op sequence; re-prime on the
    # repaired one.
    manager.reset()
    manager.take(
        network, cursor=0, mask=0, consumed=consumed, collected=collected
    )
    report.checkpoints_taken += 1
    # The repaired sequence starts fresh at cursor 0: any open episode
    # closes as soon as its first op lands.
    for episode in episodes:
        episode[0] = -1
    return result.ops, 0, 0


def _verify_final_state(
    plan: CompiledPlan,
    residual: Mapping[Hashable, tuple[int, int]],
    collected: Mapping[Hashable, tuple[int, Block]],
    n: int,
) -> bool:
    """Final key→node state must match the plan's symbolic execution."""
    try:
        expected = simulate_ops(plan.ops, {}, n=n)
    except SymbolicError:
        return False
    actual_residual = {key: node for key, (node, _) in residual.items()}
    actual_collected = {key: node for key, (node, _) in collected.items()}
    return (
        expected.residual == actual_residual
        and expected.collected == actual_collected
    )
