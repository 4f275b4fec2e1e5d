"""The phase-synchronous cube network simulator.

Algorithms are sequences of *phases*.  In one phase every node may send
messages to cube neighbours; the engine

1. validates every message crosses a real interconnect link (the
   default interconnect is the Boolean n-cube; see
   :mod:`repro.topology`),
2. rejects (or, on request, serializes) directed-link conflicts,
3. physically moves the named blocks between node memories,
4. charges time under the machine's cost model:

   * message cost = (packets * tau) + (elements * t_c), where packets is
     ``ceil(elements / B_m)`` — or 1 on a pipelined (bit-serial) machine;
   * **one-port**: a node's sends serialize, its receives serialize, and
     (bidirectional links) sending overlaps receiving, so the node's
     phase time is ``max(sum sends, sum receives)``;
   * **n-port**: each directed link is an independent channel, so the
     binding constraint is the per-link serialized load;
   * phase time = maximum over these loads; total time accumulates.

Local work (buffer copies, local transposes) is charged through
:meth:`EnsembleNetwork.execute_local`, which takes per-node costs and adds the
maximum (nodes work concurrently).
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, Sequence

from repro.machine.faults import (
    FaultPlan,
    LinkFailureError,
    NodeFailureError,
)
from repro.machine.memory import NodeMemory
from repro.machine.message import Block, Message
from repro.machine.metrics import TransferStats
from repro.machine.params import MachineParams, PortModel
from repro.topology import Hypercube, Topology

__all__ = ["EnsembleNetwork", "LinkConflictError"]


class LinkConflictError(RuntimeError):
    """Two messages of one phase contend for the same directed link."""


class EnsembleNetwork:
    """A simulated ensemble machine over a pluggable interconnect.

    The interconnect is a :class:`~repro.topology.base.Topology`; the
    default is the Boolean n-cube of the machine's dimension, which
    preserves the historical cube-only behaviour bit-for-bit.  The
    topology's structural invariants are validated at construction.

    Messages sharing a directed link within a phase serialize on it (each
    keeps its own start-ups) — that is the §8.1 unbuffered send pattern.
    Pipelined schedules that *guarantee* edge-disjointness (SPT/DPT/MPT
    cycles) pass ``exclusive=True`` to :meth:`execute_phase`, turning any
    link sharing into a :class:`LinkConflictError` — a free correctness
    check of the paper's disjointness lemmas on every run.
    """

    def __init__(
        self,
        params: MachineParams,
        *,
        faults: FaultPlan | None = None,
        integrity=None,
        topology: Topology | None = None,
    ) -> None:
        if topology is None:
            topology = Hypercube(params.n)
        topology.validate()
        if topology.num_nodes != params.num_procs:
            raise ValueError(
                f"topology {topology.spec!r} has {topology.num_nodes} "
                f"node(s) but the machine parameters describe "
                f"{params.num_procs}"
            )
        #: The interconnect graph every message must respect.
        self.topology = topology
        if faults is not None:
            if faults.n != params.n:
                raise ValueError(
                    f"fault plan is for a {faults.n}-cube but the machine "
                    f"is a {params.n}-cube"
                )
            plan_spec = (
                faults.topology.spec
                if faults.topology is not None
                else "cube"
            )
            if plan_spec != topology.spec:
                raise ValueError(
                    f"fault plan targets topology {plan_spec!r} but the "
                    f"machine interconnect is {topology.spec!r}"
                )
        self.params = params
        self.memories = [NodeMemory(x) for x in range(params.num_procs)]
        self.stats = TransferStats()
        #: Optional :class:`repro.machine.faults.FaultPlan`; deliveries over
        #: a faulted link or node raise the typed fault errors.
        self.faults = faults
        #: Optional :class:`repro.integrity.manager.IntegrityManager`
        #: arming end-to-end checksums on every delivery.  A fault plan
        #: carrying corruption faults auto-arms one — silent corruption
        #: can never run unchecked — and callers may pass their own to
        #: force checksums on a healthy machine (overhead measurement).
        if integrity is None and faults is not None and faults.corruption_faults:
            from repro.integrity.manager import IntegrityManager

            integrity = IntegrityManager()
        self.integrity = integrity
        #: Optional observer with ``on_phase(transfers, duration)``,
        #: ``on_local(elements, duration)`` and (optionally)
        #: ``on_fault(src, dst, phase, kind)`` hooks — see
        #: :class:`repro.machine.trace.TraceRecorder`.
        self.observer = None
        #: Optional :class:`repro.recovery.checkpoint.CheckpointManager`;
        #: when set, every completed communication phase offers it a
        #: consistent snapshot boundary via ``phase_completed(self)``.
        self.checkpoints = None

    # -- state ------------------------------------------------------------

    @property
    def time(self) -> float:
        """Modelled elapsed time in seconds."""
        return self.stats.time

    @property
    def phase_index(self) -> int:
        """Index the *next* communication phase will execute at.

        This is the simulator's clock for fault injection: a
        :class:`~repro.machine.faults.FaultPlan` keys fault activity by
        this counter.
        """
        return self.stats.phases

    def memory(self, node: int) -> NodeMemory:
        return self.memories[node]

    def place(self, node: int, block: Block) -> None:
        """Deposit a block into a node's memory (initial distribution)."""
        self.memories[node].put(block)

    def total_elements(self) -> int:
        return sum(mem.total_elements() for mem in self.memories)

    # -- execution ---------------------------------------------------------

    def execute_phase(
        self, messages: Sequence[Message], *, exclusive: bool = False
    ) -> float:
        """Run one communication phase; returns its duration.

        An empty phase is legal and free (algorithms may emit per-step
        phases where some steps are entirely local).  With
        ``exclusive=True`` any two messages sharing a directed link raise
        :class:`LinkConflictError` instead of serializing.
        """
        if not messages:
            return 0.0
        params = self.params
        topology = self.topology

        # Fault check first: delivering over a dead resource must fail
        # before any block moves, so an aborted phase leaves every memory
        # untouched and the planner can retry with a different schedule.
        if self.faults is not None and not self.faults.is_empty:
            phase_now = self.stats.phases
            for msg in messages:
                for node in (msg.src, msg.dst):
                    nf = self.faults.node_fault(node, phase_now)
                    if nf is not None:
                        self._notice_fault(msg.src, msg.dst, phase_now, "node")
                        raise NodeFailureError(node, phase_now, nf.kind)
                lf = self.faults.link_fault(msg.src, msg.dst, phase_now)
                if lf is not None:
                    self._notice_fault(msg.src, msg.dst, phase_now, "link")
                    raise LinkFailureError(
                        msg.src, msg.dst, phase_now, lf.kind
                    )

        # Quarantined links are permanently dead from the phase after
        # their quarantine: scheduling over one is the same pre-movement,
        # memories-untouched abort as a permanent link fault.
        integrity = self.integrity
        if integrity is not None and integrity.has_quarantined:
            phase_now = self.stats.phases
            for msg in messages:
                if integrity.is_quarantined(msg.src, msg.dst):
                    self._notice_fault(
                        msg.src, msg.dst, phase_now, "quarantine"
                    )
                    integrity.check_link(msg.src, msg.dst, phase_now)

        # Validate links and gather per-link loads.
        link_cost: dict[tuple[int, int], float] = {}
        link_msgs: dict[tuple[int, int], int] = {}
        costed: list[tuple[Message, int, int, float]] = []
        first_sender: dict[Hashable, Message] = {}
        for msg in messages:
            topology.check_link(msg.src, msg.dst)  # raises on non-links
            link = (msg.src, msg.dst)
            if link in link_cost and exclusive:
                raise LinkConflictError(
                    f"two messages use directed link {msg.src}->{msg.dst} "
                    "in the same phase"
                )
            for key in msg.keys:
                earlier = first_sender.get((msg.src, key))
                if earlier is not None:
                    raise ValueError(
                        f"block key {key!r} at node {msg.src} is carried by "
                        f"two messages of one phase: "
                        f"{earlier.src}->{earlier.dst} and "
                        f"{msg.src}->{msg.dst}"
                    )
                first_sender[(msg.src, key)] = msg
            elements = sum(
                self.memories[msg.src].get(key).size for key in msg.keys
            )
            if elements <= 0:
                raise ValueError(
                    f"message {msg.src}->{msg.dst} carries zero elements"
                )
            packets = params.packets_for(elements)
            cost = params.message_time(elements)
            if integrity is not None:
                # Checksummed (ARQ) delivery: verify at delivery, pay for
                # retransmissions on this link, quarantine repeat
                # offenders, abort the phase (memories untouched) when
                # the retransmit budget is exhausted.
                phase_now = self.stats.phases
                fault = (
                    self.faults.corruption_fault(msg.src, msg.dst, phase_now)
                    if self.faults is not None
                    else None
                )
                blocks = [self.memories[msg.src].get(key) for key in msg.keys]
                try:
                    cost += integrity.deliver(
                        msg, blocks, elements, cost, fault, phase_now,
                        self.stats,
                    )
                except Exception:
                    self._notice_fault(
                        msg.src, msg.dst, phase_now, "corruption"
                    )
                    raise
            link_cost[link] = link_cost.get(link, 0.0) + cost
            link_msgs[link] = link_msgs.get(link, 0) + 1
            costed.append((msg, elements, packets, cost))

        # Per-node / per-port serialized loads.
        send_load: dict[int, float] = {}
        recv_load: dict[int, float] = {}
        for (src, dst), cost in link_cost.items():
            send_load[src] = send_load.get(src, 0.0) + cost
            recv_load[dst] = recv_load.get(dst, 0.0) + cost

        if params.port_model is PortModel.ONE_PORT:
            duration = 0.0
            for node in set(send_load) | set(recv_load):
                duration = max(
                    duration,
                    send_load.get(node, 0.0),
                    recv_load.get(node, 0.0),
                )
        else:  # N_PORT: per directed link
            duration = max(link_cost.values())

        # Move payloads.  Pop everything first so a symmetric exchange
        # (x <-> y in the same phase) does not see the other side's
        # freshly delivered blocks.
        in_flight: list[tuple[int, Block]] = []
        for msg, _, _, _ in costed:
            for key in msg.keys:
                in_flight.append((msg.dst, self.memories[msg.src].pop(key)))
        for dst, block in in_flight:
            self.memories[dst].put(block)

        for msg, elements, packets, _ in costed:
            self.stats.record_message(msg.src, msg.dst, elements, packets)
        self.stats.record_phase(duration)
        if self.observer is not None:
            self.observer.on_phase(
                [(msg.src, msg.dst, elements) for msg, elements, _, _ in costed],
                duration,
            )
        if self.checkpoints is not None:
            self.checkpoints.phase_completed(self)
        return duration

    def _notice_fault(
        self, src: int, dst: int, phase: int, kind: str
    ) -> None:
        """Record a fault encounter in stats and (if any) the observer."""
        self.stats.record_fault(node=kind == "node")
        if self.observer is not None:
            on_fault = getattr(self.observer, "on_fault", None)
            if on_fault is not None:
                on_fault(src, dst, phase, kind)

    def idle_phase(self) -> float:
        """Advance the phase clock without moving data (zero duration).

        Fault-tolerant routing uses this when every pending transfer is
        blocked by transient faults: the round must still pass for the
        faults to heal, since fault activity is keyed by the phase index.
        """
        self.stats.record_phase(0.0)
        if self.observer is not None:
            self.observer.on_phase([], 0.0)
        if self.checkpoints is not None:
            self.checkpoints.phase_completed(self)
        return 0.0

    def execute_local(
        self,
        costs: Mapping[int, float] | float,
        elements: Mapping[int, int] | int | None = None,
    ) -> float:
        """Charge concurrent local work; returns the charged duration.

        ``costs`` is either a per-node mapping (time in seconds) or a
        single float applied as the common cost.  Nodes work in parallel,
        so the charge is the maximum.  ``elements`` optionally reports
        the element count the work touched (a total or per-node mapping)
        so metrics and traces account local work faithfully instead of
        recording zero.
        """
        if isinstance(costs, (int, float)):
            duration = float(costs)
        else:
            duration = max(costs.values(), default=0.0)
        if elements is None:
            total_elements = 0
        elif isinstance(elements, int):
            total_elements = elements
        else:
            total_elements = sum(elements.values())
        if total_elements < 0:
            raise ValueError("local work cannot touch a negative element count")
        if duration < 0:
            raise ValueError("local work cannot take negative time")
        self.stats.record_copy(total_elements, duration)
        if self.observer is not None and duration:
            self.observer.on_local(total_elements, duration)
        return duration

    def charge_copy(self, per_node_elements: Mapping[int, int]) -> float:
        """Charge a concurrent buffer-copy of the given element counts."""
        duration = 0.0
        total = 0
        for node, count in per_node_elements.items():
            if count < 0:
                raise ValueError("cannot copy a negative number of elements")
            if not 0 <= node < self.topology.num_nodes:
                raise ValueError(f"node {node} outside {self.topology.spec}")
            duration = max(duration, self.params.copy_time(count))
            total += count
        self.stats.record_copy(total, duration)
        if self.observer is not None and duration:
            self.observer.on_local(total, duration)
        return duration

    # -- checkpointing -----------------------------------------------------

    def snapshot_memories(self) -> list[dict[Hashable, Block]]:
        """Copy-on-write snapshots of every node memory, node-ordered.

        Cheap by construction: blocks are immutable in transit, so each
        snapshot is a shallow key-map copy (see
        :meth:`repro.machine.memory.NodeMemory.snapshot`).
        """
        return [mem.snapshot() for mem in self.memories]

    def restore_memories(self, snapshots: list[dict[Hashable, Block]]) -> None:
        """Reset every node memory to a :meth:`snapshot_memories` state.

        Only the memories roll back; the accumulated
        :class:`~repro.machine.metrics.TransferStats` keep counting — a
        recovery pays for the phases it wastes, it does not un-spend them.
        """
        if len(snapshots) != len(self.memories):
            raise ValueError(
                f"snapshot covers {len(snapshots)} node(s) but the machine "
                f"has {len(self.memories)}"
            )
        for mem, snap in zip(self.memories, snapshots):
            mem.restore(snap)

    # -- verification helpers ----------------------------------------------

    def holdings(self) -> dict[int, list[Hashable]]:
        """Map node -> keys currently held (for assertions in tests)."""
        return {x: mem.keys() for x, mem in enumerate(self.memories)}

    def find_block(self, key: Hashable) -> int:
        """Node currently holding ``key`` (KeyError if nowhere)."""
        for x, mem in enumerate(self.memories):
            if key in mem:
                return x
        raise KeyError(f"block {key!r} is not in any node memory")


def exchange_messages(
    pairs: Iterable[tuple[int, int]],
    keys_low_to_high: Mapping[int, Sequence[Hashable]],
    keys_high_to_low: Mapping[int, Sequence[Hashable]],
) -> list[Message]:
    """Build the symmetric message list for a set of exchange pairs.

    For each pair ``(a, b)`` with ``a < b``: ``a`` sends
    ``keys_low_to_high[a]`` to ``b`` and ``b`` sends
    ``keys_high_to_low[b]`` to ``a``.  Pairs with an empty key list on one
    side degenerate to a single send (virtual elements need not be
    communicated, §5).
    """
    messages = []
    for a, b in pairs:
        if a > b:
            a, b = b, a
        up = tuple(keys_low_to_high.get(a, ()))
        down = tuple(keys_high_to_low.get(b, ()))
        if up:
            messages.append(Message(a, b, up))
        if down:
            messages.append(Message(b, a, down))
    return messages
