"""Capture a running algorithm into a :class:`CompiledPlan`.

:class:`RecordingNetwork` is a drop-in :class:`~repro.machine.engine.EnsembleNetwork`
that logs every operation an algorithm performs — communication phases,
block placements and collections, local-work charges — as plan ops.  No
algorithm needs modification: the one_dim/two_dim/exchange/mixed/routed
transposes and the ``repro.comm`` tree algorithms all

* move blocks through ``place`` / ``execute_phase`` /
  ``memory(x).pop(...)``, and
* charge local work through ``charge_copy`` / ``execute_local``,

which are exactly the methods this subclass intercepts.  The engine's
*internal* block movement inside ``execute_phase`` is deliberately not
recorded — it is implied by the :class:`~repro.plans.ir.PhaseOp` and
re-performed by the replay executor.

Capture runs on a healthy machine: the recorded schedule is the clean
static schedule of the paper, which the fault-aware entry points
(:func:`repro.plans.replay.replay_degraded`) then replay on faulted
networks after tier selection.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

import numpy as np

from repro.layout.fields import Layout
from repro.layout.matrix import DistributedMatrix
from repro.machine.engine import EnsembleNetwork
from repro.machine.message import Block, Message
from repro.machine.params import MachineParams
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
    PlanMessage,
    canonical_key,
)

__all__ = [
    "RecordingNetwork",
    "capture_permutation",
    "capture_transpose",
    "synthetic_matrix",
]


class _RecordingMemory:
    """Proxy over :class:`~repro.machine.memory.NodeMemory` that records
    the algorithm's explicit pops and puts as plan ops."""

    __slots__ = ("_mem", "_ops", "_payloads")

    def __init__(self, mem, ops: list, payloads: dict | None = None) -> None:
        self._mem = mem
        self._ops = ops
        self._payloads = payloads

    # -- recorded mutations ------------------------------------------------

    def pop(self, key: Hashable) -> Block:
        block = self._mem.pop(key)
        self._ops.append(CollectOp(self._mem.node, canonical_key(key)))
        return block

    def put(self, block: Block) -> None:
        self._mem.put(block)
        key = canonical_key(block.key)
        self._ops.append(PlaceOp(self._mem.node, block.size, key))
        if self._payloads is not None and block.data is not None:
            self._payloads.setdefault(key, []).append(block.data)

    def replace(self, block: Block) -> None:
        self._mem.replace(block)
        key = canonical_key(block.key)
        self._ops.append(CollectOp(self._mem.node, key))
        self._ops.append(PlaceOp(self._mem.node, block.size, key))
        if self._payloads is not None and block.data is not None:
            self._payloads.setdefault(key, []).append(block.data)

    def clear(self) -> None:
        for key in self._mem.keys():
            self.pop(key)

    # -- pass-through reads ------------------------------------------------

    @property
    def node(self) -> int:
        return self._mem.node

    def get(self, key: Hashable) -> Block:
        return self._mem.get(key)

    def keys(self) -> list[Hashable]:
        return self._mem.keys()

    def blocks(self) -> list[Block]:
        return self._mem.blocks()

    def total_elements(self) -> int:
        return self._mem.total_elements()

    def __contains__(self, key: Hashable) -> bool:
        return key in self._mem

    def __iter__(self):
        return iter(self._mem)

    def __len__(self) -> int:
        return len(self._mem)


class RecordingNetwork(EnsembleNetwork):
    """A cube network that compiles whatever runs on it into a plan.

    Only *successful* operations are recorded: an aborted phase (link
    conflict, fault) raises before its op is appended, so a plan never
    contains work that did not happen.
    """

    def __init__(
        self,
        params: MachineParams,
        *,
        faults=None,
        record_payloads: bool = False,
        topology=None,
    ) -> None:
        super().__init__(params, faults=faults, topology=topology)
        self.ops: list = []
        #: Optional payload ledger: canonical key -> the real arrays each
        #: successive placement of that key carried, in placement order.
        #: The recovery executor (:mod:`repro.recovery.executor`) binds
        #: these back to :class:`~repro.plans.ir.PlaceOp`s to replay a
        #: plan with real data, enabling bit-identical verification of a
        #: recovered run against the fault-free original.
        self.payloads: dict[Hashable, list] | None = (
            {} if record_payloads else None
        )

    # -- interception ------------------------------------------------------

    def memory(self, node: int) -> _RecordingMemory:
        return _RecordingMemory(super().memory(node), self.ops, self.payloads)

    def place(self, node: int, block: Block) -> None:
        super().place(node, block)
        key = canonical_key(block.key)
        self.ops.append(PlaceOp(node, block.size, key))
        if self.payloads is not None and block.data is not None:
            self.payloads.setdefault(key, []).append(block.data)

    def execute_phase(
        self, messages: Sequence[Message], *, exclusive: bool = False
    ) -> float:
        if not messages:
            return super().execute_phase(messages, exclusive=exclusive)
        try:
            plan_messages = tuple(
                PlanMessage(
                    msg.src,
                    msg.dst,
                    sum(
                        self.memories[msg.src].get(key).size
                        for key in msg.keys
                    ),
                    tuple(canonical_key(key) for key in msg.keys),
                )
                for msg in messages
            )
        except KeyError:
            plan_messages = None  # let the engine raise its own error
        duration = super().execute_phase(messages, exclusive=exclusive)
        assert plan_messages is not None
        self.ops.append(PhaseOp(plan_messages, exclusive))
        return duration

    def idle_phase(self) -> float:
        duration = super().idle_phase()
        self.ops.append(IdleOp())
        return duration

    def execute_local(
        self,
        costs: Mapping[int, float] | float,
        elements: Mapping[int, int] | int | None = None,
    ) -> float:
        duration = super().execute_local(costs, elements)
        if isinstance(costs, (int, float)):
            canon_costs: float | tuple = float(costs)
        else:
            canon_costs = tuple(
                sorted((int(k), float(v)) for k, v in costs.items())
            )
        if elements is None or isinstance(elements, int):
            canon_elements = elements
        else:
            canon_elements = tuple(
                sorted((int(k), int(v)) for k, v in elements.items())
            )
        self.ops.append(LocalOp(canon_costs, canon_elements))
        return duration

    def charge_copy(self, per_node_elements: Mapping[int, int]) -> float:
        duration = super().charge_copy(per_node_elements)
        self.ops.append(
            CopyOp(
                tuple(
                    sorted(
                        (int(k), int(v))
                        for k, v in per_node_elements.items()
                    )
                )
            )
        )
        return duration

    # -- compilation -------------------------------------------------------

    def compile(
        self,
        *,
        algorithm: str,
        before: Layout,
        after: Layout,
        requested: str = "",
        comm_class: str = "",
        dtype: str = "float64",
    ) -> CompiledPlan:
        """Freeze the recorded ops into an immutable plan."""
        from repro import __version__

        return CompiledPlan(
            algorithm=algorithm,
            machine=MachineSpec.from_params(
                self.params, topology=self.topology.spec
            ),
            before=LayoutSpec.from_layout(before),
            after=LayoutSpec.from_layout(after),
            ops=tuple(self.ops),
            requested=requested or algorithm,
            comm_class=comm_class,
            dtype=dtype,
            code_version=__version__,
            format_version=PLAN_FORMAT_VERSION,
        )


def synthetic_matrix(before: Layout, dtype=np.float64) -> DistributedMatrix:
    """A cheap deterministic payload for planning-only captures.

    Plan capture needs real arrays to drive the algorithms, but the
    schedule depends only on the layouts and machine — not on the
    values — so an ``arange`` matrix is sufficient and allocation-cheap.
    """
    shape = (1 << before.p, 1 << before.q)
    data = np.arange(shape[0] * shape[1], dtype=dtype).reshape(shape)
    return DistributedMatrix.from_global(data, before)


def capture_transpose(
    params: MachineParams,
    dm: DistributedMatrix,
    after: Layout | None = None,
    *,
    algorithm: str = "auto",
    policy=None,
    packet_size: int | None = None,
    observer=None,
    topology=None,
):
    """Run one planned transpose on a clean machine and capture its plan.

    Returns ``(TransposeResult, CompiledPlan)``.  The result is the full
    verified outcome (real data moved, invariants checked); the plan is
    the payload-free schedule that reproduces the result's
    :class:`~repro.machine.metrics.TransferStats` under
    :func:`repro.plans.replay.replay_plan`.  ``observer`` (e.g. an
    :class:`~repro.obs.instrumentation.Instrumentation` hub) is installed
    on the recording network, so even a planning run is fully traced.
    """
    from repro.transpose.planner import default_after_layout, transpose

    before = dm.layout
    target = after if after is not None else default_after_layout(before)
    network = RecordingNetwork(params, topology=topology)
    if observer is not None:
        network.observer = observer
    result = transpose(
        network,
        dm,
        after,
        algorithm=algorithm,
        policy=policy,
        packet_size=packet_size,
    )
    plan = network.compile(
        algorithm=result.algorithm,
        before=before,
        after=target,
        requested=algorithm,
        comm_class=result.comm_class.value,
        dtype=str(dm.local_data.dtype),
    )
    return result, plan


def capture_permutation(
    params: MachineParams,
    permutation,
    *,
    kind: str = "address",
    dm: DistributedMatrix | None = None,
    before: Layout | None = None,
    policy=None,
    observer=None,
    topology=None,
):
    """Run one :mod:`repro.permute` algorithm and capture its plan.

    The permute counterpart of :func:`capture_transpose` — the
    algorithms run **unmodified** on a :class:`RecordingNetwork`, so the
    captured :class:`~repro.plans.ir.CompiledPlan` replays, caches,
    recovers and serves exactly like a transpose plan.  ``kind`` selects
    the algorithm family:

    * ``"address"`` — a bit permutation of the element address space,
      executed by the exchange machinery.  ``permutation`` is either the
      string ``"reverse"`` (:func:`~repro.permute.bit_reversal.bit_reversal_permute`)
      or a position-permutation mapping for
      :func:`~repro.transpose.exchange.plan_exchange_sequence`;
    * ``"dims"`` — a cube dimension permutation ``delta`` applied by
      parallel swappings
      (:func:`~repro.permute.dimperm.apply_dimension_permutation`);
    * ``"nodes"`` — an arbitrary node permutation ``pi`` via two
      all-to-all rounds
      (:func:`~repro.permute.general.arbitrary_node_permutation`).

    Data comes from ``dm`` or, when omitted, a synthetic matrix on
    ``before``.  Returns ``(result, plan)`` where ``result`` is whatever
    the algorithm returns (a :class:`DistributedMatrix` for
    ``"address"``, the permuted per-node array otherwise).
    """
    from repro.permute.bit_reversal import bit_reversal_permute
    from repro.permute.dimperm import apply_dimension_permutation
    from repro.permute.general import arbitrary_node_permutation
    from repro.transpose.exchange import (
        ExchangeExecutor,
        plan_exchange_sequence,
    )

    if dm is None:
        if before is None:
            raise ValueError("capture_permutation needs dm= or before=")
        dm = synthetic_matrix(before)
    layout = dm.layout
    network = RecordingNetwork(params, topology=topology)
    if observer is not None:
        network.observer = observer
    if kind == "address":
        if permutation == "reverse":
            result = bit_reversal_permute(network, dm, policy=policy)
            algorithm = "permute-reverse"
        else:
            executor = ExchangeExecutor(network, dm, policy=policy)
            executor.run(plan_exchange_sequence(permutation, layout))
            result = executor.finish(layout)
            algorithm = "permute-address"
    elif kind == "dims":
        result = apply_dimension_permutation(
            network, dm.local_data, permutation
        )
        algorithm = "permute-dims"
    elif kind == "nodes":
        result = arbitrary_node_permutation(
            network, dm.local_data, permutation
        )
        algorithm = "permute-nodes"
    else:
        raise ValueError(
            f"unknown permutation kind {kind!r} "
            "(expected address, dims or nodes)"
        )
    plan = network.compile(
        algorithm=algorithm,
        before=layout,
        after=layout,
        comm_class="permute",
        dtype=str(dm.local_data.dtype),
    )
    return result, plan
