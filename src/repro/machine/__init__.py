"""Simulated Boolean-cube ensemble machine.

The paper's experiments ran on two 1987 machines — the Intel iPSC
(one-port, packet-oriented, 5 ms start-ups) and the Connection Machine
(bit-serial pipelined router).  Neither is available, so this subpackage
provides a deterministic link-level simulator with the exact cost model
the paper analyses: a start-up ``tau`` per packet of at most ``B_m``
elements, a transfer time ``t_c`` per element per link, optional local
copy cost ``t_copy`` per element, and a one-port or n-port, bidirectional
port model.

Algorithms express themselves as *phases* of neighbour-to-neighbour
messages; :class:`~repro.machine.engine.EnsembleNetwork` executes a phase,
verifies that every message crosses a real cube edge without link
conflicts, physically moves the payload blocks between node memories, and
charges time.  :mod:`repro.machine.routing` adds the store-and-forward
e-cube "routing logic" baseline that the paper measures against.
"""

from repro.machine.params import MachineParams, PortModel
from repro.machine.presets import connection_machine, custom_machine, intel_ipsc
from repro.machine.message import Block, Message
from repro.machine.memory import NodeMemory
from repro.machine.metrics import TransferStats
from repro.machine.faults import (
    DisconnectedCubeError,
    FaultError,
    FaultKind,
    FaultPlan,
    LinkFailureError,
    LinkFault,
    NodeFailureError,
    NodeFault,
    RoutingStalledError,
)
from repro.machine.trace import PhaseEvent, TraceRecorder
from repro.machine.engine import EnsembleNetwork, LinkConflictError
from repro.machine.routing import route_messages

__all__ = [
    "Block",
    "DisconnectedCubeError",
    "EnsembleNetwork",
    "FaultError",
    "FaultKind",
    "FaultPlan",
    "LinkConflictError",
    "LinkFailureError",
    "LinkFault",
    "MachineParams",
    "Message",
    "NodeFailureError",
    "NodeFault",
    "NodeMemory",
    "PhaseEvent",
    "PortModel",
    "RoutingStalledError",
    "TraceRecorder",
    "TransferStats",
    "connection_machine",
    "custom_machine",
    "intel_ipsc",
    "route_messages",
]
