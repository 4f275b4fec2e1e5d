"""The universal routed fallback: transpose anything the cube can carry.

The scheduled algorithms each demand structure — SPT/DPT/MPT need the
``tr(x)`` pairwise pattern, the exchange algorithms a dimension-pair
plan.  When the planner must degrade below all of them (a fault plan has
broken every schedule, or the layout pair fits none), this module
computes each element's destination directly from the layout algebra
(owner and offset of the transposed index) and hands per-destination
blocks to the fault-tolerant e-cube router.  No disjointness lemma is
assumed, so no fault can invalidate it: as long as the surviving
topology is connected and every node is alive, the transfer completes —
slowly, with queueing and detours, but correctly.
"""

from __future__ import annotations

import numpy as np

from repro.layout.fields import Layout
from repro.layout.matrix import DistributedMatrix
from repro.machine.engine import EnsembleNetwork
from repro.machine.message import Block
from repro.machine.routing import RoutedTransfer, route_messages

__all__ = ["routed_universal_transpose"]


def routed_universal_transpose(
    network: EnsembleNetwork,
    dm: DistributedMatrix,
    after: Layout,
) -> DistributedMatrix:
    """Transpose by per-destination blocks over the routing logic.

    Works for every layout pair the planner accepts (pairwise,
    all-to-all, mixed encodings, rectangular with matching machine use):
    element ``w = (u || v)`` of the source simply travels to the node
    that owns ``w' = (v || u)`` under ``after``.  This is the terminal
    tier of the planner's degradation ladder.
    """
    before = dm.layout
    if network.params.n != before.n:
        raise ValueError("network dimension does not match the layout")
    if before.n != after.n:
        raise ValueError("source and target layouts use different machines")
    p, q = before.p, before.q
    PQ = 1 << before.m
    L = before.local_size
    N = before.num_procs

    # Invert the source placement: which element sits in each local slot.
    w = np.arange(PQ, dtype=np.int64)
    owners = before.owner_array(w)
    offsets = before.offset_array(w)
    w_of_slot = np.empty(PQ, dtype=np.int64)
    w_of_slot[owners * L + offsets] = w
    u, v = w_of_slot >> q, w_of_slot & ((1 << q) - 1)
    w_prime = (v << p) | u
    dest_node = after.owner_array(w_prime).reshape(N, L)
    dest_offset = after.offset_array(w_prime).reshape(N, L)

    out = np.empty_like(dm.local_data)
    transfers: list[RoutedTransfer] = []
    arrivals: list[tuple[int, tuple, np.ndarray]] = []
    for x in range(N):
        for y in np.unique(dest_node[x]):
            y = int(y)
            sel = dest_node[x] == y
            if y == x:
                out[x][dest_offset[x][sel]] = dm.local_data[x][sel]
                continue
            key = ("fb", x, y)
            network.place(x, Block(key, data=dm.local_data[x][sel]))
            transfers.append(RoutedTransfer(x, y, (key,)))
            arrivals.append((y, key, dest_offset[x][sel]))
    if transfers:
        route_messages(network, transfers)
    for y, key, offs in arrivals:
        out[y][offs] = network.memory(y).pop(key).data
    return DistributedMatrix(after, out)
