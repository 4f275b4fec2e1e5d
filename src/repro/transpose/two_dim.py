"""Two-dimensional matrix transposition (§6.1): SPT, DPT, MPT.

With equally many row and column partitions and the same assignment
scheme on both axes, communication is restricted to distinct
source/destination pairs: node ``x`` sends *all* its data to
``tr(x) = (x_c || x_r)`` at distance ``2 H(x)``.  The three algorithms
trade start-ups against bandwidth:

============  ======  ==========================================  =========================
algorithm     paths   pipelined time (packets of B elements)       requirement
============  ======  ==========================================  =========================
SPT           1       ``(ceil(L/B) + n - 1)(B t_c + tau)``         n concurrent ops/node
DPT           2       ``(ceil(L/2B) + n - 1)(B t_c + tau)``        bidirectional links
MPT           2H(x)   ``(2kH+1)(tau + L t_c / (4kH))`` per class   n-port, Lemmas 9-14
============  ======  ==========================================  =========================

Every pipelined schedule here is executed with the engine's *exclusive*
phase mode, so the edge-disjointness lemmas are machine-checked on every
run.  :func:`two_dim_transpose_spt` with ``packet_size=None`` is the
non-pipelined step-by-step variant implemented on the iPSC (§8.2),
including its ``2 L t_copy`` array-rearrangement charge.
"""

from __future__ import annotations

import numpy as np

from repro.cube.paths import (
    dpt_itineraries,
    mpt_paths,
    spt_itinerary,
    transpose_hamming,
    transpose_partner,
)
from repro.cube.topology import path_dims_to_nodes
from repro.layout.classify import CommClass, classify_transpose
from repro.layout.fields import Layout
from repro.layout.matrix import DistributedMatrix
from repro.machine.engine import EnsembleNetwork
from repro.machine.message import Block, Message
from repro.machine.routing import RoutedTransfer, route_messages
from repro.obs.instrumentation import instrumentation_of

__all__ = [
    "pairwise_maps",
    "two_dim_transpose_spt",
    "two_dim_transpose_dpt",
    "two_dim_transpose_mpt",
    "two_dim_transpose_router",
]


def pairwise_maps(
    before: Layout, after: Layout
) -> tuple[np.ndarray, np.ndarray]:
    """Destination node per source node, and destination offset per element.

    Valid only for PAIRWISE layout pairs (``R_a == R_b``): all elements
    of node ``x`` share one destination.  Returns ``partner`` of shape
    ``(N,)`` and ``dest_offset`` of shape ``(N, L)``.
    """
    info = classify_transpose(before, after)
    if info.comm_class not in (CommClass.PAIRWISE, CommClass.LOCAL):
        raise ValueError(
            f"two-dimensional pairwise transpose needs R_a == R_b, got "
            f"{info.comm_class.value} communication; use the exchange or "
            "block algorithms instead"
        )
    p, q = before.p, before.q
    PQ = 1 << before.m
    L = before.local_size
    w = np.arange(PQ, dtype=np.int64)
    owners = before.owner_array(w)
    offsets = before.offset_array(w)
    w_of_slot = np.empty(PQ, dtype=np.int64)
    w_of_slot[owners * L + offsets] = w
    u, v = w_of_slot >> q, w_of_slot & ((1 << q) - 1)
    w_prime = (v << p) | u
    dest_node = after.owner_array(w_prime).reshape(-1, L)
    dest_offset = after.offset_array(w_prime).reshape(-1, L)
    partner = dest_node[:, 0].copy()
    if np.any(dest_node != partner[:, None]):
        raise AssertionError("pairwise classification violated by layouts")
    return partner, dest_offset


def _finalize(
    network: EnsembleNetwork,
    after: Layout,
    received: np.ndarray,
    dest_offset: np.ndarray,
    partner: np.ndarray,
    *,
    charge_copy: bool,
) -> DistributedMatrix:
    """Scatter received per-source-order data into final local offsets."""
    N, L = received.shape
    out = np.empty_like(received)
    for y in range(N):
        x = int(partner[y])  # the node whose data y received (tr is an involution)
        out[y][dest_offset[x]] = received[y]
    if charge_copy:
        network.charge_copy({y: L for y in range(N)})
    return DistributedMatrix(after, out)


def _check_network(network: EnsembleNetwork, before: Layout) -> None:
    if network.params.n != before.n:
        raise ValueError("network dimension does not match the layout")


def _check_partner_is_tr(partner: np.ndarray, n: int) -> None:
    """The SPT/DPT/MPT path families route toward tr(x) specifically."""
    expected = [transpose_partner(x, n) for x in range(len(partner))]
    if not np.array_equal(partner, expected):
        raise ValueError(
            "destination map is pairwise but not tr(x); use the exchange "
            "or block transpose algorithms for this layout pair"
        )


def two_dim_transpose_spt(
    network: EnsembleNetwork,
    dm: DistributedMatrix,
    after: Layout,
    *,
    packet_size: int | None = None,
    charge_copy: bool = False,
    greedy: bool = False,
) -> DistributedMatrix:
    """Single Path Transpose (§6.1.1).

    ``packet_size=None`` runs the step-by-step iPSC variant: the whole
    local array crosses one dimension per phase (n phases for the
    anti-diagonal), and with ``charge_copy=True`` the §8.2 two-sided
    array rearrangement is priced.  A packet size enables pipelining:
    packet ``c`` enters the (edge-disjoint) path at cycle ``c``.

    ``greedy`` drops the idle slots of the synchronized schedule — the
    paper's "nodes which are not on the anti-diagonal can either finish
    the transposition earlier in a 'greedy' manner, or synchronize".
    Off-diagonal nodes then complete in ``2 H(x)`` hops instead of ``n``;
    the SPT family's global edge-disjointness keeps even the greedy
    schedule conflict-free, but the port discipline no longer lines up,
    so greedy wants n-port communication (one-port serializes it).
    """
    from repro.cube.paths import spt_path

    before = dm.layout
    _check_network(network, before)
    partner, dest_offset = pairwise_maps(before, after)
    n = before.n
    _check_partner_is_tr(partner, n)
    make = (
        (lambda x: list(spt_path(x, n)))
        if greedy
        else (lambda x: spt_itinerary(x, n))
    )
    itineraries = {
        x: [make(x)]
        for x in range(before.num_procs)
        if transpose_hamming(x, n) > 0
    }
    if charge_copy:
        # Rearranging the 2D local array into a contiguous send buffer.
        network.charge_copy({x: before.local_size for x in itineraries})
    received = _run_pipelined(network, dm.local_data, itineraries, packet_size)
    return _finalize(
        network, after, received, dest_offset, partner, charge_copy=charge_copy
    )


def two_dim_transpose_dpt(
    network: EnsembleNetwork,
    dm: DistributedMatrix,
    after: Layout,
    *,
    packet_size: int | None = None,
) -> DistributedMatrix:
    """Dual Paths Transpose (§6.1.2): each node splits its data over the
    two mutually edge-disjoint paths (SPT order and its pairwise
    permutation), halving the transfer term."""
    before = dm.layout
    _check_network(network, before)
    partner, dest_offset = pairwise_maps(before, after)
    n = before.n
    _check_partner_is_tr(partner, n)
    itineraries = {
        x: dpt_itineraries(x, n)
        for x in range(before.num_procs)
        if transpose_hamming(x, n) > 0
    }
    received = _run_pipelined(network, dm.local_data, itineraries, packet_size)
    return _finalize(
        network, after, received, dest_offset, partner, charge_copy=False
    )


def two_dim_transpose_mpt(
    network: EnsembleNetwork,
    dm: DistributedMatrix,
    after: Layout,
    *,
    rounds: int = 1,
) -> DistributedMatrix:
    """Multiple Paths Transpose (§6.1.3) — the paper's headline algorithm.

    Node ``x`` splits its data into ``4 * rounds * H(x)`` packets and
    injects one packet per path during the two leading cycles of each
    ``2H(x)``-cycle period; the (2, 2H)-disjointness of Lemma 14
    guarantees a conflict-free schedule, which the engine verifies.
    Completion takes ``2 * rounds * H + 1`` cycles.
    """
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    before = dm.layout
    _check_network(network, before)
    partner, dest_offset = pairwise_maps(before, after)
    n = before.n
    _check_partner_is_tr(partner, n)
    N, L = dm.local_data.shape

    # Build per-packet itineraries: (inject cycle, path nodes, payload).
    packets: list[dict] = []
    arrival: dict[tuple[int, int], list[np.ndarray]] = {}
    max_cycle = 0
    for x in range(N):
        h = transpose_hamming(x, n)
        if h == 0:
            continue
        paths = [path_dims_to_nodes(x, dims) for dims in mpt_paths(x, n)]
        pieces = np.array_split(dm.local_data[x], 4 * rounds * h)
        idx = 0
        for r in range(rounds):
            for slot in (0, 1):
                for path in paths:
                    if idx >= len(pieces):
                        break
                    packets.append(
                        {
                            "src": x,
                            "seq": idx,
                            "inject": r * 2 * h + slot,
                            "path": path,
                            "size": pieces[idx].size,
                        }
                    )
                    if pieces[idx].size:
                        max_cycle = max(max_cycle, r * 2 * h + slot + 2 * h)
                    idx += 1
        assert idx == len(pieces)
        for i, piece in enumerate(pieces):
            arrival.setdefault((x, i), []).append(piece)

    # Place payloads and run the synchronized cycles.
    for pk in packets:
        if pk["size"] == 0:
            continue
        network.place(
            pk["src"],
            Block(("mpt", pk["src"], pk["seq"]), data=arrival[(pk["src"], pk["seq"])][0]),
        )
    with instrumentation_of(network).span(
        "mpt-pipeline",
        category="tree-level",
        cycles=max_cycle,
        packets=len(packets),
        rounds=rounds,
    ):
        for cycle in range(max_cycle):
            phase: list[Message] = []
            for pk in packets:
                if pk["size"] == 0:
                    continue
                hop = cycle - pk["inject"]
                if 0 <= hop < len(pk["path"]) - 1:
                    phase.append(
                        Message(
                            pk["path"][hop],
                            pk["path"][hop + 1],
                            (("mpt", pk["src"], pk["seq"]),),
                        )
                    )
            network.execute_phase(phase, exclusive=True)

    received = np.empty_like(dm.local_data)
    for y in range(N):
        x = int(partner[y])
        if x == y:
            received[y] = dm.local_data[y]
            continue
        mem = network.memory(y)
        chunks = []
        h = transpose_hamming(x, n)
        for seq in range(4 * rounds * h):
            key = ("mpt", x, seq)
            if key in mem:
                chunks.append(mem.pop(key).data)
        received[y] = np.concatenate(chunks)
    return _finalize(
        network, after, received, dest_offset, partner, charge_copy=False
    )


def two_dim_transpose_router(
    network: EnsembleNetwork,
    dm: DistributedMatrix,
    after: Layout,
) -> DistributedMatrix:
    """Transpose by handing whole blocks to the e-cube routing logic —
    the Fig. 14b / Fig. 16-18 baseline.  Conflicts queue; no schedule."""
    before = dm.layout
    _check_network(network, before)
    partner, dest_offset = pairwise_maps(before, after)
    N = before.num_procs
    transfers = []
    for x in range(N):
        y = int(partner[x])
        if y == x:
            continue
        network.place(x, Block(("rt", x), data=dm.local_data[x]))
        transfers.append(RoutedTransfer(x, y, (("rt", x),)))
    route_messages(network, transfers)
    received = np.empty_like(dm.local_data)
    for y in range(N):
        x = int(partner[y])
        if x == y:
            received[y] = dm.local_data[y]
        else:
            received[y] = network.memory(y).pop(("rt", x)).data
    return _finalize(
        network, after, received, dest_offset, partner, charge_copy=False
    )


def _run_pipelined(
    network: EnsembleNetwork,
    local_data: np.ndarray,
    itineraries: dict[int, list[list[int | None]]],
    packet_size: int | None,
) -> np.ndarray:
    """Drive SPT/DPT packet pipelines; returns per-node received arrays.

    ``itineraries[x]`` lists, per path, the globally synchronized
    dimension schedule (length ``n``; ``None`` slots idle).  Packet ``c``
    of every path enters at cycle ``c`` — the paper's schedule where "the
    packet with the same ordinal number of all the nodes uses the same
    dimension (or idles) during the same step".  The synchronization is
    what keeps the one-port SPT free of port contention.
    """
    N, L = local_data.shape
    packets: list[dict] = []
    for x, node_its in itineraries.items():
        shares = np.array_split(local_data[x], len(node_its))
        for pi, (slots, share) in enumerate(zip(node_its, shares)):
            dst = x
            for d in slots:
                if d is not None:
                    dst ^= 1 << d
            if packet_size is None:
                pieces = [share]
            else:
                if packet_size < 1:
                    raise ValueError("packet size must be at least 1")
                count = max(1, -(-share.size // packet_size))
                pieces = np.array_split(share, count)
            for c, piece in enumerate(pieces):
                if piece.size == 0:
                    continue
                key = ("pp", x, pi, c)
                network.place(x, Block(key, data=piece))
                packets.append(
                    {
                        "key": key,
                        "inject": c,
                        "slots": slots,
                        "at": x,
                        "dst": dst,
                    }
                )
    max_cycle = max(
        (pk["inject"] + len(pk["slots"]) for pk in packets), default=0
    )
    with instrumentation_of(network).span(
        "packet-pipeline",
        category="tree-level",
        cycles=max_cycle,
        packets=len(packets),
    ):
        for cycle in range(max_cycle):
            phase = []
            movers = []
            for pk in packets:
                s = cycle - pk["inject"]
                if 0 <= s < len(pk["slots"]) and pk["slots"][s] is not None:
                    src = pk["at"]
                    dst = src ^ (1 << pk["slots"][s])
                    phase.append(Message(src, dst, (pk["key"],)))
                    movers.append((pk, dst))
            network.execute_phase(phase, exclusive=True)
            for pk, dst in movers:
                pk["at"] = dst

    received = np.empty_like(local_data)
    by_dest: dict[int, list[dict]] = {}
    for pk in packets:
        by_dest.setdefault(pk["dst"], []).append(pk)
    for y in range(N):
        arrivals = by_dest.get(y)
        if arrivals is None:
            received[y] = local_data[y]  # diagonal node keeps its data
            continue
        mem = network.memory(y)
        arrivals.sort(key=lambda pk: (pk["key"][2], pk["key"][3]))
        received[y] = np.concatenate([mem.pop(pk["key"]).data for pk in arrivals])
    return received
