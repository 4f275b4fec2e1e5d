"""Combined transposition and Gray/binary code conversion (§6.3).

A matrix with rows in binary and columns in Gray code stores block
``(u, v)`` on processor ``(u || G(v))``; its transpose with the same
encoding scheme needs block ``(v, u)`` on ``(v || G(u))``.  Performing
the code conversions separately costs ``2n - 2`` routing steps on top of
nothing — conversion (n/2 - 1), conversion (n/2 - 1), transpose (n).
The paper's combined algorithm interleaves the corrections and finishes
in ``n`` steps: iteration ``j`` fixes bit ``j`` of both the row and the
column processor fields.

Both algorithms here work for any mix of binary/Gray encodings on
either axis (including plain-to-plain, where the combined algorithm
degenerates to the step-by-step SPT).  Correction routing is greedy
most-significant-bit-first; because ``G`` and ``G^{-1}`` are
prefix-preserving bijections, at every step each node holds at most one
block, so the schedule is conflict-free — the engine's exclusive mode
verifies this on every run.
"""

from __future__ import annotations

import numpy as np

from repro.layout.fields import Layout
from repro.layout.matrix import DistributedMatrix
from repro.machine.engine import EnsembleNetwork
from repro.machine.message import Block, Message
from repro.transpose.two_dim import pairwise_maps

__all__ = [
    "mixed_code_transpose_combined",
    "mixed_code_transpose_naive",
]


def _setup(network: EnsembleNetwork, dm: DistributedMatrix, after: Layout):
    before = dm.layout
    if network.params.n != before.n:
        raise ValueError("network dimension does not match the layout")
    if before.n % 2:
        raise ValueError("two-dimensional transpose needs an even cube")
    partner, dest_offset = pairwise_maps(before, after)
    return partner, dest_offset


def _correction_phase(
    network: EnsembleNetwork,
    cur: np.ndarray,
    partner: np.ndarray,
    dim: int,
) -> None:
    """Move every block whose current bit ``dim`` mismatches its target."""
    messages = []
    movers = []
    for x in range(len(cur)):
        here = int(cur[x])
        if ((here >> dim) & 1) != ((int(partner[x]) >> dim) & 1):
            dst = here ^ (1 << dim)
            messages.append(Message(here, dst, (("mx", x),)))
            movers.append((x, dst))
    network.execute_phase(messages, exclusive=True)
    for x, dst in movers:
        cur[x] = dst


def _place_blocks(network: EnsembleNetwork, dm: DistributedMatrix) -> None:
    # Every node participates: even a block whose final destination is its
    # own node can travel through intermediate conversion stages.
    for x in range(dm.layout.num_procs):
        network.place(x, Block(("mx", x), data=dm.local_data[x]))


def _collect(
    network: EnsembleNetwork,
    dm: DistributedMatrix,
    after: Layout,
    partner: np.ndarray,
    dest_offset: np.ndarray,
) -> DistributedMatrix:
    N, L = dm.local_data.shape
    out = np.empty_like(dm.local_data)
    for y in range(N):
        x = int(partner[y])  # the transpose permutation is an involution
        data = network.memory(y).pop(("mx", x)).data
        out[y][dest_offset[x]] = data
    return DistributedMatrix(after, out)


def mixed_code_transpose_combined(
    network: EnsembleNetwork,
    dm: DistributedMatrix,
    after: Layout,
    *,
    packet_size: int | None = None,
) -> DistributedMatrix:
    """The n-step combined algorithm of §6.3.

    Iteration ``j`` (descending) routes first the row-field dimension
    ``j + n/2`` and then the column-field dimension ``j``, each time
    moving exactly the blocks whose current processor bit disagrees with
    the destination ``(G^{-1}(x_c) || G(x_r))`` — the Gray-code induced
    extra horizontal/vertical exchanges of Figures 6-7 emerge from the
    bit comparison rather than an explicit parity case analysis.

    ``packet_size`` enables the pipelining the paper mentions and omits
    "for simplicity": blocks split into packets, packet ``c`` entering
    the (per-source conflict-free) correction path at cycle ``c``; the
    schedule runs in the engine's exclusive mode, so the claimed
    disjointness is machine-checked.
    """
    partner, dest_offset = _setup(network, dm, after)
    n = dm.layout.n
    half = n // 2
    if packet_size is None:
        cur = np.arange(len(partner), dtype=np.int64)
        _place_blocks(network, dm)
        for j in range(half - 1, -1, -1):
            _correction_phase(network, cur, partner, j + half)
            _correction_phase(network, cur, partner, j)
        if not np.array_equal(cur, partner):
            raise AssertionError("combined routing did not reach destinations")
        return _collect(network, dm, after, partner, dest_offset)
    if packet_size < 1:
        raise ValueError("packet size must be at least 1")

    # Pipelined: precompute each source's node path through the global
    # dimension order (j+half, j for j descending), with idle slots.
    N, L = dm.local_data.shape
    dims_order = [
        d for j in range(half - 1, -1, -1) for d in (j + half, j)
    ]
    packets: list[dict] = []
    for x in range(N):
        target = int(partner[x])
        here = x
        slots: list[int | None] = []
        for d in dims_order:
            if ((here >> d) & 1) != ((target >> d) & 1):
                here ^= 1 << d
                slots.append(d)
            else:
                slots.append(None)
        count = max(1, -(-L // packet_size))
        for c, piece in enumerate(np.array_split(dm.local_data[x], count)):
            if piece.size == 0:
                continue
            key = ("mxp", x, c)
            network.place(x, Block(key, data=piece))
            packets.append(
                {"key": key, "src": x, "inject": c, "slots": slots, "at": x}
            )
    max_cycle = max(pk["inject"] + len(pk["slots"]) for pk in packets)
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

    out = np.empty_like(dm.local_data)
    for y in range(N):
        x = int(partner[y])
        mem = network.memory(y)
        chunks = [
            mem.pop(("mxp", x, c)).data
            for c in range(L)
            if ("mxp", x, c) in mem
        ]
        data = np.concatenate(chunks) if chunks else dm.local_data[y][:0]
        if data.size != L:
            raise AssertionError("pipelined routing lost data")
        out[y][dest_offset[x]] = data
    return DistributedMatrix(after, out)


def mixed_code_transpose_naive(
    network: EnsembleNetwork,
    dm: DistributedMatrix,
    after: Layout,
) -> DistributedMatrix:
    """The (2n - 2)-step naive algorithm (§6.3).

    Stage 1 re-encodes the row field within column subcubes so both
    fields carry the same code as the eventual column field; stage 2 is
    the plain n-step transpose; stage 3 re-encodes the (new) row field.
    Each re-encoding fixes bits most-significant-first and skips the top
    bit (binary and Gray codes agree there), costing ``n/2 - 1`` steps.
    """
    partner, dest_offset = _setup(network, dm, after)
    n = dm.layout.n
    half = n // 2
    mask = (1 << half) - 1
    cur = np.arange(len(partner), dtype=np.int64)
    _place_blocks(network, dm)

    # Stage 1 target: swap the row field's encoding for the encoding the
    # column field of the destination uses, i.e. row field becomes
    # G(x_r) when the destination column field is G(x_r) (and
    # analogously for the inverse direction).  That is precisely the
    # destination's column field, so aim the row field at it.
    stage1 = ((partner & mask) << half) | (cur & mask)
    for j in range(half - 2, -1, -1):
        _correction_phase(network, cur, stage1, j + half)
    # Stage 2: exchange fields (the plain transpose on the re-encoded
    # embedding): target has row/column fields swapped.
    stage2 = ((cur & mask) << half) | (cur >> half)
    # Take a snapshot: stage-2 targets must be fixed, not chase cur.
    stage2 = stage2.copy()
    for j in range(half - 1, -1, -1):
        _correction_phase(network, cur, stage2, j + half)
        _correction_phase(network, cur, stage2, j)
    # Stage 3: fix the row field to the final destination.
    for j in range(half - 2, -1, -1):
        _correction_phase(network, cur, partner, j + half)
    if not np.array_equal(cur, partner):
        raise AssertionError("naive routing did not reach destinations")
    return _collect(network, dm, after, partner, dest_offset)
