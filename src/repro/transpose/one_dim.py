"""One-dimensional matrix transposition (§5).

With a one-dimensional partitioning the transpose is all-to-all
personalized communication: every node sends ``PQ/N^2`` elements to every
other node, whatever the assignment schemes before and after.  Two
implementations:

* :func:`one_dim_transpose_exchange` — element-level standard exchange
  algorithm (optimal within 2x for one-port), with the §8.1 buffered /
  unbuffered / optimum-threshold send policies;
* :func:`one_dim_transpose_sbnt` — block-level transpose routed by the
  spanning-balanced-n-tree algorithm of the §5 pseudocode (the n-port
  winner), via :func:`repro.comm.all_to_all.all_to_all_sbnt`.

:func:`block_transpose` is the general block-level driver: it works for
*any* pair of equal-``n`` layouts (including Gray and mixed encodings,
and the partially-overlapping ``I != 0`` cases) because it derives each
element's destination directly from the layout algebra and hands the
blocks to a cube router.
"""

from __future__ import annotations

import numpy as np

from repro.comm.all_to_all import all_to_all_sbnt, dimension_sweep
from repro.layout.fields import Layout
from repro.layout.matrix import DistributedMatrix
from repro.machine.engine import EnsembleNetwork
from repro.machine.message import Block
from repro.transpose.exchange import BufferPolicy, exchange_transpose

__all__ = [
    "block_convert",
    "block_transpose",
    "one_dim_transpose_exchange",
    "one_dim_transpose_sbnt",
]


def _check_one_dim(layout: Layout, role: str) -> None:
    if len(layout.fields) > 1:
        raise ValueError(
            f"{role} layout has {len(layout.fields)} processor fields; "
            "one-dimensional partitioning has a single field"
        )


def one_dim_transpose_exchange(
    network: EnsembleNetwork,
    dm: DistributedMatrix,
    after: Layout,
    *,
    policy: BufferPolicy | None = None,
    strategy: str = "blocked",
) -> DistributedMatrix:
    """Transpose a 1D-partitioned matrix by the standard exchange algorithm.

    Each of the ``n`` steps pairs one real-processor dimension with one
    virtual dimension and exchanges half of every node's data with a
    neighbour — the §5 pseudocode.  The default ``"blocked"`` strategy
    reproduces §5's exact step structure (step ``j`` sends ``2^{j-1}``
    contiguous fragments — the fragmentation behind the §8.1 unbuffered
    cost); ``"direct"`` instead targets each processor dimension's final
    position immediately, trading fewer local moves for many small runs.
    """
    _check_one_dim(dm.layout, "before")
    _check_one_dim(after, "after")
    return exchange_transpose(
        network, dm, after, policy=policy, strategy=strategy
    )


def _destinations(
    before: Layout, after: Layout, *, transposed: bool = True
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per (node, offset): element address, destination node, destination offset."""
    p, q = before.p, before.q
    PQ = 1 << before.m
    L = before.local_size
    w = np.arange(PQ, dtype=np.int64)
    owners = before.owner_array(w)
    offsets = before.offset_array(w)
    w_of_slot = np.empty(PQ, dtype=np.int64)
    w_of_slot[owners * L + offsets] = w  # slot-ordered element addresses
    if transposed:
        u, v = w_of_slot >> q, w_of_slot & ((1 << q) - 1)
        w_prime = (v << p) | u
    else:
        w_prime = w_of_slot
    dest_node = after.owner_array(w_prime)
    dest_offset = after.offset_array(w_prime)
    return w_of_slot, dest_node, dest_offset


def block_transpose(
    network: EnsembleNetwork,
    dm: DistributedMatrix,
    after: Layout,
    *,
    router: str = "exchange",
    charge_local: bool = False,
    transposed: bool = True,
) -> DistributedMatrix:
    """Transpose by grouping elements into destination blocks and routing.

    Works for any equal-``n`` layout pair: each node packages its
    elements by destination node (one block per destination, elements
    pre-sorted by destination offset) and the blocks travel by the chosen
    router — ``"exchange"`` (one-port dimension sweep) or ``"sbnt"``
    (n-port balanced-tree routing).  Final placement needs no further
    communication, only local scatter (free, or priced with
    ``charge_local=True``).
    """
    if router not in ("exchange", "sbnt"):
        raise ValueError(f"unknown router {router!r}")
    before = dm.layout
    if before.n != after.n:
        raise ValueError(
            "block_transpose requires the same number of processor "
            "dimensions before and after (introduce virtual elements "
            "otherwise, §5)"
        )
    if network.params.n != before.n:
        raise ValueError("network dimension does not match the layout")
    expected_shape = (before.q, before.p) if transposed else (before.p, before.q)
    if (after.p, after.q) != expected_shape:
        raise ValueError(
            f"after-layout is {2**after.p}x{2**after.q}, expected "
            f"{2**expected_shape[0]}x{2**expected_shape[1]}"
        )
    _, dest_node, dest_offset = _destinations(
        before, after, transposed=transposed
    )
    N, L = dm.local_data.shape
    dest_node = dest_node.reshape(N, L)
    dest_offset = dest_offset.reshape(N, L)

    # Package per (source, destination) blocks, elements ordered by
    # destination offset so receivers can scatter them directly.  One
    # lexsort per node groups its elements by destination, avoiding the
    # O(N) masks-per-node of the naive formulation.
    manifests: dict[tuple[int, int], np.ndarray] = {}
    payloads: dict[tuple[int, int], np.ndarray] = {}
    for x in range(N):
        order = np.lexsort((dest_offset[x], dest_node[x]))
        nodes_sorted = dest_node[x][order]
        offsets_sorted = dest_offset[x][order]
        data_sorted = dm.local_data[x][order]
        boundaries = np.flatnonzero(np.diff(nodes_sorted)) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [L]))
        for s, e in zip(starts, ends):
            y = int(nodes_sorted[s])
            manifests[(x, y)] = offsets_sorted[s:e]
            payloads[(x, y)] = data_sorted[s:e]
            if y != x:
                network.place(x, Block(("t1d", x, y), data=data_sorted[s:e]))

    if router == "exchange":
        dimension_sweep(
            network,
            list(range(before.n - 1, -1, -1)),
            dest_of=lambda key: key[2],
        )
    else:
        all_to_all_sbnt(network, dest_of=lambda key: key[2])

    out = np.empty_like(dm.local_data)
    moved: dict[int, int] = {}
    for y in range(N):
        mem = network.memory(y)
        count = 0
        for x in range(N):
            offsets = manifests.get((x, y))
            if offsets is None:
                continue
            if x == y:
                out[y][offsets] = payloads[(x, y)]
            else:
                out[y][offsets] = mem.pop(("t1d", x, y)).data
                count += offsets.size
        if count:
            moved[y] = count
    if charge_local and moved:
        network.charge_copy(moved)
    return DistributedMatrix(after, out)


def block_convert(
    network: EnsembleNetwork,
    dm: DistributedMatrix,
    after: Layout,
    *,
    router: str = "exchange",
    charge_local: bool = False,
) -> DistributedMatrix:
    """Redistribute the *same* matrix under a new layout, block-routed.

    The conversion counterpart of :func:`block_transpose`: handles any
    equal-``n`` layout pair, including the binary <-> Gray re-encodings
    of §2 that are not bit permutations of the address space.
    """
    return block_transpose(
        network,
        dm,
        after,
        router=router,
        charge_local=charge_local,
        transposed=False,
    )


def one_dim_transpose_sbnt(
    network: EnsembleNetwork,
    dm: DistributedMatrix,
    after: Layout,
    *,
    charge_local: bool = False,
) -> DistributedMatrix:
    """Transpose a 1D-partitioned matrix by SBnT routing (§5 pseudocode).

    The n-port algorithm: each destination block leaves its source on the
    port given by the *base* of the relative address and crosses the
    remaining dimensions in ascending cyclic order; all blocks advance
    each phase, finishing in ``n`` phases with per-port balanced traffic.
    """
    _check_one_dim(dm.layout, "before")
    _check_one_dim(after, "after")
    return block_transpose(
        network, dm, after, router="sbnt", charge_local=charge_local
    )
