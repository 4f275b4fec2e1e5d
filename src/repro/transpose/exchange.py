"""The standard and general exchange algorithms (Definitions 10-11).

An *exchange step* on the pair of address dimensions ``(g, f)`` moves
every datum whose current location address ``l`` has ``l_g != l_f`` to
the location with both bits complemented.  Depending on where the two
dimensions live (Lemma 6):

* both real-processor dimensions  → communication at distance **2**
  (the two-dimensional transpose steps);
* one real, one virtual           → neighbour exchange at distance **1**
  (the one-dimensional transpose / storage-conversion steps);
* both virtual                    → purely local data movement.

:class:`ExchangeExecutor` executes a sequence of such steps on a
:class:`~repro.layout.matrix.DistributedMatrix`, moving real data through
the :class:`~repro.machine.engine.EnsembleNetwork` (which prices it and
enforces the topology).  The *before* layout fixes the location-address
frame for the whole run; a datum's location address evolves by the step
involutions, and the final frame is reinterpreted under the target
layout.

Send policies reproduce §8.1: *unbuffered* sends each contiguous run of
moving elements as its own message (one start-up per run), *buffered*
copies all runs into one buffer (copy cost, single start-up set),
*threshold* buffers only runs shorter than ``B_copy`` — the iPSC's
optimum scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.layout.fields import Layout
from repro.layout.matrix import DistributedMatrix
from repro.machine.engine import EnsembleNetwork
from repro.machine.message import Block, Message
from repro.obs.instrumentation import instrumentation_of

__all__ = [
    "BufferPolicy",
    "ExchangeExecutor",
    "bit_permutation_for_map",
    "conversion_bit_permutation",
    "convert_layout",
    "exchange_transpose",
    "general_exchange_pairs",
    "plan_blocked_exchange_sequence",
    "plan_exchange_sequence",
    "plan_gray_local_permutations",
    "standard_exchange_pairs",
    "strip_encoding",
    "transpose_bit_permutation",
]


@dataclass(frozen=True)
class BufferPolicy:
    """How a node packages the moving runs of one exchange step.

    ``mode`` is one of:

    * ``"unbuffered"`` — one message per contiguous run (no copy cost,
      many start-ups; §8.1's first scheme, linear in N);
    * ``"buffered"``   — copy all runs into a buffer, send one message
      (copy cost on every element, minimum start-ups);
    * ``"threshold"``  — runs of at least ``min_unbuffered_run`` elements
      go directly, shorter runs are buffered together (the paper's
      optimum scheme; on the iPSC the break-even run is 64 elements).

    ``charge_local_moves`` prices vp-vp steps at ``t_copy`` per moved
    element; by default they are free, modelling the paper's "implicitly
    by indirect addressing" local transposition.
    """

    mode: str = "unbuffered"
    min_unbuffered_run: int = 64
    charge_local_moves: bool = False

    def __post_init__(self) -> None:
        if self.mode not in ("unbuffered", "buffered", "threshold"):
            raise ValueError(f"unknown buffer mode {self.mode!r}")
        if self.min_unbuffered_run < 1:
            raise ValueError("minimum unbuffered run must be >= 1")

    def run_is_buffered(self, run_length: int) -> bool:
        if self.mode == "unbuffered":
            return False
        if self.mode == "buffered":
            return True
        return run_length < self.min_unbuffered_run


class ExchangeExecutor:
    """Executes exchange steps on distributed data through the network."""

    def __init__(
        self,
        network: EnsembleNetwork,
        dm: DistributedMatrix,
        *,
        policy: BufferPolicy | None = None,
    ) -> None:
        layout = dm.layout
        if layout.is_gray:
            raise ValueError(
                "the exchange executor requires binary-encoded processor "
                "fields; recode Gray layouts locally first (§5) or use the "
                "combined algorithms of repro.transpose.mixed"
            )
        if network.params.n != layout.n:
            raise ValueError(
                f"network is a {network.params.n}-cube but the layout uses "
                f"{layout.n} processor dimensions"
            )
        self.network = network
        self.layout = layout
        self.data = dm.local_data.copy()
        self.policy = policy or BufferPolicy()
        self._step_counter = 0
        self._vp_count = layout.m - layout.n

    # -- steps -----------------------------------------------------------

    def step(self, g: int, f: int) -> None:
        """One exchange on the address-dimension pair ``(g, f)``."""
        if g == f:
            raise ValueError("exchange dimensions must be distinct")
        layout = self.layout
        in_proc = layout.proc_dim_set
        g_proc, f_proc = g in in_proc, f in in_proc
        if g_proc and f_proc:
            kind, execute = "proc-proc", lambda: self._step_proc_proc(g, f)
        elif g_proc or f_proc:
            proc_dim, vp_dim = (g, f) if g_proc else (f, g)
            kind = "proc-vp"
            execute = lambda: self._step_proc_vp(proc_dim, vp_dim)  # noqa: E731
        else:
            kind, execute = "local", lambda: self._step_local(g, f)
        with instrumentation_of(self.network).span(
            f"exchange({g},{f})",
            category="exchange",
            g=g,
            f=f,
            kind=kind,
            step=self._step_counter,
        ):
            execute()
        self._step_counter += 1

    def run(self, pairs: Iterable[tuple[int, int]]) -> None:
        pairs = list(pairs)
        with instrumentation_of(self.network).span(
            "exchange-sequence", category="sequence", steps=len(pairs)
        ):
            for g, f in pairs:
                self.step(g, f)

    def finish(self, after: Layout) -> DistributedMatrix:
        """Reinterpret the final data under the target layout.

        The caller guarantees the step sequence realizes the permutation
        the target layout expects; tests verify via
        :meth:`DistributedMatrix.to_global`.
        """
        return DistributedMatrix(after, self.data)

    # -- distance-2: both dimensions on real processors ---------------------

    def _step_proc_proc(self, g: int, f: int) -> None:
        layout, net = self.layout, self.network
        cg, cf = layout.cube_dim_of(g), layout.cube_dim_of(f)
        moving = [
            x
            for x in range(layout.num_procs)
            if ((x >> cg) & 1) != ((x >> cf) & 1)
        ]
        tag = ("xpp", self._step_counter)
        # Hop 1: across dimension cg to the intermediate node.
        first: list[Message] = []
        for x in moving:
            key = (*tag, x)
            net.place(x, Block(key, data=self.data[x].copy()))
            first.append(Message(x, x ^ (1 << cg), (key,)))
        net.execute_phase(first)
        # Hop 2: across dimension cf to the destination.
        second = [
            Message(x ^ (1 << cg), x ^ (1 << cg) ^ (1 << cf), ((*tag, x),))
            for x in moving
        ]
        net.execute_phase(second)
        for x in moving:
            dst = x ^ (1 << cg) ^ (1 << cf)
            block = net.memory(dst).pop((*tag, x))
            self.data[dst] = block.data

    # -- distance-1: one real, one virtual dimension -------------------------

    def _step_proc_vp(self, proc_dim: int, vp_dim: int) -> None:
        layout, net, policy = self.layout, self.network, self.policy
        c = layout.cube_dim_of(proc_dim)
        b = layout.offset_bit_of(vp_dim)
        run_len = 1 << b
        runs_per_half = self.data.shape[1] // (2 * run_len)
        tag = ("xpv", self._step_counter)

        # All runs in one step share a length, so the policy decision is
        # uniform — which lets the buffered path use a single vectorized
        # gather instead of a per-run Python loop.
        buffer_all = policy.run_is_buffered(run_len)
        messages: list[Message] = []
        copy_elements: dict[int, int] = {}
        manifests: list[tuple[int, int, tuple]] = []  # (dst, moving_bit, key)
        for x in range(layout.num_procs):
            beta = (x >> c) & 1
            moving_bit = beta ^ 1  # slots with offset bit b == not beta move
            dst = x ^ (1 << c)
            # View the local array as (runs, 2, run_len): axis 1 is bit b.
            shaped = self.data[x].reshape(runs_per_half, 2, run_len)
            moving = shaped[:, moving_bit, :]
            if buffer_all:
                key = (*tag, x, "buf")
                payload = moving.copy().reshape(-1)
                net.place(x, Block(key, data=payload))
                messages.append(Message(x, dst, (key,)))
                copy_elements[x] = payload.size
            else:
                # Unbuffered: each run is its own message (start-up each).
                for r in range(runs_per_half):
                    key = (*tag, x, r)
                    net.place(x, Block(key, data=moving[r].copy()))
                    messages.append(Message(x, dst, (key,)))
            manifests.append((dst, moving_bit, (*tag, x)))
        if copy_elements:
            net.charge_copy(copy_elements)
        net.execute_phase(messages)

        # Unpack at destinations: arriving runs land at the same run index
        # with offset bit b complemented — which is the half the receiver
        # just vacated.  Buffered payloads are scattered out of the buffer,
        # which costs another copy (the §8.1 estimate charges PQ/N per
        # buffered step: L/2 gathered at the sender, L/2 scattered here).
        unpack_elements: dict[int, int] = {}
        for dst, moving_bit, base_key in manifests:
            landing_bit = moving_bit ^ 1
            shaped = self.data[dst].reshape(runs_per_half, 2, run_len)
            mem = net.memory(dst)
            if buffer_all:
                buf_block = mem.pop((*base_key, "buf"))
                shaped[:, landing_bit, :] = buf_block.data.reshape(
                    runs_per_half, run_len
                )
                unpack_elements[dst] = buf_block.size
            else:
                for r in range(runs_per_half):
                    shaped[r, landing_bit, :] = mem.pop((*base_key, r)).data
        if unpack_elements:
            net.charge_copy(unpack_elements)

    # -- local: both dimensions virtual --------------------------------------

    def _step_local(self, g: int, f: int) -> None:
        layout = self.layout
        bg, bf = layout.offset_bit_of(g), layout.offset_bit_of(f)
        lo, hi = sorted((bg, bf))
        L = self.data.shape[1]
        # Shape (outer, 2, mid, 2, inner): the two singleton axes are the
        # offset bits hi and lo; swapping them where they differ is the
        # (01) <-> (10) exchange.
        inner = 1 << lo
        mid = 1 << (hi - lo - 1)
        outer = L // (inner * mid * 4)
        shaped = self.data.reshape(-1, outer, 2, mid, 2, inner)
        tmp = shaped[:, :, 0, :, 1, :].copy()
        shaped[:, :, 0, :, 1, :] = shaped[:, :, 1, :, 0, :]
        shaped[:, :, 1, :, 0, :] = tmp
        if self.policy.charge_local_moves:
            moved = L // 2  # half the slots move in each node
            self.network.charge_copy(
                {x: moved for x in range(layout.num_procs)}
            )


# -- pair-sequence constructors ------------------------------------------------


def standard_exchange_pairs(
    g_dims: Sequence[int], f_dims: Sequence[int]
) -> list[tuple[int, int]]:
    """Definition 10: pair two disjoint monotone dimension sequences."""
    if len(g_dims) != len(f_dims):
        raise ValueError("g and f sequences must have equal length")
    if set(g_dims) & set(f_dims):
        raise ValueError("standard exchange requires disjoint sequences")
    _check_monotone(g_dims, "g")
    _check_monotone(f_dims, "f")
    return list(zip(g_dims, f_dims))


def general_exchange_pairs(
    pairs: Sequence[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Definition 11: arbitrary pairs with injective ``g`` and ``f``."""
    gs = [g for g, _ in pairs]
    fs = [f for _, f in pairs]
    if len(set(gs)) != len(gs) or len(set(fs)) != len(fs):
        raise ValueError("general exchange requires injective g(i) and f(i)")
    for g, f in pairs:
        if g == f:
            raise ValueError(f"degenerate pair ({g}, {f})")
    return list(pairs)


def _check_monotone(dims: Sequence[int], label: str) -> None:
    if len(dims) < 2:
        return
    increasing = all(a < b for a, b in zip(dims, dims[1:]))
    decreasing = all(a > b for a, b in zip(dims, dims[1:]))
    if not (increasing or decreasing):
        raise ValueError(f"{label} sequence must be monotone: {list(dims)}")


# -- target permutations and planning -------------------------------------------


def _bit_permutation_from_map(before: Layout, after: Layout, remap) -> dict[int, int]:
    """Position permutation moving datum ``w`` to the location the
    ``after`` layout assigns to ``remap(w)``; both layouts binary."""
    if before.is_gray or after.is_gray:
        raise ValueError("bit permutations require binary-encoded layouts")
    m = before.m

    def target_location(w: int) -> int:
        w_after = remap(w)
        return before.address_of(after.owner(w_after), after.offset(w_after))

    if target_location(0) != 0:
        raise AssertionError("binary layouts must map address 0 to location 0")
    perm: dict[int, int] = {}
    for d in range(m):
        image = target_location(1 << d)
        if image == 0 or image & (image - 1):
            raise AssertionError("layout map is not a bit permutation")
        perm[d] = image.bit_length() - 1
    return perm


def bit_permutation_for_map(
    before: Layout, after: Layout, remap
) -> dict[int, int]:
    """Position permutation realizing an arbitrary address map.

    ``remap`` maps each flat address ``w`` of the *before* frame to the
    address whose *after*-layout position the datum must occupy; both
    layouts must be binary-encoded and the induced location map must be
    a bit permutation.  :func:`transpose_bit_permutation` and
    :func:`conversion_bit_permutation` are the two classic instances;
    :mod:`repro.workloads` uses this directly to plan whole *composed*
    stage pipelines as a single exchange sequence.
    """
    return _bit_permutation_from_map(before, after, remap)


def transpose_bit_permutation(before: Layout, after: Layout) -> dict[int, int]:
    """Position permutation ``T_pos`` realized by the transpose.

    ``T_pos[d] = d'`` means: the content of location-address bit ``d``
    must end up at location-address bit ``d'`` (both in the *before*
    frame) for datum ``w`` to land at the processor/offset the *after*
    layout assigns to the transposed address.  Both layouts must be
    binary-encoded (Gray fields are not bit rearrangements).
    """
    if (after.p, after.q) != (before.q, before.p):
        raise ValueError("after-layout must describe the transposed shape")
    p, q = before.p, before.q
    mask = (1 << q) - 1
    return _bit_permutation_from_map(
        before, after, lambda w: ((w & mask) << p) | (w >> q)
    )


def conversion_bit_permutation(before: Layout, after: Layout) -> dict[int, int]:
    """Position permutation realized by a storage-form *conversion*.

    Same matrix, different layout: datum ``w`` must move to the location
    the ``after`` layout assigns to ``w`` itself.  This is the §2
    "conversion between any two of the 16 assignment schemes" operation
    — cyclic <-> consecutive, re-encodings, field moves — without a
    transpose.
    """
    if (after.p, after.q) != (before.p, before.q):
        raise ValueError("a conversion keeps the matrix shape")
    return _bit_permutation_from_map(before, after, lambda w: w)


def strip_encoding(layout: Layout) -> Layout:
    """The same layout with all fields binary-encoded."""
    from dataclasses import replace as _replace

    fields = tuple(_replace(f, gray=False) for f in layout.fields)
    return Layout(layout.p, layout.q, fields, layout.name)


def exchange_transpose(
    network: EnsembleNetwork,
    dm: DistributedMatrix,
    after: Layout,
    *,
    policy: BufferPolicy | None = None,
    pairs: Sequence[tuple[int, int]] | None = None,
    strategy: str = "direct",
) -> DistributedMatrix:
    """Transpose by the (general) exchange algorithm — the generic driver.

    Computes the bit permutation the layout change requires, decomposes
    it into exchange steps (unless an explicit ``pairs`` schedule is
    given), executes them on the network, and returns the data under the
    target layout.

    Gray-encoded layouts are handled per the paper's §5/§6.1 remarks: the
    *binary* exchange schedule is run unchanged, sandwiched between local
    data rearrangements computed by :func:`plan_gray_local_permutations`.
    For same-encoding two-dimensional transposes those rearrangements
    degenerate to the identity (the algorithm "commutes with the
    encoding"); mixed binary/Gray encodings that would force data to the
    wrong processor are rejected — use :mod:`repro.transpose.mixed`.
    """
    return _exchange_remap(
        network,
        dm,
        after,
        policy=policy,
        pairs=pairs,
        transposed=True,
        strategy=strategy,
    )


def convert_layout(
    network: EnsembleNetwork,
    dm: DistributedMatrix,
    after: Layout,
    *,
    policy: BufferPolicy | None = None,
    pairs: Sequence[tuple[int, int]] | None = None,
    strategy: str = "direct",
) -> DistributedMatrix:
    """Convert between storage forms *without* transposing (§2).

    The same matrix is redistributed under a different layout: cyclic to
    consecutive (Corollary 7's all-to-all case), a binary to Gray-code
    re-encoding of the processor field, a combined-assignment field move,
    or any mixture — Lemma 7's observation that conversions ride the
    standard exchange algorithm, here without the transpose component.

    Pure re-encodings (binary <-> Gray with the fields otherwise fixed)
    are not bit permutations of the address space, so they cannot ride
    the exchange schedule; those fall back to block-level correction
    routing (:func:`repro.transpose.one_dim.block_convert`), the §2
    "n - 1 routing steps with additional local data rearrangement".
    """
    if (after.p, after.q) != (dm.layout.p, dm.layout.q):
        raise ValueError("a conversion keeps the matrix shape")
    try:
        return _exchange_remap(
            network,
            dm,
            after,
            policy=policy,
            pairs=pairs,
            transposed=False,
            strategy=strategy,
        )
    except ValueError:
        if pairs is not None:
            raise
        from repro.transpose.one_dim import block_convert

        return block_convert(network, dm, after)


def _exchange_remap(
    network: EnsembleNetwork,
    dm: DistributedMatrix,
    after: Layout,
    *,
    policy: BufferPolicy | None,
    pairs: Sequence[tuple[int, int]] | None,
    transposed: bool,
    strategy: str = "direct",
) -> DistributedMatrix:
    before = dm.layout
    perm_fn = transpose_bit_permutation if transposed else conversion_bit_permutation
    if strategy == "direct":
        planner = plan_exchange_sequence
    elif strategy == "blocked":
        planner = plan_blocked_exchange_sequence
    else:
        raise ValueError(f"unknown pair strategy {strategy!r}")
    if not (before.is_gray or after.is_gray):
        frame = DistributedMatrix(before, dm.local_data)
        if pairs is None:
            perm = perm_fn(before, after)
            pairs = planner(perm, before)
        executor = ExchangeExecutor(network, frame, policy=policy)
        executor.run(pairs)
        return executor.finish(after)

    s_before = strip_encoding(before)
    s_after = strip_encoding(after)
    perm = perm_fn(s_before, s_after)
    if pairs is None:
        pairs = planner(perm, s_before)
    pre, post = plan_gray_local_permutations(
        before, after, perm, transposed=transposed
    )

    policy = policy or BufferPolicy()
    data = dm.local_data
    num, L = data.shape
    if pre is not None:
        rearranged = np.empty_like(data)
        rearranged.reshape(-1)[pre] = data.reshape(-1)
        data = rearranged
        if policy.charge_local_moves:
            moved = _moved_per_node(pre, num, L)
            network.charge_copy(moved)
    executor = ExchangeExecutor(
        network, DistributedMatrix(s_before, data), policy=policy
    )
    executor.run(pairs)
    transported = executor.finish(s_after).local_data
    if post is not None:
        final = np.empty_like(transported)
        final.reshape(-1)[post] = transported.reshape(-1)
        transported = final
        if policy.charge_local_moves:
            network.charge_copy(_moved_per_node(post, num, L))
    return DistributedMatrix(after, transported)


def _moved_per_node(flat_perm: np.ndarray, num: int, L: int) -> dict[int, int]:
    """Per-node count of elements a local permutation actually relocates."""
    identity = np.arange(flat_perm.size)
    moved = (flat_perm != identity).reshape(num, L).sum(axis=1)
    return {x: int(c) for x, c in enumerate(moved) if c}


def plan_gray_local_permutations(
    before: Layout,
    after: Layout,
    perm: Mapping[int, int],
    *,
    transposed: bool = True,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Local pre/post rearrangements that adapt the binary schedule to
    Gray-encoded layouts (§5: "first perform a transformation locally
    such that block w is moved to block location G(w), then carry out the
    above algorithms").

    The binary exchange schedule realizes a fixed bit permutation
    ``sigma`` of physical (processor, offset) locations.  For each datum
    we know its physical start (from the Gray ``before`` layout) and its
    required physical end (from the Gray ``after`` layout); the only
    freedom is *local*: the offset a datum occupies before the schedule
    runs (``pre``) and after it finishes (``post``).  This function
    solves for those offsets:

    * location bits that ``sigma`` feeds into the destination-processor
      field from the *source offset* are set so the datum routes to its
      required processor;
    * location bits fed from the *source processor* field are forced —
      if they disagree with the required destination, no local fix
      exists and we raise (the §6.3 mixed-encoding case);
    * the remaining free offset bits are assigned by rank within each
      (source node, destination) group, keeping ``pre`` a bijection.

    Returns flattened index maps (``new.flat[map] = old.flat``) of length
    ``N * L`` for the pre and post steps, or ``None`` for an identity.
    For same-encoding two-dimensional transposes both are ``None``.
    """
    s_before = strip_encoding(before)
    m, n = before.m, before.n
    L = before.local_size
    p, q = before.p, before.q
    PQ = 1 << m

    w = np.arange(PQ, dtype=np.int64)
    x_arr = before.owner_array(w)
    j_arr = before.offset_array(w)
    if transposed:
        u, v = w >> q, w & ((1 << q) - 1)
        w_prime = (v << p) | u
    else:
        w_prime = w
    y_arr = after.owner_array(w_prime)
    k_arr = after.offset_array(w_prime)

    # Classify each destination-processor location slot by what feeds it.
    inv_perm = {t: s for s, t in perm.items()}
    proc_positions = s_before.proc_dims  # MSB-first; cube dim n-1-i
    proc_pos_set = set(proc_positions)
    forced: list[tuple[int, int]] = []  # (dest cube dim, source cube dim)
    routed: list[tuple[int, int]] = []  # (dest cube dim, source offset bit)
    for i, t in enumerate(proc_positions):
        dest_cube = n - 1 - i
        s = inv_perm[t]
        if s in proc_pos_set:
            forced.append((dest_cube, s_before.cube_dim_of(s)))
        else:
            routed.append((dest_cube, s_before.offset_bit_of(s)))

    for dest_cube, src_cube in forced:
        if np.any(((y_arr >> dest_cube) & 1) != ((x_arr >> src_cube) & 1)):
            raise ValueError(
                "Gray-encoded data cannot reach its destination processor "
                "by local rearrangement under this schedule; use the "
                "combined Gray/binary algorithms (repro.transpose.mixed)"
            )

    # Constrained offset bits of the pre-rearranged position j2.
    j2 = np.zeros(PQ, dtype=np.int64)
    constrained_mask = 0
    for dest_cube, off_bit in routed:
        j2 |= ((y_arr >> dest_cube) & 1) << off_bit
        constrained_mask |= 1 << off_bit
    free_bits = [b for b in range(m - n) if not (constrained_mask >> b) & 1]

    # Rank each datum within its (source node, constrained pattern) group
    # and spread the rank over the free offset bits.
    order = np.lexsort((j_arr, j2, x_arr))
    group_key = x_arr[order] * L + j2[order]
    starts = np.empty(PQ, dtype=bool)
    starts[0] = True
    starts[1:] = group_key[1:] != group_key[:-1]
    group_ids = np.cumsum(starts) - 1
    group_start = np.zeros(group_ids[-1] + 1, dtype=np.int64)
    group_start[group_ids[starts]] = np.flatnonzero(starts)
    rank_sorted = np.arange(PQ, dtype=np.int64) - group_start[group_ids]
    rank = np.empty(PQ, dtype=np.int64)
    rank[order] = rank_sorted
    if int(rank.max(initial=0)) >> len(free_bits):
        raise ValueError(
            "destination groups overflow the free offset bits; the layout "
            "pair is not realizable by this schedule"
        )
    for i, b in enumerate(free_bits):
        j2 |= ((rank >> i) & 1) << b

    # Location addresses and their image under sigma.
    loc0 = np.zeros(PQ, dtype=np.int64)
    for i, t in enumerate(proc_positions):
        loc0 |= ((x_arr >> (n - 1 - i)) & 1) << t
    vp = s_before.vp_dims
    for i, d in enumerate(vp):
        loc0 |= ((j2 >> (len(vp) - 1 - i)) & 1) << d
    dest = np.zeros(PQ, dtype=np.int64)
    for d in range(m):
        dest |= ((loc0 >> d) & 1) << perm[d]
    y_check = s_before.owner_array(dest)
    if np.any(y_check != y_arr):
        raise AssertionError("gray routing plan failed to reach destinations")
    j_after = s_before.offset_array(dest)

    pre = np.empty(PQ, dtype=np.int64)
    pre[x_arr * L + j_arr] = x_arr * L + j2
    post = np.empty(PQ, dtype=np.int64)
    post[y_arr * L + j_after] = y_arr * L + k_arr

    identity = np.arange(PQ, dtype=np.int64)
    pre_map = None if np.array_equal(pre, identity) else pre
    post_map = None if np.array_equal(post, identity) else post
    return pre_map, post_map


def plan_blocked_exchange_sequence(
    perm: Mapping[int, int], layout: Layout
) -> list[tuple[int, int]]:
    """Decompose a bit permutation in the paper's §5 *blocked* order.

    The §5/§8.1 implementation exchanges each processor dimension with
    the **highest-order virtual dimensions** in turn, so the data sent in
    step ``j`` consists of ``2^{j-1}`` contiguous fragments (1, 2, 4, ...)
    — the fragmentation behind the unbuffered iPSC cost formula, whose
    start-up count totals ``~N`` rather than the per-target-bit counts of
    :func:`plan_exchange_sequence`.  Logical re-indexing ("shuffle my
    blocked array", or the final local transposition) becomes leading and
    trailing virtual-virtual steps.

    The construction: (A) local steps that park, under the ``i``-th
    highest offset bit, the content destined for the ``i``-th processor
    slot; (B) the ``n`` communication steps pairing processor slot ``i``
    with that offset bit; (C) local residue to the exact target.  Raises
    if the permutation requires processor-to-processor movement (use the
    direct planner for 2D pairwise transposes).
    """
    m, n = layout.m, layout.n
    proc = list(layout.proc_dims)  # MSB-first; step order of §5's loop
    vp = list(layout.vp_dims)  # MSB-first
    if n == 0:
        return plan_exchange_sequence(perm, layout)
    if len(vp) < n:
        raise ValueError(
            "the blocked strategy needs at least n virtual dimensions"
        )
    inv = {t: s for s, t in perm.items()}
    participating: list[tuple[int, int]] = []  # (proc slot, feeding vp slot)
    for p_dim in proc:
        s = inv[p_dim]
        if s == p_dim:
            continue  # this processor slot keeps its content
        if s in layout.proc_dim_set:
            raise ValueError(
                "blocked strategy requires each processor slot to be fed "
                "from a virtual dimension (1D transposes/conversions); "
                "use the direct planner"
            )
        participating.append((p_dim, s))
    top = vp[: len(participating)]

    # Phase A: a vp-only permutation parking each feeding slot under the
    # i-th highest offset bit.
    phase_a: dict[int, int] = {}
    used_targets = set()
    for (p_dim, s), h in zip(participating, top):
        phase_a[s] = h
        used_targets.add(h)
    remaining_src = [d for d in vp if d not in phase_a]
    remaining_dst = [d for d in vp if d not in used_targets]
    for s, t in zip(remaining_src, remaining_dst):
        phase_a[s] = t
    for d in proc:
        phase_a[d] = d
    pairs = plan_exchange_sequence(phase_a, layout)

    # Phase B: the §5 loop, highest processor dimension first.
    applied = dict(phase_a)
    for (p_dim, _), h in zip(participating, top):
        pairs.append((p_dim, h))
        # Track contents: swap whatever sits at p_dim and h.
        at_p = [o for o, loc in applied.items() if loc == p_dim]
        at_h = [o for o, loc in applied.items() if loc == h]
        for o in at_p:
            applied[o] = h
        for o in at_h:
            applied[o] = p_dim

    # Phase C: local residue to the exact target permutation.
    residual = {applied[o]: perm[o] for o in applied}
    tail = plan_exchange_sequence(residual, layout)
    for a, b in tail:
        if a in layout.proc_dim_set or b in layout.proc_dim_set:
            raise AssertionError("blocked strategy left a non-local residue")
    return pairs + tail


def plan_exchange_sequence(
    perm: Mapping[int, int], layout: Layout
) -> list[tuple[int, int]]:
    """Decompose a bit permutation into exchange steps, minimizing traffic.

    Each permutation cycle of length ``k`` costs ``k - 1`` exchanges.
    Cycles are pivoted on a virtual dimension when one is available, so
    that every exchange touching a processor dimension is a distance-1
    (processor, virtual) step rather than a distance-2 step; a 2-cycle of
    two processor dimensions (the basic two-dimensional transpose step)
    necessarily stays at distance 2.
    """
    proc = layout.proc_dim_set
    remaining = dict(perm)
    for d, t in remaining.items():
        if not 0 <= d < layout.m or not 0 <= t < layout.m:
            raise ValueError("permutation entries outside the address space")
    seen: set[int] = set()
    steps: list[tuple[int, int]] = []
    for start in sorted(remaining, reverse=True):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        nxt = remaining[start]
        while nxt != start:
            cycle.append(nxt)
            seen.add(nxt)
            nxt = remaining[nxt]
        if len(cycle) == 1:
            continue
        # Pivot on a vp dimension if the cycle has one.
        pivot_idx = next(
            (i for i, d in enumerate(cycle) if d not in proc), None
        )
        if pivot_idx is not None:
            cycle = cycle[pivot_idx:] + cycle[:pivot_idx]
        pivot = cycle[0]
        # Swaps (pivot, c1), (pivot, c2), ... realize "content at c_i
        # moves to c_{i+1}" with the pivot's content closing the cycle.
        for c in cycle[1:]:
            steps.append((pivot, c))
    return steps
