"""Dimension permutations via parallel swapping (§7, Lemma 15).

A *dimension permutation* sends the data of processor
``(x_{n-1} ... x_0)`` to processor ``(x_{delta(n-1)} ... x_{delta(0)})``.
A *parallel swapping* is the special case where ``delta`` is an
involution — a set of disjoint dimension transpositions, each executable
as a distance-2 pairwise exchange.  Lemma 15: any dimension permutation
decomposes into at most ``ceil(log2 n)`` parallel swappings, by
repeatedly splitting the dimension set in half and crossing over the
content that belongs in the other half.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.machine.engine import EnsembleNetwork
from repro.machine.message import Block, Message
from repro.obs.instrumentation import instrumentation_of

__all__ = ["decompose_parallel_swappings", "apply_dimension_permutation"]


def _validate_permutation(delta: Sequence[int]) -> list[int]:
    n = len(delta)
    if sorted(delta) != list(range(n)):
        raise ValueError(f"{list(delta)} is not a permutation of 0..{n - 1}")
    return list(delta)


def decompose_parallel_swappings(
    delta: Sequence[int],
) -> list[list[tuple[int, int]]]:
    """Split a dimension permutation into parallel-swapping rounds.

    ``delta`` maps destination position to source position:
    the content of dimension ``delta(i)`` ends up in dimension ``i``
    (Definition 17 read as a gather).  Returns rounds of disjoint
    transpositions; applying the rounds in order realizes ``delta``.
    The number of rounds is at most ``ceil(log2 n)`` (Lemma 15).
    """
    delta = _validate_permutation(delta)
    n = len(delta)
    # content[i] = origin of the content currently at position i.
    content = list(range(n))
    target = list(delta)  # position i must end holding origin delta[i]
    rounds: list[list[tuple[int, int]]] = []
    segments = [list(range(n))]
    while any(len(seg) > 1 for seg in segments):
        swaps: list[tuple[int, int]] = []
        next_segments: list[list[int]] = []
        for seg in segments:
            if len(seg) <= 1:
                next_segments.append(seg)
                continue
            half = len(seg) // 2
            s1, s2 = seg[:half], seg[half:]
            want1 = {target[i] for i in s1}
            cross1 = [i for i in s1 if content[i] not in want1]
            want2 = {target[i] for i in s2}
            cross2 = [i for i in s2 if content[i] not in want2]
            assert len(cross1) == len(cross2)
            swaps.extend(zip(cross1, cross2))
            next_segments.extend([s1, s2])
        for a, b in swaps:
            content[a], content[b] = content[b], content[a]
        if swaps:
            rounds.append(swaps)
        segments = next_segments
    assert content == target, "decomposition failed to realize delta"
    return rounds


def apply_dimension_permutation(
    network: EnsembleNetwork,
    local_data: np.ndarray,
    delta: Sequence[int],
    *,
    observer=None,
) -> np.ndarray:
    """Physically permute per-node blocks by a dimension permutation.

    Executes the parallel-swapping rounds; each round routes every
    node's block through the (at most two per transposition) dimensions
    where its address bits differ, most-significant first.  Greedy
    bit-correction toward a bit-permuted target is conflict-free, so the
    phases run in the engine's exclusive mode.  Returns the permuted
    array: ``out[y] = in[x]`` with ``y`` = ``x`` bits gathered by
    ``delta``.
    """
    delta = _validate_permutation(delta)
    n = network.params.n
    if len(delta) != n:
        raise ValueError(f"permutation is over {len(delta)} dims, cube has {n}")
    N = 1 << n
    if local_data.shape[0] != N:
        raise ValueError("local data must have one row per processor")

    def rho(x: int) -> int:
        y = 0
        for i in range(n):
            y |= ((x >> delta[i]) & 1) << i
        return y

    if observer is not None:
        observer.attach(network)
    instr = instrumentation_of(network)
    cur = np.arange(N, dtype=np.int64)
    rounds = decompose_parallel_swappings(delta)
    with instr.span(
        "dimension-permutation",
        category="algorithm",
        n=n,
        rounds=len(rounds),
    ):
        for x in range(N):
            network.place(x, Block(("dp", x), data=local_data[x]))
        # Round-local targets: apply this round's transpositions to
        # current positions; route both dimensions of each transposition
        # in order.
        for rnd, swaps in enumerate(rounds):
            target = cur.copy()
            for a, b in swaps:
                for x in range(N):
                    t = int(target[x])
                    ba, bb = (t >> a) & 1, (t >> b) & 1
                    if ba != bb:
                        target[x] = t ^ (1 << a) ^ (1 << b)
            dims = [d for pair in swaps for d in pair]
            with instr.span(
                "parallel-swapping",
                category="permute",
                round=rnd,
                swaps=len(swaps),
            ):
                for d in dims:
                    messages = []
                    movers = []
                    for x in range(N):
                        here = int(cur[x])
                        if ((here >> d) & 1) != ((int(target[x]) >> d) & 1):
                            dst = here ^ (1 << d)
                            messages.append(Message(here, dst, (("dp", x),)))
                            movers.append((x, dst))
                    network.execute_phase(messages, exclusive=True)
                    for x, dst in movers:
                        cur[x] = dst

        out = np.empty_like(local_data)
        for x in range(N):
            final = int(cur[x])
            out[final] = network.memory(final).pop(("dp", x)).data
            if final != rho(x):
                raise AssertionError(
                    "parallel swapping did not realize delta"
                )
    return out
