"""Arbitrary permutations via two all-to-all personalized communications.

§7 (after Stout & Wagar [20, 21]): any permutation ``pi`` of per-node
data can be realized by two all-to-all personalized communications when
every node holds at least ``N`` elements: node ``x`` first scatters its
data in ``N`` equal slices (slice ``i`` to node ``i``); node ``i`` then
forwards the slice belonging to ``x`` to ``pi(x)``.  Both rounds are
perfectly balanced regardless of ``pi``, which is what makes the method
oblivious — at the price of roughly double the traffic of a direct
algorithm, which is why §7 notes it never beats the dedicated transpose.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.comm.all_to_all import all_to_all_exchange
from repro.machine.engine import EnsembleNetwork
from repro.machine.message import Block
from repro.obs.instrumentation import instrumentation_of

__all__ = ["arbitrary_node_permutation"]


def arbitrary_node_permutation(
    network: EnsembleNetwork,
    local_data: np.ndarray,
    pi: Sequence[int],
    *,
    observer=None,
) -> np.ndarray:
    """Send each node's block to node ``pi[x]`` via two all-to-all rounds.

    Returns the permuted array (``out[pi[x]] = in[x]``).  Time and
    traffic land on ``network.stats``; each round moves
    ``N * (N-1)/N * L`` elements like a standard all-to-all.  With
    ``observer`` (or a hub already attached to the network) the run
    emits a ``node-permutation`` span with one ``scatter`` and one
    ``forward`` child per all-to-all round.
    """
    N, L = local_data.shape
    n = network.params.n
    if N != 1 << n:
        raise ValueError("local data must have one row per processor")
    if sorted(pi) != list(range(N)):
        raise ValueError("pi is not a permutation of the node set")
    if L < N:
        raise ValueError(
            f"the two-round method needs at least N={N} elements per node, "
            f"got {L} (§7: message size at least N per processor)"
        )

    if observer is not None:
        observer.attach(network)
    instr = instrumentation_of(network)
    slices = [np.array_split(local_data[x], N) for x in range(N)]
    out = np.empty_like(local_data)
    with instr.span(
        "node-permutation", category="algorithm", nodes=N, elements=L
    ):
        # Round 1: node x scatters slice i of its data to node i.
        with instr.span("scatter", category="permute", round=1):
            for x in range(N):
                for i in range(N):
                    if i == x or slices[x][i].size == 0:
                        continue
                    network.place(
                        x, Block(("perm1", x, i), data=slices[x][i])
                    )
            all_to_all_exchange(network, dest_of=lambda key: key[2])
            for x in range(N):
                for i in range(N):
                    if i == x:
                        continue
                    network.memory(i).pop(("perm1", x, i))

        # Round 2: node i forwards x's slice to pi(x).
        with instr.span("forward", category="permute", round=2):
            for i in range(N):
                for x in range(N):
                    dest = pi[x]
                    if dest == i or slices[x][i].size == 0:
                        continue
                    network.place(
                        i, Block(("perm2", x, i, dest), data=slices[x][i])
                    )
            all_to_all_exchange(network, dest_of=lambda key: key[3])

        for x in range(N):
            dest = pi[x]
            mem = network.memory(dest)
            parts = []
            for i in range(N):
                if slices[x][i].size == 0:
                    continue
                if dest == i:
                    parts.append(slices[x][i])
                else:
                    parts.append(mem.pop(("perm2", x, i, dest)).data)
            out[dest] = np.concatenate(parts)
    return out
