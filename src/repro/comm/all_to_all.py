"""All-to-all personalized communication (§3.2).

Every node holds a private block for every other node.  Four algorithms:

* the **exchange algorithm**: scan the cube dimensions; at dimension
  ``d`` every node sends, in one combined message, all blocks it
  currently holds whose destination differs from it in bit ``d``.  Each
  step moves ``PQ / 2N`` elements per node; one-port time
  ``n (PQ/(2N) t_c + ceil(PQ/(2 N B_m)) tau)`` — within 2x of the lower
  bound.  The same dimension sweep with a subset of dimensions performs
  all-to-all within subcubes, and is reused by the §3.3 algorithms.

* the **pipelined exchange**: the same dimension order but greedy
  per-block advancement for n-port machines — which the paper calls out
  as *suboptimal* (the first hop funnels half of each node's traffic
  through one port).

* **SBnT routing** (route-precomputed): node ``s``'s block for ``d``
  leaves on port ``base(s XOR d)`` and crosses the set bits of
  ``s XOR d`` in ascending cyclic order; all blocks advance one hop per
  phase, so the whole operation takes ``n`` phases and, with n-port
  communication, ``PQ/(2N) t_c + n tau`` — the §3.2 n-port result.

* **SBnT distributed** (:func:`all_to_all_sbnt_distributed`): the same
  algorithm as the literal §5 pseudocode, per-node buffers only; kept
  as a fidelity cross-check (bit-identical behaviour, by test).
"""

from __future__ import annotations

from typing import Callable, Hashable, Sequence

import numpy as np

from repro.cube.trees import sbnt_route_dims
from repro.machine.engine import EnsembleNetwork
from repro.machine.message import Block, Message

__all__ = [
    "all_to_all_exchange",
    "all_to_all_personalized_data",
    "all_to_all_pipelined_exchange",
    "all_to_all_sbnt",
    "all_to_all_sbnt_distributed",
    "dimension_sweep",
]


def _destination(key: Hashable) -> int:
    return key[2]


def all_to_all_personalized_data(
    network: EnsembleNetwork, elements_per_pair: int
) -> None:
    """Load every node with a private block for every other node.

    Block ``("a2a", src, dst)`` carries values ``src * N + dst`` so both
    endpoints are encoded in the payload.
    """
    n = network.params.n
    N = 1 << n
    for src in range(N):
        for dst in range(N):
            if dst == src:
                continue
            network.place(
                src,
                Block(
                    ("a2a", src, dst),
                    data=np.full(elements_per_pair, src * N + dst),
                ),
            )


def dimension_sweep(
    network: EnsembleNetwork,
    dims: Sequence[int],
    *,
    dest_of: Callable[[Hashable], int] = _destination,
) -> int:
    """Sweep the given cube dimensions, forwarding blocks toward their
    destinations; returns the number of phases.

    This one loop is the paper's workhorse: over all ``n`` dimensions it
    is the all-to-all exchange algorithm; over ``k`` dimensions starting
    from concentrated data it is the splitting phase of some-to-all; run
    after an all-to-all it is the accumulation phase of all-to-some.
    """
    phases = 0
    n = network.params.n
    for d in dims:
        if not 0 <= d < n:
            raise ValueError(f"dimension {d} outside {n}-cube")
        messages: list[Message] = []
        for x in range(1 << n):
            mem = network.memory(x)
            moving = [
                k
                for k in mem.keys()
                if ((dest_of(k) >> d) & 1) != ((x >> d) & 1)
            ]
            if moving:
                messages.append(Message(x, x ^ (1 << d), tuple(moving)))
        network.execute_phase(messages)
        phases += 1
    return phases


def all_to_all_exchange(
    network: EnsembleNetwork,
    *,
    dest_of: Callable[[Hashable], int] = _destination,
    descending: bool = True,
) -> int:
    """The standard exchange algorithm over all cube dimensions."""
    n = network.params.n
    dims = range(n - 1, -1, -1) if descending else range(n)
    return dimension_sweep(network, list(dims), dest_of=dest_of)


def all_to_all_pipelined_exchange(
    network: EnsembleNetwork,
    *,
    dest_of: Callable[[Hashable], int] = _destination,
) -> int:
    """The exchange algorithm pipelined for n-port machines (§3.2).

    Instead of completing each dimension before starting the next, every
    block advances greedily: one hop per phase along its remaining
    differing dimensions in descending order, with all of a node's ports
    active concurrently.  The paper notes this "is suboptimal": the
    descending routing order funnels *half* of every node's blocks
    through its top port on the first hop, so the transfer term is
    bounded by ~M/(4N) per phase instead of the SBnT's balanced
    ~M/(2nN) — an n/2-fold handicap that
    ``bench_ablation_exchange_pipelining`` measures.
    """
    n = network.params.n
    N = 1 << n
    positions: dict[Hashable, int] = {}
    dests: dict[Hashable, int] = {}
    for x in range(N):
        for k in network.memory(x).keys():
            if dest_of(k) != x:
                positions[k] = x
                dests[k] = dest_of(k)
    phases = 0
    while positions:
        hops: dict[tuple[int, int], list[Hashable]] = {}
        arrived: list[Hashable] = []
        for k, src in positions.items():
            diff = src ^ dests[k]
            d = diff.bit_length() - 1  # highest remaining dimension
            dst = src ^ (1 << d)
            hops.setdefault((src, dst), []).append(k)
        messages = [
            Message(src, dst, tuple(ks)) for (src, dst), ks in hops.items()
        ]
        network.execute_phase(messages)
        phases += 1
        for (src, dst), ks in hops.items():
            for k in ks:
                if dst == dests[k]:
                    arrived.append(k)
                else:
                    positions[k] = dst
        for k in arrived:
            del positions[k]
    return phases


def all_to_all_sbnt_distributed(
    network: EnsembleNetwork,
    *,
    dest_of: Callable[[Hashable], int] = _destination,
) -> int:
    """The §5 SBnT pseudocode, transcribed: per-node state only.

    Each node forms, for every destination ``j``, a message carrying
    ``(source-addr, relative-addr, data)`` with
    ``relative-addr = my-addr XOR j XOR 2^b`` and appends it to
    ``output-buf[b]`` where ``b = base(my-addr XOR j)``.  Then ``n``
    rounds: send every output buffer across its port; for each received
    message, deliver if ``relative-addr = 0``, else complement the
    nearest 1-bit to the left (cyclically) of the arrival port and
    append to that port's buffer.  No node ever inspects global state —
    this is the algorithm as a 1987 node program would run it, and the
    tests check it is *identical* in deliveries and phases to the
    route-precomputing :func:`all_to_all_sbnt`.
    """
    from repro.cube.trees import rotation_base

    n = network.params.n
    N = 1 << n
    # output_buf[node][port] -> list of (key, relative_addr)
    output_buf: list[list[list[tuple[Hashable, int]]]] = [
        [[] for _ in range(n)] for _ in range(N)
    ]
    for my_addr in range(N):
        for key in network.memory(my_addr).keys():
            j = dest_of(key)
            if j == my_addr:
                continue
            b = rotation_base(my_addr ^ j, n)
            rel = my_addr ^ j ^ (1 << b)
            output_buf[my_addr][b].append((key, rel))

    phases = 0
    for _ in range(n):
        sends: list[tuple[int, int, list[tuple[Hashable, int]]]] = []
        for x in range(N):
            for port in range(n):
                if output_buf[x][port]:
                    sends.append((x, x ^ (1 << port), output_buf[x][port]))
                    output_buf[x][port] = []
        if not sends:
            break
        network.execute_phase(
            [
                Message(src, dst, tuple(k for k, _ in items))
                for src, dst, items in sends
            ]
        )
        phases += 1
        for src, dst, items in sends:
            arrival_port = (src ^ dst).bit_length() - 1
            for key, rel in items:
                if rel == 0:
                    continue  # delivered: stays in dst's memory
                # Nearest 1-bit to the left of the arrival port, cyclic.
                p = None
                for step in range(1, n + 1):
                    cand = (arrival_port + step) % n
                    if (rel >> cand) & 1:
                        p = cand
                        break
                assert p is not None
                output_buf[dst][p].append((key, rel ^ (1 << p)))
    return phases


def all_to_all_sbnt(
    network: EnsembleNetwork,
    *,
    dest_of: Callable[[Hashable], int] = _destination,
) -> int:
    """All-to-all by distributed SBnT routing (the §5 pseudocode).

    Every block's route is the SBnT route for its (source XOR
    destination); in phase ``t`` every block at route position ``t``
    advances one hop, grouped into one message per (node, port).  All
    routes finish within ``n`` phases.  Under the n-port model each
    node's ``n`` ports work concurrently, which is the point of the
    balanced tree: per-port traffic is ``~(N-1)/n`` blocks.
    """
    n = network.params.n
    N = 1 << n
    # Precompute each block's route from its current holder.
    routes: dict[Hashable, list[int]] = {}
    positions: dict[Hashable, int] = {}
    for x in range(N):
        for k in network.memory(x).keys():
            rel = x ^ dest_of(k)
            if rel == 0:
                continue
            routes[k] = sbnt_route_dims(rel, n)
            positions[k] = x
    max_len = max((len(r) for r in routes.values()), default=0)
    for t in range(max_len):
        hops: dict[tuple[int, int], list[Hashable]] = {}
        for k, route in routes.items():
            if t < len(route):
                src = positions[k]
                dst = src ^ (1 << route[t])
                hops.setdefault((src, dst), []).append(k)
                positions[k] = dst
        messages = [
            Message(src, dst, tuple(ks)) for (src, dst), ks in hops.items()
        ]
        network.execute_phase(messages)
    return max_len
