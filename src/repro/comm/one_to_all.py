"""One-to-all personalized communication (§3.1): scatter from a root.

The root holds a private block for every node.  Routing follows a
spanning tree; the scheduling discipline determines the constant:

* ``"subtree"`` — send all data for one subtree as one message, largest
  subtree first ([5]'s one-port SBT schedule: time
  ``(1 - 1/N) PQ t_c + n tau`` when packets fit);
* ``"reverse-bfs"`` — send data for the deepest destinations first, one
  depth level per message, so every tree level relays concurrently
  (the n-port schedule for SBnT and rotated-SBT routing).

:func:`scatter_rotated_sbts` splits each node's data into ``n`` equal
parts and routes part ``k`` by the SBT rotated ``k`` steps — the §3.1
alternative achieving n-port lower-bound order with binomial trees.
"""

from __future__ import annotations

from typing import Callable, Hashable

import numpy as np

from repro.cube.trees import SpanningTree, spanning_binomial_tree
from repro.machine.engine import EnsembleNetwork
from repro.machine.message import Block, Message

__all__ = [
    "personalized_data",
    "scatter_tree",
    "scatter_rotated_sbts",
    "scatter_sbnt",
]


def personalized_data(
    network: EnsembleNetwork,
    root: int,
    elements_per_node: int,
    *,
    parts: int = 1,
) -> None:
    """Load the root with one private block per (destination, part).

    Block ``("p13n", dst, i)`` carries ``elements_per_node // parts``
    elements whose values are all ``dst`` — so misdelivery is visible in
    the data itself, not only in the bookkeeping.
    """
    n = network.params.n
    if elements_per_node % parts:
        raise ValueError("elements_per_node must divide evenly into parts")
    size = elements_per_node // parts
    if size < 1:
        raise ValueError("each part needs at least one element")
    for dst in range(1 << n):
        if dst == root:
            continue
        for i in range(parts):
            network.place(
                root, Block(("p13n", dst, i), data=np.full(size, dst))
            )


def _destination(key: Hashable) -> int:
    return key[1]


def scatter_tree(
    network: EnsembleNetwork,
    tree: SpanningTree,
    *,
    dest_of: Callable[[Hashable], int] = _destination,
    schedule: str = "subtree",
    key_filter: Callable[[Hashable], bool] | None = None,
) -> int:
    """Scatter blocks held at the tree root down to their destinations.

    Every block at the root whose ``dest_of(key)`` is not the root is
    routed along the tree path.  Returns the number of phases used.
    ``key_filter`` restricts which root-held blocks participate (used by
    the rotated-SBT scatter to route each part on its own tree).
    """
    if schedule not in ("subtree", "reverse-bfs"):
        raise ValueError(f"unknown schedule {schedule!r}")
    root = tree.root
    mem = network.memory(root)
    keys = [
        k
        for k in mem.keys()
        if (key_filter is None or key_filter(k)) and dest_of(k) != root
    ]
    if not keys:
        return 0

    if schedule == "subtree":
        return _scatter_subtree(network, tree, keys, dest_of)
    return _scatter_reverse_bfs(network, tree, keys, dest_of)


def _child_of(tree: SpanningTree, node: int, dst: int) -> int:
    """The child of ``node`` whose subtree contains ``dst``."""
    path = tree.path_from_root(dst)
    idx = path.index(node)
    return path[idx + 1]


def _scatter_subtree(
    network: EnsembleNetwork,
    tree: SpanningTree,
    keys: list[Hashable],
    dest_of: Callable[[Hashable], int],
) -> int:
    # jobs[node] = ordered list of (child, keys); largest subtree first.
    sizes = {x: tree.subtree_size(x) for x in range(1 << tree.n)}

    def enqueue(node: int, incoming: list[Hashable]) -> list[tuple[int, list]]:
        by_child: dict[int, list[Hashable]] = {}
        for k in incoming:
            dst = dest_of(k)
            if dst == node:
                continue
            by_child.setdefault(_child_of(tree, node, dst), []).append(k)
        return sorted(by_child.items(), key=lambda cv: -sizes[cv[0]])

    jobs: dict[int, list[tuple[int, list]]] = {tree.root: enqueue(tree.root, keys)}
    phases = 0
    while any(jobs.values()):
        messages: list[Message] = []
        sent: list[tuple[int, int, list]] = []
        for node, queue in jobs.items():
            if queue:
                child, ks = queue.pop(0)
                messages.append(Message(node, child, tuple(ks)))
                sent.append((node, child, ks))
        network.execute_phase(messages)
        phases += 1
        for _, child, ks in sent:
            fresh = enqueue(child, ks)
            if fresh:
                jobs.setdefault(child, []).extend(fresh)
    return phases


def _scatter_reverse_bfs(
    network: EnsembleNetwork,
    tree: SpanningTree,
    keys: list[Hashable],
    dest_of: Callable[[Hashable], int],
) -> int:
    # Data for depth-d destinations crosses tree-path edge number l
    # (1-indexed) during phase (D - d) + l - 1; deepest data first, all
    # levels busy once the pipeline fills.
    depths = {k: tree.depth(dest_of(k)) for k in keys}
    max_depth = max(depths.values())
    paths = {k: tree.path_from_root(dest_of(k)) for k in keys}
    phases = 0
    for t in range(max_depth):
        # Group hop (src, dst) -> keys moving this phase.
        hops: dict[tuple[int, int], list[Hashable]] = {}
        for k in keys:
            d = depths[k]
            lvl = t - (max_depth - d) + 1
            if 1 <= lvl <= d:
                path = paths[k]
                hops.setdefault((path[lvl - 1], path[lvl]), []).append(k)
        messages = [
            Message(src, dst, tuple(ks)) for (src, dst), ks in hops.items()
        ]
        network.execute_phase(messages)
        phases += 1
    return phases


def scatter_rotated_sbts(
    network: EnsembleNetwork,
    root: int,
    *,
    parts: int | None = None,
    dest_of: Callable[[Hashable], int] = _destination,
) -> int:
    """Scatter via ``n`` rotated spanning binomial trees (§3.1).

    Each destination's data must be pre-split into ``parts`` blocks with
    the part index as the last key component (see
    :func:`personalized_data` with ``parts=n``); part ``i`` routes down
    the SBT rotated ``i`` steps.  With n-port communication the ``n``
    trees progress concurrently, cutting transfer time by ``~n`` over a
    single SBT.
    """
    n = network.params.n
    parts = n if parts is None else parts
    phases = 0
    trees = [
        spanning_binomial_tree(n, root=root, rotation=r) for r in range(parts)
    ]
    # Interleave: run all trees' schedules phase by phase so the port
    # model (not the code structure) decides concurrency.
    schedulers = [
        _ReverseBfsStepper(network, tree, dest_of, part)
        for part, tree in enumerate(trees)
    ]
    while any(not s.done for s in schedulers):
        messages: list[Message] = []
        for s in schedulers:
            messages.extend(s.next_phase_messages())
        network.execute_phase(messages)
        phases += 1
    return phases


class _ReverseBfsStepper:
    """Phase-at-a-time iterator of the reverse-BFS schedule for one tree."""

    def __init__(
        self,
        network: EnsembleNetwork,
        tree: SpanningTree,
        dest_of: Callable[[Hashable], int],
        part: int,
    ) -> None:
        mem = network.memory(tree.root)
        self.keys = [
            k
            for k in mem.keys()
            if len(k) >= 3 and k[2] == part and dest_of(k) != tree.root
        ]
        self.tree = tree
        self.dest_of = dest_of
        self.depths = {k: tree.depth(dest_of(k)) for k in self.keys}
        self.paths = {k: tree.path_from_root(dest_of(k)) for k in self.keys}
        self.max_depth = max(self.depths.values(), default=0)
        self.t = 0

    @property
    def done(self) -> bool:
        return self.t >= self.max_depth

    def next_phase_messages(self) -> list[Message]:
        if self.done:
            return []
        hops: dict[tuple[int, int], list[Hashable]] = {}
        for k in self.keys:
            d = self.depths[k]
            lvl = self.t - (self.max_depth - d) + 1
            if 1 <= lvl <= d:
                path = self.paths[k]
                hops.setdefault((path[lvl - 1], path[lvl]), []).append(k)
        self.t += 1
        return [Message(src, dst, tuple(ks)) for (src, dst), ks in hops.items()]


def scatter_sbnt(
    network: EnsembleNetwork,
    tree: SpanningTree,
    *,
    dest_of: Callable[[Hashable], int] = _destination,
) -> int:
    """Scatter down a spanning balanced n-tree, reverse-BFS scheduled.

    Convenience wrapper: the SBnT divides the node set into ``n`` nearly
    equal subtrees, so with n-port communication the transfer time drops
    by ``~n/2`` relative to SBT routing (§3.1).
    """
    return scatter_tree(network, tree, dest_of=dest_of, schedule="reverse-bfs")
