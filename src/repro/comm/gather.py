"""All-to-one personalized communication: gather to a root (§3.3's dual).

Every node holds a private block for the root; blocks flow up a spanning
tree, accumulating at each level.  The schedule is the time-reverse of
the scatter's "subtree at once" schedule: the complexity is symmetric
(receiving serializes at the root exactly as sending did), which is why
the paper treats one-to-all and all-to-one as the same primitive run
backwards.
"""

from __future__ import annotations

from typing import Callable, Hashable

import numpy as np

from repro.cube.trees import SpanningTree
from repro.machine.engine import EnsembleNetwork
from repro.machine.message import Block, Message

__all__ = ["gather_data", "gather_tree"]


def gather_data(
    network: EnsembleNetwork, root: int, elements_per_node: int
) -> None:
    """Load every non-root node with one private block for the root.

    Block ``("a2o", src)`` carries values ``src`` so misdelivery shows in
    the payload.
    """
    n = network.params.n
    if elements_per_node < 1:
        raise ValueError("each node needs at least one element")
    for src in range(1 << n):
        if src == root:
            continue
        network.place(
            src, Block(("a2o", src), data=np.full(elements_per_node, src))
        )


def gather_tree(
    network: EnsembleNetwork,
    tree: SpanningTree,
    *,
    origin_of: Callable[[Hashable], int] = lambda key: key[1],
) -> int:
    """Drain all root-destined blocks up the tree; returns the phases.

    Phase construction mirrors the scatter: first compute the downward
    "subtree at once, largest first" schedule, then play it backwards
    with every hop reversed.  A reversed hop carries the blocks of the
    entire subtree behind it, so the root's last (and largest) arrival is
    the half-cube subtree — the mirror of the scatter's first send.
    """
    root = tree.root
    N = 1 << tree.n
    # Which blocks live where (for validation) and subtree membership.
    origins = [k for x in range(N) for k in network.memory(x).keys()]
    members: dict[int, set[int]] = {
        x: set(tree.subtree_nodes(x)) for x in range(N)
    }
    sizes = {x: tree.subtree_size(x) for x in range(N)}

    # Build the scatter-equivalent schedule: per phase, a set of
    # (parent, child, origin set) sends.
    jobs: dict[int, list[tuple[int, list[int]]]] = {}

    def enqueue(node: int, carried: list[int]) -> list[tuple[int, list[int]]]:
        by_child: dict[int, list[int]] = {}
        for origin in carried:
            if origin == node:
                continue
            for child in tree.children(node):
                if origin in members[child]:
                    by_child.setdefault(child, []).append(origin)
                    break
        return sorted(by_child.items(), key=lambda cv: -sizes[cv[0]])

    all_origins = [origin_of(k) for k in origins]
    jobs[root] = enqueue(root, all_origins)
    phases: list[list[tuple[int, int, list[int]]]] = []
    while any(jobs.values()):
        phase: list[tuple[int, int, list[int]]] = []
        sent: list[tuple[int, list[int]]] = []
        for node, queue in list(jobs.items()):
            if queue:
                child, org = queue.pop(0)
                phase.append((node, child, org))
                sent.append((child, org))
        phases.append(phase)
        for child, org in sent:
            fresh = enqueue(child, org)
            if fresh:
                jobs.setdefault(child, []).extend(fresh)

    # Play backwards: child -> parent, carrying its subtree's blocks.
    count = 0
    for phase in reversed(phases):
        messages = [
            Message(child, parent, tuple(("a2o", o) for o in org))
            for parent, child, org in phase
        ]
        network.execute_phase(messages)
        count += 1
    return count
