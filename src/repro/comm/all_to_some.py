"""All-to-some and some-to-all personalized communication (§3.3).

When the number of real-processor dimensions differs before and after a
rearrangement (``|R_b| != |R_a|``, with ``I`` empty) the transpose is a
``2^l``-to-``2^(l+k)`` (or reverse) personalized communication, built
from ``k`` steps of data splitting (one-to-all within k-subcubes) or
accumulation (all-to-one) plus ``l`` steps of all-to-all within
l-subcubes.

Theorem 1 fixes the profitable order: **splitting first** for
some-to-all and **accumulation last** for all-to-some — the all-to-all
steps then run on the smaller per-node volume.  Both orders are
implemented so the benches can measure the theorem's claim.
"""

from __future__ import annotations

from typing import Callable, Hashable, Sequence

from repro.comm.all_to_all import dimension_sweep
from repro.machine.engine import EnsembleNetwork

__all__ = ["some_to_all_scatter", "all_to_some_gather"]


def _destination(key: Hashable) -> int:
    return key[2]


def _check_dims(network: EnsembleNetwork, split_dims, a2a_dims) -> None:
    n = network.params.n
    s, a = set(split_dims), set(a2a_dims)
    if s & a:
        raise ValueError("splitting and all-to-all dimensions must be disjoint")
    for d in s | a:
        if not 0 <= d < n:
            raise ValueError(f"dimension {d} outside {n}-cube")


def some_to_all_scatter(
    network: EnsembleNetwork,
    split_dims: Sequence[int],
    a2a_dims: Sequence[int],
    *,
    dest_of: Callable[[Hashable], int] = _destination,
    split_first: bool = True,
) -> int:
    """Deliver data held by ``2^l`` sources to all ``2^(l+k)`` nodes.

    ``split_dims`` are the ``k`` dimensions along which the sources'
    data fans out (the sources occupy the subcube where those dimensions
    are 0); ``a2a_dims`` are the ``l`` dimensions of the all-to-all.
    ``split_first=True`` is Theorem 1's optimal order; ``False`` runs the
    all-to-all first (for measuring the difference).  Returns phases.
    """
    _check_dims(network, split_dims, a2a_dims)
    if split_first:
        phases = dimension_sweep(network, list(split_dims), dest_of=dest_of)
        phases += dimension_sweep(network, list(a2a_dims), dest_of=dest_of)
    else:
        phases = dimension_sweep(network, list(a2a_dims), dest_of=dest_of)
        phases += dimension_sweep(network, list(split_dims), dest_of=dest_of)
    return phases


def all_to_some_gather(
    network: EnsembleNetwork,
    gather_dims: Sequence[int],
    a2a_dims: Sequence[int],
    *,
    dest_of: Callable[[Hashable], int] = _destination,
    accumulate_last: bool = True,
) -> int:
    """Concentrate data from all ``2^(l+k)`` nodes onto ``2^l`` targets.

    ``gather_dims`` are the ``k`` accumulation dimensions (targets sit
    where those dimensions are 0).  ``accumulate_last=True`` is
    Theorem 1's optimal order.  Returns phases.
    """
    _check_dims(network, gather_dims, a2a_dims)
    if accumulate_last:
        phases = dimension_sweep(network, list(a2a_dims), dest_of=dest_of)
        phases += dimension_sweep(network, list(gather_dims), dest_of=dest_of)
    else:
        phases = dimension_sweep(network, list(gather_dims), dest_of=dest_of)
        phases += dimension_sweep(network, list(a2a_dims), dest_of=dest_of)
    return phases
