"""Bit-reversal permutation by the general exchange algorithm (§7).

The correspondence for matrix transposition is ``f(i) = i``,
``g(i) = i + n/2``; changing it to ``f(i) = i``, ``g(i) = n - 1 - i``
realizes the bit-reversal permutation
``(x_{n-1} ... x_0) <- (x_0 ... x_{n-1})`` — the data reordering of
radix-2 FFTs.  Every machinery piece (send policies, cost model,
distance classification of Lemma 6) carries over unchanged.
"""

from __future__ import annotations

from repro.layout.matrix import DistributedMatrix
from repro.machine.engine import EnsembleNetwork
from repro.obs.instrumentation import instrumentation_of
from repro.transpose.exchange import BufferPolicy, ExchangeExecutor

__all__ = ["bit_reversal_pairs", "bit_reversal_permute"]


def bit_reversal_pairs(m: int) -> list[tuple[int, int]]:
    """General-exchange pairs for an ``m``-bit bit-reversal."""
    if m < 0:
        raise ValueError("address width must be non-negative")
    return [(m - 1 - i, i) for i in range(m // 2)]


def bit_reversal_permute(
    network: EnsembleNetwork,
    dm: DistributedMatrix,
    *,
    policy: BufferPolicy | None = None,
    observer=None,
) -> DistributedMatrix:
    """Permute distributed data so element ``w`` lands at address
    ``reverse(w)`` under the same layout.

    The layout is unchanged; gathering the result gives
    ``out.flat[reverse(w)] == in.flat[w]`` over the full ``m``-bit
    address space.  ``observer`` (an
    :class:`~repro.obs.instrumentation.Instrumentation` hub) is
    installed on the network so the run's ``bit-reversal`` span and its
    per-step exchange leaves land in traces and heatmaps exactly like
    transpose phases.
    """
    if observer is not None:
        observer.attach(network)
    with instrumentation_of(network).span(
        "bit-reversal", category="algorithm", m=dm.layout.m
    ):
        executor = ExchangeExecutor(network, dm, policy=policy)
        executor.run(bit_reversal_pairs(dm.layout.m))
        return executor.finish(dm.layout)
