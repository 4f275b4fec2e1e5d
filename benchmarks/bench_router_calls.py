"""§8.1's closing remark: realizing the 1D all-to-all by 2(N-1) direct
router calls is "always inferior to the optimum buffering algorithm",
by "a factor of 5 to two orders of magnitude depending on the matrix
size and cube size".

We route each of the N(N-1) source->destination blocks through the
e-cube routing logic individually (what the iPSC's send-to-anybody API
did) and compare against the exchange algorithm with optimum buffering.
"""

import numpy as np

from benchmarks.reporting import emit_table, ms
from repro.layout import DistributedMatrix
from repro.layout import partition as pt
from repro.machine import EnsembleNetwork
from repro.machine.message import Block
from repro.machine.presets import intel_ipsc
from repro.machine.routing import RoutedTransfer, route_messages
from repro.transpose.exchange import BufferPolicy
from repro.transpose.one_dim import one_dim_transpose_exchange

CASES = [(4, 12), (5, 12), (6, 12), (5, 16), (6, 16)]


def run_router(n: int, bits: int) -> float:
    """Every (src, dst) sub-block as an individual routed message."""
    N = 1 << n
    per_pair = max(1, (1 << bits) // (N * N))
    net = EnsembleNetwork(intel_ipsc(n))
    transfers = []
    for src in range(N):
        for dst in range(N):
            if dst == src:
                continue
            net.place(src, Block(("rc", src, dst), virtual_size=per_pair))
            transfers.append(RoutedTransfer(src, dst, (("rc", src, dst),)))
    route_messages(net, transfers)
    return net.time


def run_buffered(n: int, bits: int) -> float:
    p = bits // 2
    before = pt.row_consecutive(p, bits - p, n)
    after = pt.row_consecutive(bits - p, p, n)
    dm = DistributedMatrix.from_global(
        np.zeros((1 << p, 1 << (bits - p))), before
    )
    net = EnsembleNetwork(intel_ipsc(n))
    one_dim_transpose_exchange(
        net, dm, after, policy=BufferPolicy(mode="threshold")
    )
    return net.time


def sweep():
    rows = []
    for n, bits in CASES:
        router = ms(run_router(n, bits))
        buffered = ms(run_buffered(n, bits))
        rows.append([n, 1 << bits, router, buffered, router / buffered])
    return rows


def test_router_calls_vs_buffered_exchange(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit_table(
        "router_calls",
        "§8.1: 1D all-to-all via 2(N-1) router calls vs optimum-buffered "
        "exchange on the iPSC (ms)",
        ["n", "elements", "router calls", "buffered exch.", "ratio"],
        rows,
        notes="Paper: router calls lose by 5x to two orders of magnitude, "
        "growing with the cube.",
    )
    ratios = [r[4] for r in rows]
    for r in ratios:
        assert r > 1.2  # always inferior from a 4-cube up
    # The disadvantage grows with the cube size at fixed matrix size.
    by = {(r[0], r[1]): r[4] for r in rows}
    assert by[(6, 4096)] > by[(4, 4096)]
    assert by[(6, 65536)] > by[(5, 65536)]
    assert max(ratios) > 10.0
