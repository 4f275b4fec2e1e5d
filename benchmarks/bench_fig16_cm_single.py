"""Figure 16: matrix transpose on the Connection Machine, one element per
processor, using the routing logic.

The CM router is bit-serial and pipelined (start-up amortized); the
transpose cost grows with the cube dimension through path length and
link contention, and sits orders of magnitude below the iPSC because
tau is microseconds, not milliseconds.
"""

import numpy as np

from benchmarks.reporting import emit_table, ms
from repro.layout import DistributedMatrix
from repro.layout import partition as pt
from repro.machine import EnsembleNetwork
from repro.machine.presets import connection_machine, intel_ipsc
from repro.transpose.two_dim import two_dim_transpose_router

CUBES = [2, 4, 6, 8, 10, 12]


def run_one(n: int, machine_factory) -> float:
    half = n // 2
    layout = pt.two_dim_cyclic(half, half, half, half)  # 1 element/processor
    dm = DistributedMatrix.from_global(
        np.zeros((1 << half, 1 << half), dtype=np.float32), layout
    )
    net = EnsembleNetwork(machine_factory(n))
    two_dim_transpose_router(net, dm, layout)
    return net.time


def sweep():
    rows = []
    for n in CUBES:
        cm = run_one(n, connection_machine)
        rows.append([n, 1 << n, ms(cm)])
    return rows


def test_fig16_cm_single_element(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit_table(
        "fig16_cm_single",
        "Figure 16: CM transpose via routing logic, 1 element/processor (ms)",
        ["n", "processors", "time"],
        rows,
        notes="Paper shape: grows with machine size (distance and router "
        "contention); absolute scale ~ms even at 4096 processors.",
    )
    times = [r[2] for r in rows]
    assert all(b >= a for a, b in zip(times, times[1:]))
    assert times[-1] < 50  # milliseconds, not the iPSC's hundreds

    # Closing §9 comparison: two orders of magnitude faster than the iPSC
    # on the same transpose.
    cm = run_one(6, connection_machine)
    ipsc = run_one(6, intel_ipsc)
    assert ipsc / cm > 100
