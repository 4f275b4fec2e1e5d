"""Figure 17: Connection Machine transpose with multiple elements per
processor, for several machine sizes.

With a pipelined router the start-up is amortized, so time scales close
to linearly in the number of elements per processor, with the machine
size adding its contention/distance factor.
"""

import numpy as np

from benchmarks.reporting import emit_table, ms
from repro.layout import DistributedMatrix
from repro.layout import partition as pt
from repro.machine import EnsembleNetwork
from repro.machine.presets import connection_machine
from repro.transpose.two_dim import two_dim_transpose_router

CUBES = [4, 6, 8]
ELEMENTS_PER_PROC = [1, 2, 4, 8, 16, 32]


def run_one(n: int, epp: int) -> float:
    half = n // 2
    extra = epp.bit_length() - 1
    layout = pt.two_dim_cyclic(half + extra, half, half, half)
    after = pt.two_dim_cyclic(half, half + extra, half, half)
    dm = DistributedMatrix.from_global(
        np.zeros((1 << (half + extra), 1 << half), dtype=np.float32), layout
    )
    net = EnsembleNetwork(connection_machine(n))
    two_dim_transpose_router(net, dm, after)
    return net.time


def sweep():
    rows = []
    for epp in ELEMENTS_PER_PROC:
        rows.append([epp] + [ms(run_one(n, epp)) for n in CUBES])
    return rows


def test_fig17_cm_multiple_elements(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit_table(
        "fig17_cm_multi",
        "Figure 17: CM transpose (ms) vs elements per processor",
        ["elems/proc", *(f"n={n}" for n in CUBES)],
        rows,
        notes="Paper shape: near-linear growth in elements per processor "
        "(pipelined router, start-up amortized); larger machines pay "
        "distance/contention.",
    )
    for col in range(1, len(CUBES) + 1):
        series = [r[col] for r in rows]
        assert all(b > a for a, b in zip(series, series[1:]))
        # Pipelining: 32x the data costs well under 64x the time.
        assert series[-1] / series[0] < 64
    # Bigger machine, same per-processor load -> more time (distance).
    for r in rows:
        assert r[1] <= r[2] <= r[3]
