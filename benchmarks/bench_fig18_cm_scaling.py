"""Figure 18: Connection Machine transpose of fixed-size matrices as a
function of machine size.

For a fixed matrix, growing the machine shrinks the per-processor load:
time falls until the distance/contention term of the larger cube eats
the gain — the classic strong-scaling curve the paper plots for two
matrix sizes.
"""

import numpy as np

from benchmarks.reporting import emit_table, ms
from repro.layout import DistributedMatrix
from repro.layout import partition as pt
from repro.machine import EnsembleNetwork
from repro.machine.presets import connection_machine
from repro.transpose.two_dim import two_dim_transpose_router

MATRICES = [(7, 7), (9, 9)]  # 128x128 and 512x512
CUBES = [4, 6, 8, 10]


def run_one(p: int, q: int, n: int) -> float:
    half = n // 2
    layout = pt.two_dim_cyclic(p, q, half, half)
    dm = DistributedMatrix.from_global(
        np.zeros((1 << p, 1 << q), dtype=np.float32), layout
    )
    net = EnsembleNetwork(connection_machine(n))
    two_dim_transpose_router(net, dm, layout)
    return net.time


def sweep():
    rows = []
    for n in CUBES:
        row = [n, 1 << n]
        for p, q in MATRICES:
            row.append(ms(run_one(p, q, n)))
        rows.append(row)
    return rows


def test_fig18_cm_machine_scaling(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit_table(
        "fig18_cm_scaling",
        "Figure 18: CM transpose of fixed matrices vs machine size (ms)",
        ["n", "processors", "128x128", "512x512"],
        rows,
        notes="Paper shape: strong scaling — time falls with machine size "
        "while per-processor data dominates.",
    )
    for col in (2, 3):
        series = [r[col] for r in rows]
        # Scaling up the machine helps the fixed-size transpose.
        assert series[0] > series[-1]
    # The larger matrix always costs more on the same machine.
    for r in rows:
        assert r[3] > r[2]
