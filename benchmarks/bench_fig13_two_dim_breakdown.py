"""Figure 13: two-dimensional SPT transpose on the iPSC — cost breakdown.

The paper separates copy time, communication time and total time for a
2-cube and a 6-cube over a range of matrix sizes, observing: per-node
copy time falls with the cube size (less local data), and for the 6-cube
the communication term is start-up dominated until the matrix outgrows
``B_m * N`` (64 KBytes there).
"""

import numpy as np
import pytest

from benchmarks.reporting import emit_table, ms
from repro.layout import DistributedMatrix
from repro.layout import partition as pt
from repro.machine import EnsembleNetwork
from repro.machine.presets import intel_ipsc
from repro.transpose.two_dim import two_dim_transpose_spt

MATRIX_BITS = [8, 10, 12, 14, 16]


def run_one(total_bits: int, n: int) -> tuple[float, float, float]:
    half = n // 2
    p = total_bits // 2
    layout = pt.two_dim_cyclic(p, total_bits - p, half, half)
    dm = DistributedMatrix.from_global(
        np.zeros((1 << p, 1 << (total_bits - p))), layout
    )
    net = EnsembleNetwork(intel_ipsc(n))
    two_dim_transpose_spt(net, dm, layout, charge_copy=True)
    return net.stats.copy_time, net.stats.comm_time, net.time


def sweep():
    rows = []
    for bits in MATRIX_BITS:
        c2, m2, t2 = run_one(bits, 2)
        c6, m6, t6 = run_one(bits, 6)
        rows.append(
            [1 << bits, ms(c2), ms(m2), ms(t2), ms(c6), ms(m6), ms(t6)]
        )
    return rows


def test_fig13_two_dim_breakdown(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit_table(
        "fig13_two_dim_breakdown",
        "Figure 13: SPT on the iPSC — copy/comm/total (ms), 2-cube vs 6-cube",
        ["elements", "copy(2)", "comm(2)", "total(2)", "copy(6)", "comm(6)", "total(6)"],
        rows,
        notes="Paper shape: 6-cube copy < 2-cube copy; 6-cube comm flat "
        "(start-up bound) while elements <= B_m * N.",
    )
    for row in rows:
        # Copy time on the 6-cube is 16x smaller (local data is).
        assert row[4] == pytest.approx(row[1] / 16)
    # 6-cube communication is start-up bound for small matrices:
    small, large = rows[0], rows[-1]
    assert small[5] == pytest.approx(6 * 5.0, rel=0.2)  # ~n tau
    # but grows once the matrix exceeds B_m * N = 2^14 elements.
    assert large[5] > 2 * small[5]
