"""Figure 10: one-dimensional transpose on the iPSC, unbuffered vs buffered.

The paper measures the exchange-algorithm transpose (equivalently the
consecutive-to-cyclic conversion) for cube sizes 1..6 over a range of
matrix sizes, with and without the buffering scheme.  The headline shape:
the *unbuffered* start-up count grows linearly in N (exponentially in n)
while the *buffered* scheme grows only linearly in n, so the curves
diverge sharply for large cubes and coincide when the data is large
relative to the cube.
"""

import numpy as np
import pytest

from benchmarks.reporting import emit_table, ms
from repro.layout import DistributedMatrix
from repro.layout import partition as pt
from repro.machine import EnsembleNetwork
from repro.machine.presets import intel_ipsc
from repro.transpose.exchange import BufferPolicy
from repro.transpose.one_dim import one_dim_transpose_exchange

CUBE_SIZES = [1, 2, 3, 4, 5, 6]
MATRIX_BITS = 14  # 128 x 128 elements


def run_one(n: int, mode: str) -> float:
    p = q = MATRIX_BITS // 2
    before = pt.row_consecutive(p, q, n)
    after = pt.row_consecutive(q, p, n)
    A = np.zeros((1 << p, 1 << q))
    dm = DistributedMatrix.from_global(A, before)
    net = EnsembleNetwork(intel_ipsc(n))
    policy = BufferPolicy(mode=mode, min_unbuffered_run=64)
    one_dim_transpose_exchange(net, dm, after, policy=policy)
    return net.time


def sweep():
    rows = []
    for n in CUBE_SIZES:
        rows.append(
            [
                n,
                1 << n,
                ms(run_one(n, "unbuffered")),
                ms(run_one(n, "threshold")),
            ]
        )
    return rows


def test_fig10_one_dim_transpose(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit_table(
        "fig10_one_dim",
        f"Figure 10: 1D transpose of a 2^{MATRIX_BITS}-element matrix on the "
        "iPSC (ms)",
        ["n", "N", "unbuffered", "buffered(opt)"],
        rows,
        notes="Paper shape: unbuffered grows ~linearly in N; buffered "
        "~linearly in n; curves coincide for small cubes.",
    )
    unbuf = [r[2] for r in rows]
    buf = [r[3] for r in rows]
    # Coincide when every run is still >= the 64-element threshold.
    assert unbuf[0] == pytest.approx(buf[0])
    # Diverge on the largest cube.
    assert unbuf[-1] > 1.5 * buf[-1]
    # Unbuffered start-up growth is superlinear in n (linear in N):
    assert unbuf[-1] / unbuf[-3] > (buf[-1] / buf[-3])
