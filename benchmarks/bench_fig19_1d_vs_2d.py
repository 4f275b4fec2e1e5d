"""Figure 19 / §9: one- versus two-dimensional partitioning on the iPSC.

One-port comparison of the 1D exchange transpose (optimum buffering)
against the 2D step-by-step SPT (with its copy charges).  The paper's
§9 conclusions: with copy time ignored the 1D partitioning always wins
under one-port; once the iPSC's copy costs are included, the 2D
partitioning wins for a sufficiently large cube (its copy term is a
constant 2L t_copy, while the buffered 1D scheme copies on up to n
steps).
"""

import numpy as np

from benchmarks.reporting import emit_table, ms
from repro.layout import DistributedMatrix
from repro.layout import partition as pt
from repro.machine import EnsembleNetwork
from repro.machine.presets import intel_ipsc
from repro.transpose.exchange import BufferPolicy
from repro.transpose.one_dim import one_dim_transpose_exchange
from repro.transpose.two_dim import two_dim_transpose_spt

CUBES = [2, 4, 6]
MATRIX_BITS = [12, 14, 18]


def run_pair(total_bits: int, n: int, *, with_copy: bool) -> tuple[float, float]:
    p = total_bits // 2
    q = total_bits - p
    params = intel_ipsc(n)
    if not with_copy:
        from dataclasses import replace

        params = replace(params, t_copy=0.0)

    before_1d = pt.row_consecutive(p, q, n)
    after_1d = pt.row_consecutive(q, p, n)
    dm1 = DistributedMatrix.from_global(np.zeros((1 << p, 1 << q)), before_1d)
    net1 = EnsembleNetwork(params)
    # With copy costs in force the optimum-threshold policy applies;
    # with copies free, full buffering dominates (one message per step).
    mode = "threshold" if with_copy else "buffered"
    one_dim_transpose_exchange(
        net1, dm1, after_1d, policy=BufferPolicy(mode=mode)
    )

    half = n // 2
    lay2 = pt.two_dim_cyclic(p, q, half, half)
    dm2 = DistributedMatrix.from_global(np.zeros((1 << p, 1 << q)), lay2)
    net2 = EnsembleNetwork(params)
    two_dim_transpose_spt(net2, dm2, lay2, charge_copy=with_copy)
    return net1.time, net2.time


def sweep():
    rows = []
    for bits in MATRIX_BITS:
        for n in CUBES:
            t1, t2 = run_pair(bits, n, with_copy=True)
            t1n, t2n = run_pair(bits, n, with_copy=False)
            rows.append(
                [1 << bits, n, ms(t1), ms(t2), ms(t1n), ms(t2n)]
            )
    return rows


def test_fig19_one_vs_two_dim(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit_table(
        "fig19_1d_vs_2d",
        "Figure 19: 1D (buffered exchange) vs 2D (SPT) transpose on the "
        "iPSC (ms); and with copy costs removed",
        ["elements", "n", "1d", "2d", "1d(no copy)", "2d(no copy)"],
        rows,
        notes="§9: copy ignored + one-port => 1D always wins; with copy "
        "the 2D partitioning wins for a sufficiently large cube.",
    )
    # Copy ignored: 1D never loses (§9's first conclusion).
    for r in rows:
        assert r[4] <= r[5] * 1.001, r
    by = {(r[0], r[1]): r for r in rows}
    # With copy: 2D wins when the cube is large relative to the matrix
    # ("the two-dimensional partitioning yields a lower complexity for a
    # sufficiently large cube") ...
    medium_big_cube = by[(1 << MATRIX_BITS[1], 6)]
    assert medium_big_cube[3] < medium_big_cube[2]
    # ... and 1D wins when the matrix dwarfs the cube.
    large_small_cube = by[(1 << MATRIX_BITS[-1], 2)]
    assert large_small_cube[2] < large_small_cube[3]
