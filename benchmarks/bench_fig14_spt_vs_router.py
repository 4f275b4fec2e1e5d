"""Figure 14: two-dimensional transpose — SPT algorithm vs routing logic.

(a) the SPT total time as a function of cube size and matrix size: for
small matrices start-ups dominate and time *increases* with n; for large
matrices the per-node volume shrinks and time *decreases* with n.
(b) handing the blocks to the e-cube routing logic instead: conflicts
serialize, and the scheduled algorithm wins increasingly with cube size.
"""

import numpy as np

from benchmarks.reporting import emit_table, ms
from repro.layout import DistributedMatrix
from repro.layout import partition as pt
from repro.machine import EnsembleNetwork
from repro.machine.presets import intel_ipsc
from repro.transpose.two_dim import two_dim_transpose_router, two_dim_transpose_spt

CUBES = [2, 4, 6]
MATRIX_BITS = [8, 12, 16]
MATRIX_BITS_ELEMENTS = [1 << b for b in MATRIX_BITS]


def run_pair(total_bits: int, n: int) -> tuple[float, float]:
    half = n // 2
    p = total_bits // 2
    layout = pt.two_dim_cyclic(p, total_bits - p, half, half)
    dm = DistributedMatrix.from_global(
        np.zeros((1 << p, 1 << (total_bits - p))), layout
    )
    spt_net = EnsembleNetwork(intel_ipsc(n))
    two_dim_transpose_spt(spt_net, dm, layout, charge_copy=True)
    rt_net = EnsembleNetwork(intel_ipsc(n))
    two_dim_transpose_router(rt_net, dm, layout)
    return spt_net.time, rt_net.time


def sweep():
    rows = []
    for bits in MATRIX_BITS:
        for n in CUBES:
            spt, router = run_pair(bits, n)
            rows.append([1 << bits, n, ms(spt), ms(router), router / spt])
    return rows


def test_fig14_spt_vs_router(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit_table(
        "fig14_spt_vs_router",
        "Figure 14: SPT (a) vs routing logic (b) on the iPSC (ms)",
        ["elements", "n", "SPT", "router", "router/SPT"],
        rows,
        notes="Paper shape: (a) time rises with n for small matrices, "
        "falls for large; (b) the scheduled algorithm beats the router "
        "increasingly with cube size.",
    )
    by = {(r[0], r[1]): r for r in rows}
    # (a) small matrix: more start-ups with bigger cube.
    assert by[(256, 6)][2] > by[(256, 2)][2]
    # (a) large matrix: bigger cube shortens the transpose.
    assert by[(65536, 6)][2] < by[(65536, 2)][2]
    # (b) the scheduled algorithm gains on the router as the cube grows,
    # and wins outright on the 6-cube.
    for elements in MATRIX_BITS_ELEMENTS:
        ratios = [by[(elements, n)][4] for n in CUBES]
        assert ratios[0] < ratios[-1]
    assert by[(65536, 6)][4] > 1.0
    assert by[(256, 6)][4] > 1.0
