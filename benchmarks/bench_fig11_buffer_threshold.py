"""Figure 11: sensitivity to the minimum unbuffered message size.

The optimum-buffering scheme sends runs of at least ``B_copy`` elements
directly and copies shorter runs into a buffer.  The paper measures the
total transpose time as a function of that threshold: too small and the
start-ups of tiny direct sends dominate; too large and the copy cost of
needlessly buffered medium runs dominates.  On the iPSC the optimum sits
at ~64 elements (one start-up = copying 64 elements).
"""

import numpy as np

from benchmarks.reporting import emit_table, ms
from repro.layout import DistributedMatrix
from repro.layout import partition as pt
from repro.machine import EnsembleNetwork
from repro.machine.presets import intel_ipsc
from repro.transpose.exchange import BufferPolicy
from repro.transpose.one_dim import one_dim_transpose_exchange

THRESHOLDS = [1, 4, 16, 32, 64, 128, 256, 1024, 4096]
N_CUBE = 5
MATRIX_BITS = 14


def run_one(threshold: int) -> float:
    p = q = MATRIX_BITS // 2
    before = pt.row_consecutive(p, q, N_CUBE)
    after = pt.row_consecutive(q, p, N_CUBE)
    dm = DistributedMatrix.from_global(np.zeros((1 << p, 1 << q)), before)
    net = EnsembleNetwork(intel_ipsc(N_CUBE))
    policy = BufferPolicy(mode="threshold", min_unbuffered_run=threshold)
    one_dim_transpose_exchange(net, dm, after, policy=policy)
    return net.time


def sweep():
    return [[t, ms(run_one(t))] for t in THRESHOLDS]


def test_fig11_buffer_threshold(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit_table(
        "fig11_buffer_threshold",
        "Figure 11: 1D transpose time (ms) vs minimum unbuffered run, "
        f"{N_CUBE}-cube, 2^{MATRIX_BITS} elements",
        ["B_copy", "time"],
        rows,
        notes="Paper shape: minimum near 64 elements (copy of 64 floats "
        "~ one start-up); both extremes are worse.",
    )
    times = {t: v for t, v in rows}
    best = min(times.values())
    # The optimum threshold sits in the interior, near 64.
    assert times[64] <= best * 1.05
    assert times[1] >= times[64]
    assert times[4096] > times[64]
