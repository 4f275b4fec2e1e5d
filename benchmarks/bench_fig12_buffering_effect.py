"""Figure 12: the effect of optimum buffering on 1D transpose performance.

The paper plots the optimally buffered scheme against the unbuffered one
over a range of matrix sizes and cube sizes: the improvement grows with
the cube size, and for sufficiently small cubes (or large matrices) the
two schemes coincide because every run clears the 64-element threshold.
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

MATRIX_BITS = [10, 12, 14, 16, 18, 20]
N_CUBE = 4


def run_one(total_bits: int, mode: str) -> float:
    p = total_bits // 2
    q = total_bits - p
    before = pt.row_consecutive(p, q, N_CUBE)
    after = pt.row_consecutive(q, p, N_CUBE)
    dm = DistributedMatrix.from_global(np.zeros((1 << p, 1 << q)), before)
    net = EnsembleNetwork(intel_ipsc(N_CUBE))
    policy = BufferPolicy(mode=mode, min_unbuffered_run=64)
    one_dim_transpose_exchange(net, dm, after, policy=policy)
    return net.time


def sweep():
    rows = []
    for bits in MATRIX_BITS:
        unbuf = ms(run_one(bits, "unbuffered"))
        buf = ms(run_one(bits, "threshold"))
        rows.append([1 << bits, unbuf, buf, unbuf / buf])
    return rows


def test_fig12_buffering_effect(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit_table(
        "fig12_buffering_effect",
        f"Figure 12: optimum buffering vs unbuffered, {N_CUBE}-cube (ms)",
        ["elements", "unbuffered", "buffered(opt)", "speedup"],
        rows,
        notes="Paper shape: large speedups for small matrices on a big "
        "cube; the schemes coincide once every exchanged run is >= 64 "
        "elements.",
    )
    speedups = [r[3] for r in rows]
    # Speedup shrinks as the matrix grows ...
    assert speedups[0] > speedups[-1]
    assert speedups[0] > 2.0
    # ... and the curves coincide for sufficiently large data.
    assert speedups[-1] == pytest.approx(1.0, abs=0.05)
