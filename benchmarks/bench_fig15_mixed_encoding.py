"""Figure 15: transposing a matrix with mixed row/column encodings.

Rows binary, columns Gray coded; the naive algorithm converts, transposes
and converts back in ``2n - 2`` routing steps while the §6.3 combined
algorithm does it in ``n``.  The paper plots both against matrix size on
the iPSC; the gap approaches the step-count ratio as the per-step data
volume grows.
"""

import numpy as np
import pytest

from benchmarks.reporting import emit_table, ms
from repro.layout import DistributedMatrix
from repro.layout import partition as pt
from repro.machine import EnsembleNetwork
from repro.machine.presets import intel_ipsc
from repro.transpose.mixed import (
    mixed_code_transpose_combined,
    mixed_code_transpose_naive,
)

N_CUBE = 6
MATRIX_BITS = [8, 10, 12, 14, 16]


def run_pair(total_bits: int) -> tuple[float, float]:
    half = N_CUBE // 2
    p = total_bits // 2
    before = pt.two_dim_mixed(
        p, total_bits - p, half, half, rows="cyclic", cols="cyclic", col_gray=True
    )
    dm = DistributedMatrix.from_global(
        np.zeros((1 << p, 1 << (total_bits - p))), before
    )
    after = pt.two_dim_mixed(
        total_bits - p, p, half, half, rows="cyclic", cols="cyclic", col_gray=True
    )
    naive_net = EnsembleNetwork(intel_ipsc(N_CUBE))
    mixed_code_transpose_naive(naive_net, dm, after)
    comb_net = EnsembleNetwork(intel_ipsc(N_CUBE))
    mixed_code_transpose_combined(comb_net, dm, after)
    return naive_net.time, comb_net.time


def sweep():
    rows = []
    for bits in MATRIX_BITS:
        naive, combined = run_pair(bits)
        rows.append([1 << bits, ms(naive), ms(combined), naive / combined])
    return rows


def test_fig15_mixed_encoding(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    n = N_CUBE
    emit_table(
        "fig15_mixed_encoding",
        f"Figure 15: mixed-encoding transpose on a {n}-cube iPSC (ms): "
        f"naive ({2 * n - 2} steps) vs combined ({n} steps)",
        ["elements", "naive", "combined", "ratio"],
        rows,
        notes=f"Paper shape: combined wins everywhere; ratio tends to "
        f"(2n-2)/n = {(2 * n - 2) / n:.2f}.",
    )
    for r in rows:
        assert r[1] > r[2]
    # Ratio approaches (2n-2)/n for large matrices.
    assert rows[-1][3] == pytest.approx((2 * n - 2) / n, rel=0.25)
