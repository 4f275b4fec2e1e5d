"""Theorem 2: MPT transpose time — simulated versus the piecewise T_min.

Sweeps cube dimension and matrix size under n-port communication,
running MPT with the paper's round parameter chosen from the optimal
packet size, and checks the measured times track the analytic T_min and
respect the Theorem 3 lower bound.
"""

import math

import numpy as np

from benchmarks.reporting import emit_table
from repro.analysis.bounds import transpose_lower_bound
from repro.analysis.models import mpt_min_time
from repro.layout import DistributedMatrix
from repro.layout import partition as pt
from repro.machine import EnsembleNetwork, custom_machine
from repro.machine.params import PortModel

CASES = [
    # (n, total matrix bits)
    (2, 8),
    (2, 12),
    (4, 8),
    (4, 12),
    (4, 16),
    (6, 12),
    (6, 16),
]
TAU, T_C = 4.0, 1.0


def run_case(n: int, bits: int) -> tuple[float, float, float]:
    from repro.transpose.two_dim import two_dim_transpose_mpt

    half = n // 2
    p = bits // 2
    layout = pt.two_dim_cyclic(p, bits - p, half, half)
    params = custom_machine(n, tau=TAU, t_c=T_C, port_model=PortModel.N_PORT)
    M = 1 << bits
    L = M >> n
    # Round count from the continuous optimum k = (1/2H) sqrt(L t_c/(2 tau)).
    k = max(1, round(math.sqrt(L * T_C / (2 * TAU)) / n))
    dm = DistributedMatrix.from_global(
        np.zeros((1 << p, 1 << (bits - p))), layout
    )
    net = EnsembleNetwork(params)
    two_dim_transpose_mpt(net, dm, layout, rounds=k)
    return net.time, mpt_min_time(params, M), transpose_lower_bound(params, M)


def sweep():
    rows = []
    for n, bits in CASES:
        sim, model, lb = run_case(n, bits)
        rows.append([n, 1 << bits, sim, model, lb, sim / model])
    return rows


def test_theorem2_mpt(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit_table(
        "theorem2_mpt",
        "Theorem 2: MPT simulated vs piecewise T_min vs Theorem 3 bound "
        "(abstract units, n-port)",
        ["n", "elements", "simulated", "T_min(Thm2)", "bound(Thm3)", "sim/T_min"],
        rows,
        notes="The simulation prices all H-classes (the model prices the "
        "anti-diagonal), so sim/T_min stays within a small constant.",
    )
    for r in rows:
        n, M, sim, model, lb, ratio = r
        # Never below the lower bound ...
        assert sim >= lb * 0.999, r
        # ... and within a small constant of the analytic optimum.
        assert 0.8 <= ratio <= 3.0, r
