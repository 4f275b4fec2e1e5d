"""§9: where one-dimensional and two-dimensional partitioning cross over.

Evaluates the paper's two n-port formulas (SBnT all-to-all for 1D,
Theorem 2's MPT T_min for 2D) across cube sizes for a fixed matrix, and
also simulates both algorithms at a few points.  §9's claims: 1D wins
for ``n >= sqrt(M t_c / (N tau))`` (by about one start-up) and for
``n <= sqrt(M t_c / (2 N tau))``; the 2D window lives in between, and
the break-even N is ``~ c r / log^2 r``.
"""

import math

import numpy as np

from benchmarks.reporting import emit_table
from repro.analysis.crossover import (
    break_even_processors,
    compare_one_vs_two_dim,
)
from repro.layout import DistributedMatrix
from repro.layout import partition as pt
from repro.machine import EnsembleNetwork, custom_machine
from repro.machine.params import PortModel
from repro.transpose.one_dim import one_dim_transpose_sbnt
from repro.transpose.two_dim import two_dim_transpose_mpt

BITS = 16
TAU, T_C = 8.0, 1.0
CUBES = [2, 4, 6, 8, 10, 12]


def analytic_rows():
    rows = []
    for n in CUBES:
        params = custom_machine(n, tau=TAU, t_c=T_C, port_model=PortModel.N_PORT)
        cmp = compare_one_vs_two_dim(params, 1 << BITS)
        hi = math.sqrt((1 << BITS) * T_C / ((1 << n) * TAU))
        rows.append(
            [n, cmp.t_one_dim, cmp.t_two_dim, cmp.winner, f"{hi:.1f}"]
        )
    return rows


def simulate_point(n: int) -> tuple[float, float]:
    params = custom_machine(n, tau=TAU, t_c=T_C, port_model=PortModel.N_PORT)
    p = BITS // 2
    lay1 = pt.row_consecutive(p, BITS - p, n)
    dm1 = DistributedMatrix.from_global(np.zeros((1 << p, 1 << (BITS - p))), lay1)
    net1 = EnsembleNetwork(params)
    one_dim_transpose_sbnt(net1, dm1, pt.row_consecutive(BITS - p, p, n))

    half = n // 2
    lay2 = pt.two_dim_cyclic(p, BITS - p, half, half)
    dm2 = DistributedMatrix.from_global(np.zeros((1 << p, 1 << (BITS - p))), lay2)
    net2 = EnsembleNetwork(params)
    L = (1 << BITS) >> n
    k = max(1, round(math.sqrt(L * T_C / (2 * TAU)) / n))
    two_dim_transpose_mpt(net2, dm2, lay2, rounds=k)
    return net1.time, net2.time


def test_crossover_analysis(benchmark):
    rows = benchmark.pedantic(analytic_rows, rounds=1, iterations=1)
    emit_table(
        "crossover_analytic",
        f"§9: 1D vs 2D analytic times, M = 2^{BITS}, tau/t_c = {TAU}",
        ["n", "T_1d", "T_2d(MPT)", "winner", "sqrt(Mtc/Ntau)"],
        rows,
        notes="1D wins at both extremes; where 2D wins, the margin is "
        "about one start-up.",
    )
    # 1D wins at the extremes (start-up-bound big cubes, transfer-bound
    # small cubes).
    assert rows[0][3] == "1d"
    assert rows[-1][3] == "1d"
    # Wherever 2D wins, it wins by at most ~one start-up (§9).
    for n, t1, t2, winner, _ in rows:
        if winner == "2d":
            assert t1 - t2 <= 1.5 * TAU

    be = break_even_processors(1 << BITS, T_C, TAU)
    assert be > 1


def test_crossover_simulated(benchmark):
    def run():
        return [[n, *simulate_point(n)] for n in (4, 6, 8)]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit_table(
        "crossover_simulated",
        f"§9: 1D (SBnT) vs 2D (MPT) simulated, M = 2^{BITS}",
        ["n", "sim 1d", "sim 2d"],
        rows,
        notes="Simulated times mirror the analytic comparison within the "
        "scheduling constants.",
    )
    for n, t1, t2 in rows:
        params = custom_machine(n, tau=TAU, t_c=T_C, port_model=PortModel.N_PORT)
        cmp = compare_one_vs_two_dim(params, 1 << BITS)
        assert t1 <= 2.5 * cmp.t_one_dim
        assert t2 <= 3.0 * cmp.t_two_dim
