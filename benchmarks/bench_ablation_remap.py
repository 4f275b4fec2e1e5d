"""Ablation: the three §6.2 remapping algorithms.

Transposing a 2D-consecutive matrix into 2D-cyclic storage: Algorithm 1
(convert, convert, transpose — 2n communication steps) versus Algorithms
2 and 3 (n steps, paying with local transposes or a final shuffle).
"""

import numpy as np

from benchmarks.reporting import emit_table
from repro.layout import DistributedMatrix
from repro.layout import partition as pt
from repro.machine import EnsembleNetwork, custom_machine
from repro.transpose.exchange import BufferPolicy
from repro.transpose.remap import remap_transpose

P_BITS = 6
NR = 2
TAU, T_C, T_COPY = 8.0, 1.0, 0.25


def run_alg(alg: int, *, charge_local: bool) -> tuple[float, float, int]:
    before = pt.two_dim_consecutive(P_BITS, P_BITS, NR, NR)
    after = pt.two_dim_cyclic(P_BITS, P_BITS, NR, NR)
    dm = DistributedMatrix.from_global(
        np.zeros((1 << P_BITS, 1 << P_BITS)), before
    )
    net = EnsembleNetwork(
        custom_machine(2 * NR, tau=TAU, t_c=T_C, t_copy=T_COPY)
    )
    policy = BufferPolicy(mode="buffered", charge_local_moves=charge_local)
    remap_transpose(net, dm, after, algorithm=alg, policy=policy)
    return net.comm_time if hasattr(net, "comm_time") else net.stats.comm_time, net.time, net.stats.phases


def sweep():
    rows = []
    for alg in (1, 2, 3):
        comm, total, phases = run_alg(alg, charge_local=True)
        rows.append([alg, comm, total - comm, total, phases])
    return rows


def test_ablation_remap(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit_table(
        "ablation_remap",
        f"Ablation: §6.2 consecutive->cyclic transpose algorithms, "
        f"2^{2 * P_BITS} elements on a {2 * NR}-cube (abstract units)",
        ["algorithm", "comm", "local", "total", "phases"],
        rows,
        notes="Algorithm 1 pays 2n communication steps; 2 and 3 pay n "
        "steps plus local work (3 trades algorithm 2's up-front local "
        "transpose for a final shuffle).",
    )
    by = {r[0]: r for r in rows}
    # Algorithm 1 communicates roughly twice as much as 2 and 3.
    assert by[1][1] > 1.5 * by[3][1]
    assert by[1][1] > 1.5 * by[2][1]
    # The n-step algorithms win in total despite local charges.
    assert by[2][3] < by[1][3]
    assert by[3][3] < by[1][3]
