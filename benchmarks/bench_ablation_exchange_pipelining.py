"""Ablation: n-port all-to-all — plain exchange, pipelined exchange, SBnT.

§3.2 in one table: the plain exchange wastes the extra ports entirely;
pipelining it helps but "the algorithm so modified is suboptimal"
(descending dimension order funnels half of each node's traffic through
one port on the first hop); SBnT's base-rotation port assignment
balances the load and approaches the ``M/(2N) t_c + n tau`` bound.
"""

from benchmarks.reporting import emit_table
from repro.analysis.models import all_to_all_nport_min_time
from repro.comm.all_to_all import (
    all_to_all_exchange,
    all_to_all_personalized_data,
    all_to_all_pipelined_exchange,
    all_to_all_sbnt,
)
from repro.machine import EnsembleNetwork, custom_machine
from repro.machine.params import PortModel

CASES = [(3, 32), (4, 16), (5, 16), (6, 8)]
TAU, T_C = 1.0, 1.0

RUNNERS = {
    "exchange": all_to_all_exchange,
    "pipelined": all_to_all_pipelined_exchange,
    "sbnt": all_to_all_sbnt,
}


def run_case(n: int, K: int, name: str) -> float:
    net = EnsembleNetwork(
        custom_machine(n, tau=TAU, t_c=T_C, port_model=PortModel.N_PORT)
    )
    all_to_all_personalized_data(net, K)
    RUNNERS[name](net)
    return net.time


def sweep():
    rows = []
    for n, K in CASES:
        M = (1 << n) ** 2 * K
        params = custom_machine(
            n, tau=TAU, t_c=T_C, port_model=PortModel.N_PORT
        )
        model = all_to_all_nport_min_time(params, M)
        rows.append(
            [
                n,
                run_case(n, K, "exchange"),
                run_case(n, K, "pipelined"),
                run_case(n, K, "sbnt"),
                model,
            ]
        )
    return rows


def test_ablation_exchange_pipelining(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit_table(
        "ablation_exchange_pipelining",
        "Ablation: n-port all-to-all — exchange vs pipelined exchange vs "
        "SBnT (abstract units)",
        ["n", "exchange", "pipelined", "SBnT", "model M/(2N)tc + n tau"],
        rows,
        notes="§3.2: pipelining helps the exchange but stays suboptimal; "
        "SBnT tracks the n-port bound.",
    )
    for n, plain, piped, sbnt, model in rows:
        assert sbnt <= piped <= plain
        assert sbnt <= 2.0 * model
    # The pipelined/SBnT gap widens with the cube dimension.
    first, last = rows[0], rows[-1]
    assert last[2] / last[3] > first[2] / first[3]
