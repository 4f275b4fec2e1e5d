"""Ablation: spanning-tree choice for personalized communication (§3).

One-to-all scatter routed by (a) a single SBT, (b) n rotated SBTs with
the data split n ways, (c) the SBnT — under one-port and n-port models.
The paper's claims: on one port the SBT schedule is already within 2x of
the bound; on n ports the balanced/rotated trees cut the transfer term
by ~n/2 because the SBT's heaviest port carries half the data.
"""

from benchmarks.reporting import emit_table
from repro.comm.one_to_all import (
    personalized_data,
    scatter_rotated_sbts,
    scatter_sbnt,
    scatter_tree,
)
from repro.cube.trees import spanning_balanced_tree, spanning_binomial_tree
from repro.machine import EnsembleNetwork, custom_machine
from repro.machine.params import PortModel

N_CUBE = 5
K = 40  # elements per destination (divisible by n for the rotated split)
TAU, T_C = 2.0, 1.0


def run_case(name: str, port: PortModel) -> float:
    net = EnsembleNetwork(
        custom_machine(N_CUBE, tau=TAU, t_c=T_C, port_model=port)
    )
    if name == "rotated":
        personalized_data(net, 0, K, parts=N_CUBE)
        scatter_rotated_sbts(net, 0)
    elif name == "sbt":
        personalized_data(net, 0, K)
        scatter_tree(net, spanning_binomial_tree(N_CUBE), schedule="subtree")
    elif name == "sbt-rbfs":
        personalized_data(net, 0, K)
        scatter_tree(
            net, spanning_binomial_tree(N_CUBE), schedule="reverse-bfs"
        )
    elif name == "sbnt":
        personalized_data(net, 0, K)
        scatter_sbnt(net, spanning_balanced_tree(N_CUBE))
    else:
        raise ValueError(name)
    return net.time


def sweep():
    rows = []
    for name in ("sbt", "sbt-rbfs", "sbnt", "rotated"):
        rows.append(
            [
                name,
                run_case(name, PortModel.ONE_PORT),
                run_case(name, PortModel.N_PORT),
            ]
        )
    return rows


def test_ablation_trees(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit_table(
        "ablation_trees",
        f"Ablation: one-to-all scatter trees on a {N_CUBE}-cube, "
        f"{K} elements/destination (abstract units)",
        ["routing", "one-port", "n-port"],
        rows,
        notes="§3.1: with one port the trees are equivalent (the port "
        "serializes); with n ports the balanced and rotated trees win "
        "~(n/2)x on the transfer term.",
    )
    by = {r[0]: r for r in rows}
    # n-port: balanced/rotated trees beat the plain SBT decisively.
    assert by["sbnt"][2] < by["sbt"][2] / 2
    assert by["rotated"][2] < by["sbt"][2] / 2
    # one-port: no tree can beat the serialized transfer bound by much.
    one_port = [r[1] for r in rows]
    assert max(one_port) < 2.5 * min(one_port)
    # n-port never hurts.
    for r in rows:
        assert r[2] <= r[1] * 1.0001
