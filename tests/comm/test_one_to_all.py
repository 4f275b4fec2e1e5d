"""Tests for one-to-all personalized communication (§3.1)."""

import numpy as np
import pytest

from repro.comm.one_to_all import (
    personalized_data,
    scatter_rotated_sbts,
    scatter_sbnt,
    scatter_tree,
)
from repro.cube.trees import spanning_balanced_tree, spanning_binomial_tree
from repro.machine import EnsembleNetwork, custom_machine
from repro.machine.params import PortModel


def everyone_got_their_block(net, root, parts=1):
    n = net.params.n
    for dst in range(1 << n):
        if dst == root:
            continue
        mem = net.memory(dst)
        for i in range(parts):
            key = ("p13n", dst, i)
            assert key in mem, f"node {dst} missing part {i}"
            assert np.all(mem.get(key).data == dst)
    # Nothing stranded elsewhere.
    for x in range(1 << n):
        for key in net.memory(x).keys():
            assert key[1] == x


class TestPersonalizedData:
    def test_places_blocks_at_root(self):
        net = EnsembleNetwork(custom_machine(3))
        personalized_data(net, 0, 8)
        assert len(net.memory(0)) == 7
        assert net.memory(0).get(("p13n", 5, 0)).size == 8

    def test_parts_must_divide(self):
        net = EnsembleNetwork(custom_machine(2))
        with pytest.raises(ValueError):
            personalized_data(net, 0, 5, parts=2)
        with pytest.raises(ValueError):
            personalized_data(net, 0, 2, parts=4)


class TestScatterSbtSubtree:
    @pytest.mark.parametrize("root", [0, 5])
    def test_delivers_everything(self, root):
        net = EnsembleNetwork(custom_machine(3))
        personalized_data(net, root, 4)
        tree = spanning_binomial_tree(3, root=root)
        scatter_tree(net, tree, schedule="subtree")
        everyone_got_their_block(net, root)

    def test_one_port_time_matches_formula(self):
        """T = (1 - 1/N) * PQ * t_c + n * tau with unbounded packets."""
        n = 4
        K = 16  # elements per destination
        net = EnsembleNetwork(custom_machine(n, tau=1.0, t_c=1.0))
        personalized_data(net, 0, K)
        tree = spanning_binomial_tree(n)
        phases = scatter_tree(net, tree, schedule="subtree")
        N = 1 << n
        PQ = N * K
        expected = (1 - 1 / N) * PQ * 1.0 + n * 1.0
        assert phases == n
        assert net.time == pytest.approx(expected)

    def test_empty_root_is_noop(self):
        net = EnsembleNetwork(custom_machine(3))
        tree = spanning_binomial_tree(3)
        assert scatter_tree(net, tree) == 0

    def test_unknown_schedule_rejected(self):
        net = EnsembleNetwork(custom_machine(2))
        personalized_data(net, 0, 2)
        with pytest.raises(ValueError):
            scatter_tree(net, spanning_binomial_tree(2), schedule="magic")


class TestScatterReverseBfs:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_delivers_everything(self, n):
        net = EnsembleNetwork(
            custom_machine(n, port_model=PortModel.N_PORT)
        )
        personalized_data(net, 0, 4)
        tree = spanning_binomial_tree(n)
        phases = scatter_tree(net, tree, schedule="reverse-bfs")
        everyone_got_their_block(net, 0)
        assert phases == n  # pipeline drains in max-depth phases

    def test_sbnt_faster_than_sbt_on_n_port(self):
        """§3.1: SBnT transfer time beats the SBT by ~n/2 on n ports,
        because the SBT's heaviest port carries half the data."""
        n = 4
        K = 64
        t_sbt = EnsembleNetwork(
            custom_machine(n, tau=0.0, t_c=1.0, port_model=PortModel.N_PORT)
        )
        personalized_data(t_sbt, 0, K)
        scatter_tree(t_sbt, spanning_binomial_tree(n), schedule="reverse-bfs")

        t_bal = EnsembleNetwork(
            custom_machine(n, tau=0.0, t_c=1.0, port_model=PortModel.N_PORT)
        )
        personalized_data(t_bal, 0, K)
        scatter_sbnt(t_bal, spanning_balanced_tree(n))
        assert t_bal.time < t_sbt.time / (n / 2 - 1)

    def test_sbnt_delivers(self):
        net = EnsembleNetwork(custom_machine(4, port_model=PortModel.N_PORT))
        personalized_data(net, 0, 2)
        scatter_sbnt(net, spanning_balanced_tree(4))
        everyone_got_their_block(net, 0)

    def test_sbnt_nonzero_root(self):
        root = 0b1010
        net = EnsembleNetwork(custom_machine(4, port_model=PortModel.N_PORT))
        personalized_data(net, root, 2)
        scatter_sbnt(net, spanning_balanced_tree(4, root=root))
        everyone_got_their_block(net, root)


class TestRotatedSbts:
    def test_delivers_all_parts(self):
        n = 3
        net = EnsembleNetwork(custom_machine(n, port_model=PortModel.N_PORT))
        personalized_data(net, 0, 6, parts=n)
        scatter_rotated_sbts(net, 0)
        everyone_got_their_block(net, 0, parts=n)

    def test_n_port_speedup_over_single_sbt(self):
        """Splitting over n rotated SBTs cuts transfer time ~n-fold."""
        n = 4
        K = 4 * n
        single = EnsembleNetwork(
            custom_machine(n, tau=0.0, t_c=1.0, port_model=PortModel.N_PORT)
        )
        personalized_data(single, 0, K)
        scatter_tree(
            single, spanning_binomial_tree(n), schedule="reverse-bfs"
        )
        rotated = EnsembleNetwork(
            custom_machine(n, tau=0.0, t_c=1.0, port_model=PortModel.N_PORT)
        )
        personalized_data(rotated, 0, K, parts=n)
        scatter_rotated_sbts(rotated, 0)
        assert rotated.time < single.time / (n / 2)

    def test_nonzero_root(self):
        n = 3
        net = EnsembleNetwork(custom_machine(n, port_model=PortModel.N_PORT))
        personalized_data(net, 6, 3, parts=n)
        scatter_rotated_sbts(net, 6)
        everyone_got_their_block(net, 6, parts=n)
