"""Tests for all-to-one personalized communication (gather)."""

import numpy as np
import pytest

from repro.comm.gather import gather_data, gather_tree
from repro.comm.one_to_all import personalized_data, scatter_tree
from repro.cube.trees import spanning_balanced_tree, spanning_binomial_tree
from repro.machine import EnsembleNetwork, custom_machine


class TestGather:
    @pytest.mark.parametrize("root_kind", ["zero", "last"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_everything_arrives_at_root(self, root_kind, n):
        root = 0 if root_kind == "zero" else (1 << n) - 1
        net = EnsembleNetwork(custom_machine(n))
        gather_data(net, root, 4)
        gather_tree(net, spanning_binomial_tree(n, root=root))
        mem = net.memory(root)
        for src in range(1 << n):
            if src == root:
                continue
            assert ("a2o", src) in mem
            assert np.all(mem.get(("a2o", src)).data == src)
        # Nothing left anywhere else.
        for x in range(1 << n):
            if x != root:
                assert len(net.memory(x)) == 0

    def test_works_on_balanced_tree(self):
        n = 4
        net = EnsembleNetwork(custom_machine(n))
        gather_data(net, 0, 2)
        gather_tree(net, spanning_balanced_tree(n))
        assert len(net.memory(0)) == (1 << n) - 1

    def test_gather_time_mirrors_scatter(self):
        """All-to-one and one-to-all are the same primitive reversed, so
        their one-port times coincide."""
        n, K = 4, 8
        tree = spanning_binomial_tree(n)
        sc = EnsembleNetwork(custom_machine(n, tau=1.0, t_c=1.0))
        personalized_data(sc, 0, K)
        scatter_tree(sc, tree, schedule="subtree")
        ga = EnsembleNetwork(custom_machine(n, tau=1.0, t_c=1.0))
        gather_data(ga, 0, K)
        gather_tree(ga, tree)
        assert ga.time == pytest.approx(sc.time)

    def test_phase_count(self):
        n = 4
        net = EnsembleNetwork(custom_machine(n))
        gather_data(net, 0, 1)
        phases = gather_tree(net, spanning_binomial_tree(n))
        assert phases == n

    def test_invalid_element_count(self):
        net = EnsembleNetwork(custom_machine(2))
        with pytest.raises(ValueError):
            gather_data(net, 0, 0)
