"""Tests for the store-and-forward e-cube routing baseline."""

import numpy as np
import pytest

from repro.machine import Block, EnsembleNetwork, custom_machine
from repro.machine.params import PortModel
from repro.machine.routing import RoutedTransfer, route_messages


def fresh(n=3, **kw):
    return EnsembleNetwork(custom_machine(n, **kw))


class TestRouting:
    def test_single_transfer_delivers(self):
        net = fresh()
        net.place(0, Block("x", data=np.arange(3)))
        rounds = route_messages(net, [RoutedTransfer(0, 7, ("x",))])
        assert rounds == 3  # Hamming(0, 7) hops
        assert net.find_block("x") == 7
        assert net.memory(7).get("x").data.tolist() == [0, 1, 2]

    def test_transfer_requires_distinct_endpoints(self):
        net = fresh()
        with pytest.raises(ValueError):
            route_messages(net, [RoutedTransfer(2, 2, ("x",))])

    def test_empty_keys_rejected(self):
        with pytest.raises(ValueError):
            RoutedTransfer(0, 1, ())

    def test_disjoint_transfers_share_rounds(self):
        net = fresh(tau=1.0, t_c=0.0)
        net.place(0, Block("a", virtual_size=1))
        net.place(7, Block("b", virtual_size=1))
        rounds = route_messages(
            net, [RoutedTransfer(0, 3, ("a",)), RoutedTransfer(7, 4, ("b",))]
        )
        assert rounds == 2
        assert net.time == pytest.approx(2.0)

    def test_conflicting_transfers_serialize(self):
        """Two messages that both need link 0->1 first queue behind each other."""
        net = fresh(tau=1.0, t_c=0.0)
        net.place(0, Block("a", virtual_size=1))
        net.place(0, Block("b", virtual_size=1))
        rounds = route_messages(
            net, [RoutedTransfer(0, 1, ("a",)), RoutedTransfer(0, 3, ("b",))]
        )
        # one-port: node 0 sends one message per round; 'b' then needs 2 hops.
        assert rounds == 3
        assert net.find_block("a") == 1
        assert net.find_block("b") == 3

    def test_n_port_allows_parallel_fanout(self):
        net = fresh(tau=1.0, t_c=0.0, port_model=PortModel.N_PORT)
        net.place(0, Block("a", virtual_size=1))
        net.place(0, Block("b", virtual_size=1))
        rounds = route_messages(
            net, [RoutedTransfer(0, 1, ("a",)), RoutedTransfer(0, 2, ("b",))]
        )
        assert rounds == 1

    def test_descending_route_order(self):
        net = fresh()
        net.place(0, Block("x", virtual_size=1))
        route_messages(net, [RoutedTransfer(0, 5, ("x",))], ascending=False)
        # Link loads reveal the path taken: 0 -> 4 -> 5.
        assert (0, 4) in net.stats.link_elements
        assert (4, 5) in net.stats.link_elements

    def test_full_transpose_permutation_delivers(self):
        """Route every node's block to its transpose partner (Fig. 14b style)."""
        n = 4
        net = fresh(n=n, tau=1.0, t_c=1.0)
        half = n // 2
        mask = (1 << half) - 1
        transfers = []
        for x in range(1 << n):
            net.place(x, Block(("blk", x), virtual_size=4))
            tr = ((x & mask) << half) | (x >> half)
            if tr != x:
                transfers.append(RoutedTransfer(x, tr, (("blk", x),)))
        route_messages(net, transfers)
        for x in range(1 << n):
            tr = ((x & mask) << half) | (x >> half)
            assert net.find_block(("blk", x)) == tr
