"""Tests for some-to-all / all-to-some personalized communication (§3.3)."""

import numpy as np
import pytest

from repro.comm.all_to_some import all_to_some_gather, some_to_all_scatter
from repro.machine import Block, EnsembleNetwork, custom_machine


def load_sources(net, split_dims, elements=2):
    """Sources = subcube with split dims zero; each holds data for every node."""
    n = net.params.n
    N = 1 << n
    split_mask = sum(1 << d for d in split_dims)
    sources = [x for x in range(N) if not x & split_mask]
    for src in sources:
        for dst in range(N):
            if dst == src:
                continue
            net.place(
                src,
                Block(("s2a", src, dst), data=np.full(elements, dst)),
            )
    return sources


def check_delivery(net):
    n = net.params.n
    for dst in range(1 << n):
        for key in net.memory(dst).keys():
            assert key[2] == dst


class TestSomeToAll:
    @pytest.mark.parametrize("split_first", [True, False])
    def test_delivers(self, split_first):
        n = 4
        net = EnsembleNetwork(custom_machine(n))
        split_dims = [3, 2]
        a2a_dims = [1, 0]
        load_sources(net, split_dims)
        phases = some_to_all_scatter(
            net, split_dims, a2a_dims, split_first=split_first
        )
        assert phases == n
        check_delivery(net)
        # every node received something from each source in its column
        for dst in range(1 << n):
            assert len(net.memory(dst)) >= 1

    def test_theorem1_split_first_moves_fewer_elements(self):
        """Theorem 1: splitting first lowers the transfer volume, because
        the all-to-all then runs on already-fanned-out (smaller) sets."""
        n = 4
        split_dims, a2a_dims = [3, 2], [1, 0]

        net_good = EnsembleNetwork(custom_machine(n))
        load_sources(net_good, split_dims)
        some_to_all_scatter(net_good, split_dims, a2a_dims, split_first=True)

        net_bad = EnsembleNetwork(custom_machine(n))
        load_sources(net_bad, split_dims)
        some_to_all_scatter(net_bad, split_dims, a2a_dims, split_first=False)

        check_delivery(net_good)
        check_delivery(net_bad)
        assert net_good.time <= net_bad.time
        assert net_good.stats.element_hops <= net_bad.stats.element_hops

    def test_overlapping_dims_rejected(self):
        net = EnsembleNetwork(custom_machine(3))
        with pytest.raises(ValueError):
            some_to_all_scatter(net, [2, 1], [1, 0])

    def test_out_of_range_dim_rejected(self):
        net = EnsembleNetwork(custom_machine(3))
        with pytest.raises(ValueError):
            some_to_all_scatter(net, [5], [0])


class TestAllToSome:
    @pytest.mark.parametrize("accumulate_last", [True, False])
    def test_concentrates(self, accumulate_last):
        n = 4
        net = EnsembleNetwork(custom_machine(n))
        gather_dims = [3]
        targets_mask = 1 << 3
        N = 1 << n
        # Every node sends private data to every target (nodes with bit 3 = 0).
        for src in range(N):
            for dst in range(N):
                if dst & targets_mask or dst == src:
                    continue
                net.place(src, Block(("a2s", src, dst), data=np.full(2, dst)))
        all_to_some_gather(
            net, gather_dims, [2, 1, 0], accumulate_last=accumulate_last
        )
        check_delivery(net)
        # non-targets hold nothing
        for x in range(N):
            if x & targets_mask:
                assert len(net.memory(x)) == 0

    def test_accumulate_last_is_cheaper(self):
        n = 4
        gather_dims, a2a_dims = [3, 2], [1, 0]
        N = 1 << n
        mask = (1 << 3) | (1 << 2)

        def build():
            net = EnsembleNetwork(custom_machine(n))
            for src in range(N):
                for dst in range(N):
                    if dst & mask or dst == src:
                        continue
                    net.place(
                        src, Block(("a2s", src, dst), data=np.full(2, dst))
                    )
            return net

        good = build()
        all_to_some_gather(good, gather_dims, a2a_dims, accumulate_last=True)
        bad = build()
        all_to_some_gather(bad, gather_dims, a2a_dims, accumulate_last=False)
        assert good.stats.element_hops <= bad.stats.element_hops
        assert good.time <= bad.time
