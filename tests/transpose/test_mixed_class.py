"""Tests for MIXED-class (I != 0) layout pairs.

The paper defers the partially-overlapping case to its companion report
[4], noting only that "the transposition/rearrangement is composed of
different types of operations".  Two of our drivers handle it anyway —
the exchange planner (any binary pair is still a bit permutation) and
the block router — and they must agree.
"""

import numpy as np

from repro.layout import DistributedMatrix
from repro.layout import partition as pt
from repro.layout.classify import CommClass, classify_transpose
from repro.machine import EnsembleNetwork, custom_machine
from repro.transpose.exchange import exchange_transpose
from repro.transpose.one_dim import block_transpose


def mixed_pair():
    """§6's consecutive-rows / cyclic-columns example, before == after."""
    before = pt.two_dim_mixed(3, 3, 2, 2, rows="consecutive", cols="cyclic")
    after = pt.two_dim_mixed(3, 3, 2, 2, rows="consecutive", cols="cyclic")
    return before, after


class TestMixedClassTranspose:
    def test_classified_mixed(self):
        before, after = mixed_pair()
        info = classify_transpose(before, after)
        assert info.comm_class is CommClass.MIXED
        assert info.intersection  # non-empty overlap

    def test_exchange_handles_mixed(self):
        before, after = mixed_pair()
        rng = np.random.default_rng(4)
        A = rng.standard_normal((8, 8))
        net = EnsembleNetwork(custom_machine(4))
        out = exchange_transpose(
            net, DistributedMatrix.from_global(A, before), after
        )
        assert np.array_equal(out.to_global(), A.T)

    def test_block_router_agrees_with_exchange(self):
        before, after = mixed_pair()
        rng = np.random.default_rng(4)
        A = rng.standard_normal((8, 8))
        dm = DistributedMatrix.from_global(A, before)

        ex_net = EnsembleNetwork(custom_machine(4))
        via_exchange = exchange_transpose(ex_net, dm, after)
        bl_net = EnsembleNetwork(custom_machine(4))
        via_blocks = block_transpose(bl_net, dm, after)
        assert np.array_equal(via_exchange.local_data, via_blocks.local_data)

    def test_overlap_reduces_traffic(self):
        """Dimensions in I stay put, so a MIXED transpose moves fewer
        element-hops than the corresponding pure all-to-all."""
        before, after = mixed_pair()
        rng = np.random.default_rng(4)
        A = rng.standard_normal((8, 8))

        mixed_net = EnsembleNetwork(custom_machine(4))
        exchange_transpose(
            mixed_net, DistributedMatrix.from_global(A, before), after
        )

        # A disjoint-field pair of the same size for comparison.
        b2 = pt.two_dim_consecutive(3, 3, 2, 2)
        a2 = pt.two_dim_cyclic(3, 3, 2, 2)
        all_net = EnsembleNetwork(custom_machine(4))
        exchange_transpose(
            all_net, DistributedMatrix.from_global(A, b2), a2
        )
        assert classify_transpose(b2, a2).comm_class is not CommClass.PAIRWISE
        assert mixed_net.stats.element_hops <= all_net.stats.element_hops

    def test_mixed_with_unequal_axes(self):
        """n_r != n_c with mixed schemes — still a valid bit permutation."""
        before = pt.two_dim_mixed(4, 3, 2, 1, rows="consecutive", cols="cyclic")
        after = pt.two_dim_mixed(3, 4, 1, 2, rows="consecutive", cols="cyclic")
        rng = np.random.default_rng(9)
        A = rng.standard_normal((16, 8))
        net = EnsembleNetwork(custom_machine(3))
        out = exchange_transpose(
            net, DistributedMatrix.from_global(A, before), after
        )
        assert np.array_equal(out.to_global(), A.T)
