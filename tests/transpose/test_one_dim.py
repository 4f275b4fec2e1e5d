"""Tests for one-dimensional transposition (§5)."""

import numpy as np
import pytest

from repro.layout import DistributedMatrix
from repro.layout import partition as pt
from repro.machine import EnsembleNetwork, custom_machine
from repro.machine.params import PortModel
from repro.transpose.one_dim import (
    block_transpose,
    one_dim_transpose_exchange,
    one_dim_transpose_sbnt,
)


def matrix(p, q, seed=1):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << 20, size=(1 << p, 1 << q)).astype(np.float64)


class TestExchangeWrapper:
    def test_transpose_row_consecutive(self):
        before = pt.row_consecutive(4, 3, 3)
        after = pt.row_consecutive(3, 4, 3)
        A = matrix(4, 3)
        net = EnsembleNetwork(custom_machine(3))
        out = one_dim_transpose_exchange(
            net, DistributedMatrix.from_global(A, before), after
        )
        assert np.array_equal(out.to_global(), A.T)
        assert net.stats.phases > 0

    def test_rejects_two_dim_layout(self):
        before = pt.two_dim_cyclic(3, 3, 1, 1)
        after = pt.row_consecutive(3, 3, 2)
        dm = DistributedMatrix.iota(before)
        net = EnsembleNetwork(custom_machine(2))
        with pytest.raises(ValueError):
            one_dim_transpose_exchange(net, dm, after)


class TestSbnt:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_transpose_correct(self, n):
        before = pt.row_consecutive(4, 4, n)
        after = pt.row_consecutive(4, 4, n)
        A = matrix(4, 4)
        net = EnsembleNetwork(custom_machine(n, port_model=PortModel.N_PORT))
        out = one_dim_transpose_sbnt(
            net, DistributedMatrix.from_global(A, before), after
        )
        assert np.array_equal(out.to_global(), A.T)

    def test_n_port_beats_one_port_exchange(self):
        n = 4
        before = pt.row_consecutive(5, 5, n)
        after = pt.row_consecutive(5, 5, n)
        A = matrix(5, 5)

        net1 = EnsembleNetwork(custom_machine(n, tau=0.0, t_c=1.0))
        one_dim_transpose_exchange(
            net1, DistributedMatrix.from_global(A, before), after
        )
        netn = EnsembleNetwork(
            custom_machine(n, tau=0.0, t_c=1.0, port_model=PortModel.N_PORT)
        )
        one_dim_transpose_sbnt(
            netn, DistributedMatrix.from_global(A, before), after
        )
        assert netn.time < net1.time


class TestBlockTranspose:
    CASES = [
        ("exchange", pt.row_consecutive, pt.row_cyclic),
        ("exchange", pt.column_cyclic, pt.column_consecutive),
        ("sbnt", pt.row_cyclic, pt.row_cyclic),
        ("sbnt", pt.column_consecutive, pt.row_consecutive),
    ]

    @pytest.mark.parametrize("router,mk_b,mk_a", CASES)
    def test_layout_pairs(self, router, mk_b, mk_a):
        p = q = 4
        n = 2
        before = mk_b(p, q, n)
        after = mk_a(q, p, n)
        A = matrix(p, q)
        net = EnsembleNetwork(custom_machine(n))
        out = block_transpose(
            net, DistributedMatrix.from_global(A, before), after, router=router
        )
        assert np.array_equal(out.to_global(), A.T)

    def test_gray_layouts_supported(self):
        """block_transpose derives destinations from the layout algebra,
        so Gray and even mixed encodings need no special casing."""
        before = pt.row_consecutive(3, 3, 2, gray=True)
        after = pt.row_consecutive(3, 3, 2, gray=True)
        A = matrix(3, 3)
        net = EnsembleNetwork(custom_machine(2))
        out = block_transpose(
            net, DistributedMatrix.from_global(A, before), after
        )
        assert np.array_equal(out.to_global(), A.T)

    def test_mixed_encoding_supported(self):
        before = pt.two_dim_mixed(
            3, 3, 1, 1, rows="cyclic", cols="cyclic", col_gray=True
        )
        after = pt.two_dim_mixed(
            3, 3, 1, 1, rows="cyclic", cols="cyclic", col_gray=True
        )
        A = matrix(3, 3)
        net = EnsembleNetwork(custom_machine(2))
        out = block_transpose(
            net, DistributedMatrix.from_global(A, before), after
        )
        assert np.array_equal(out.to_global(), A.T)

    def test_two_dim_pairwise_also_works(self):
        before = pt.two_dim_cyclic(3, 3, 1, 1)
        after = pt.two_dim_cyclic(3, 3, 1, 1)
        A = matrix(3, 3)
        net = EnsembleNetwork(custom_machine(2))
        out = block_transpose(
            net, DistributedMatrix.from_global(A, before), after
        )
        assert np.array_equal(out.to_global(), A.T)

    def test_unknown_router_rejected(self):
        before = pt.row_cyclic(2, 2, 1)
        dm = DistributedMatrix.iota(before)
        net = EnsembleNetwork(custom_machine(1))
        with pytest.raises(ValueError):
            block_transpose(net, dm, pt.row_cyclic(2, 2, 1), router="carrier-pigeon")

    def test_mismatched_proc_counts_rejected(self):
        before = pt.row_cyclic(3, 3, 2)
        after = pt.row_cyclic(3, 3, 1)
        dm = DistributedMatrix.iota(before)
        net = EnsembleNetwork(custom_machine(2))
        with pytest.raises(ValueError):
            block_transpose(net, dm, after)

    def test_charge_local_prices_scatter(self):
        before = pt.row_consecutive(3, 3, 2)
        after = pt.row_consecutive(3, 3, 2)
        A = matrix(3, 3)
        net = EnsembleNetwork(custom_machine(2, t_copy=1.0))
        block_transpose(
            net,
            DistributedMatrix.from_global(A, before),
            after,
            charge_local=True,
        )
        assert net.stats.copy_time > 0

    def test_serial_case(self):
        before = pt.row_cyclic(2, 2, 0)
        after = pt.row_cyclic(2, 2, 0)
        A = matrix(2, 2)
        net = EnsembleNetwork(custom_machine(0))
        out = block_transpose(
            net, DistributedMatrix.from_global(A, before), after
        )
        assert np.array_equal(out.to_global(), A.T)
        assert net.stats.messages == 0
