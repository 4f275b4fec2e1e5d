"""Fine-grained accounting tests for the §8.1 send policies.

The exchange executor's per-step structure is fully predictable: a
(processor, virtual) step on offset bit ``b`` moves ``L/2`` elements per
node as ``L / 2^{b+1}`` contiguous runs of ``2^b`` elements.  These
tests pin the start-up and copy accounting to those closed forms, which
is what makes Figures 10-12 quantitative rather than impressionistic.
"""

import numpy as np
import pytest

from repro.layout import DistributedMatrix
from repro.layout import partition as pt
from repro.machine import EnsembleNetwork, custom_machine
from repro.transpose.exchange import BufferPolicy, ExchangeExecutor


def setup(n=2, p=4, q=4, **machine_kw):
    machine_kw.setdefault("tau", 1.0)
    machine_kw.setdefault("t_c", 0.0)
    layout = pt.row_consecutive(p, q, n)
    dm = DistributedMatrix.iota(layout)
    dm = DistributedMatrix(layout, dm.local_data.astype(np.float64))
    net = EnsembleNetwork(custom_machine(n, **machine_kw))
    return layout, dm, net


class TestRunStructure:
    # L = 64 locally; a step on offset bit b gives L / 2^{b+1} runs.
    @pytest.mark.parametrize("vp_dim,expected_runs", [(0, 32), (3, 4), (5, 1)])
    def test_unbuffered_startups_count_runs(self, vp_dim, expected_runs):
        """Step on offset bit b: L / 2^(b+1) runs per node, each one
        message with one start-up (runs here are <= B_m)."""
        layout, dm, net = setup()
        ex = ExchangeExecutor(net, dm, policy=BufferPolicy("unbuffered"))
        proc_dim = layout.proc_dims[0]
        ex.step(proc_dim, vp_dim)
        N = layout.num_procs
        assert net.stats.startups == N * expected_runs
        assert net.stats.messages == N * expected_runs

    def test_each_step_moves_half_the_data(self):
        layout, dm, net = setup()
        ex = ExchangeExecutor(net, dm)
        ex.step(layout.proc_dims[0], 3)
        assert net.stats.element_hops == layout.num_procs * layout.local_size // 2

    def test_buffered_single_message_per_node(self):
        layout, dm, net = setup(t_copy=1.0)
        ex = ExchangeExecutor(net, dm, policy=BufferPolicy("buffered"))
        ex.step(layout.proc_dims[0], 0)  # offset bit 0: worst fragmentation
        N = layout.num_procs
        assert net.stats.messages == N
        # Copy charged on both sides: gather at the sender, scatter at
        # the receiver — L/2 each.
        assert net.stats.copied_elements == N * layout.local_size

    def test_threshold_splits_by_run_length(self):
        layout, dm, net = setup(t_copy=0.25)
        # Runs of 2^3 = 8 for vp offset bit 3; threshold 16 buffers them,
        # threshold 8 sends them direct.
        direct_net = EnsembleNetwork(custom_machine(2, tau=1.0, t_c=0.0))
        ex = ExchangeExecutor(
            direct_net,
            dm,
            policy=BufferPolicy("threshold", min_unbuffered_run=8),
        )
        ex.step(layout.proc_dims[0], 3)  # offset bit 3: runs of 8
        buffered_net = EnsembleNetwork(custom_machine(2, tau=1.0, t_c=0.0, t_copy=0.25))
        ex2 = ExchangeExecutor(
            buffered_net,
            dm,
            policy=BufferPolicy("threshold", min_unbuffered_run=16),
        )
        ex2.step(layout.proc_dims[0], 3)
        assert direct_net.stats.copied_elements == 0
        assert buffered_net.stats.copied_elements > 0
        assert buffered_net.stats.messages < direct_net.stats.messages


class TestOffsetBitMapping:
    def test_offset_bits_of_layout(self):
        """Sanity-pin the vp-dim -> offset-bit mapping the tests above
        rely on: row-consecutive(4,4,2) has proc dims (7,6) and vp dims
        (5..0) mapping to identical offset bits."""
        layout = pt.row_consecutive(4, 4, 2)
        assert layout.proc_dims == (7, 6)
        assert layout.vp_dims == (5, 4, 3, 2, 1, 0)
        for d in layout.vp_dims:
            assert layout.offset_bit_of(d) == d


class TestPolicyCostOrdering:
    def test_threshold_never_worse_than_both_extremes(self):
        """On the iPSC constants the optimum threshold policy is at least
        as good as pure-unbuffered and pure-buffered for a whole
        transpose, across matrix sizes."""
        from repro.machine.presets import intel_ipsc
        from repro.transpose.one_dim import one_dim_transpose_exchange

        for bits in (10, 14):
            p = bits // 2
            before = pt.row_consecutive(p, bits - p, 4)
            after = pt.row_consecutive(bits - p, p, 4)
            dm = DistributedMatrix.from_global(
                np.zeros((1 << p, 1 << (bits - p))), before
            )
            times = {}
            for mode in ("unbuffered", "buffered", "threshold"):
                net = EnsembleNetwork(intel_ipsc(4))
                one_dim_transpose_exchange(
                    net, dm, after, policy=BufferPolicy(mode=mode)
                )
                times[mode] = net.time
            assert times["threshold"] <= times["unbuffered"] * 1.0001
            assert times["threshold"] <= times["buffered"] * 1.0001


class TestBlockedStrategy:
    """The §5 'blocked' pair strategy: step j sends 2^{j-1} fragments."""

    def test_fragment_doubling(self):
        from repro.machine import TraceRecorder
        from repro.transpose.exchange import BufferPolicy
        from repro.transpose.one_dim import one_dim_transpose_exchange

        n = 3
        before = pt.row_consecutive(4, 4, n)
        after = pt.row_consecutive(4, 4, n)
        dm = DistributedMatrix.iota(before)
        dm = DistributedMatrix(before, dm.local_data.astype(np.float64))
        net = EnsembleNetwork(custom_machine(n, tau=1.0, t_c=0.0))
        rec = TraceRecorder()
        net.observer = rec
        one_dim_transpose_exchange(
            net, dm, after, policy=BufferPolicy("unbuffered")
        )
        msgs_per_phase = [len(e.transfers) for e in rec.comm_events]
        N = 1 << n
        # Step j: every node sends 2^{j-1} fragments.
        assert msgs_per_phase == [N * (1 << j) for j in range(n)]

    def test_blocked_and_direct_agree(self):
        from repro.transpose.exchange import exchange_transpose

        before = pt.row_consecutive(4, 4, 3)
        after = pt.row_consecutive(4, 4, 3)
        rng = np.random.default_rng(2)
        A = rng.standard_normal((16, 16))
        dm = DistributedMatrix.from_global(A, before)
        a = exchange_transpose(
            EnsembleNetwork(custom_machine(3)), dm, after, strategy="direct"
        )
        b = exchange_transpose(
            EnsembleNetwork(custom_machine(3)), dm, after, strategy="blocked"
        )
        assert np.array_equal(a.local_data, b.local_data)
        assert np.array_equal(a.to_global(), A.T)

    def test_blocked_rejected_for_pairwise(self):
        from repro.transpose.exchange import (
            plan_blocked_exchange_sequence,
            transpose_bit_permutation,
        )

        before = pt.two_dim_cyclic(3, 3, 1, 1)
        after = pt.two_dim_cyclic(3, 3, 1, 1)
        perm = transpose_bit_permutation(before, after)
        with pytest.raises(ValueError):
            plan_blocked_exchange_sequence(perm, before)

    def test_identity_needs_nothing(self):
        from repro.transpose.exchange import plan_blocked_exchange_sequence

        lay = pt.row_consecutive(3, 3, 2)
        assert plan_blocked_exchange_sequence(
            {d: d for d in range(6)}, lay
        ) == []

    def test_unknown_strategy_rejected(self):
        from repro.transpose.exchange import exchange_transpose

        before = pt.row_consecutive(3, 3, 2)
        dm = DistributedMatrix.iota(before)
        net = EnsembleNetwork(custom_machine(2))
        with pytest.raises(ValueError):
            exchange_transpose(
                net, dm, pt.row_consecutive(3, 3, 2), strategy="zigzag"
            )
