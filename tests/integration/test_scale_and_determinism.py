"""Larger-cube stress runs and bit-for-bit determinism.

The simulator must be exactly reproducible (no RNG, no dict-order
dependence in costs), and the algorithms must hold up beyond the toy
cube sizes used in unit tests.
"""

import numpy as np

from repro.comm.all_to_all import (
    all_to_all_personalized_data,
    all_to_all_sbnt,
)
from repro.layout import DistributedMatrix
from repro.layout import partition as pt
from repro.machine import EnsembleNetwork, custom_machine
from repro.machine.params import PortModel
from repro.transpose.one_dim import one_dim_transpose_sbnt
from repro.transpose.two_dim import two_dim_transpose_mpt


class TestEightCube:
    N_DIM = 8  # 256 processors

    def test_mpt_on_256_nodes(self):
        half = self.N_DIM // 2
        layout = pt.two_dim_cyclic(half + 1, half + 1, half, half)
        rng = np.random.default_rng(0)
        A = rng.integers(0, 1000, size=(1 << (half + 1), 1 << (half + 1)))
        A = A.astype(np.float64)
        net = EnsembleNetwork(
            custom_machine(self.N_DIM, port_model=PortModel.N_PORT)
        )
        out = two_dim_transpose_mpt(
            net, DistributedMatrix.from_global(A, layout), layout
        )
        assert np.array_equal(out.to_global(), A.T)
        # Completion within 2H+1 = 9 phases (rounds = 1); with only 4
        # elements per node the second injection slot is empty, so the
        # last cycle may be skipped entirely.
        assert self.N_DIM <= net.stats.phases <= self.N_DIM + 1

    def test_sbnt_transpose_on_256_nodes(self):
        layout = pt.row_consecutive(8, 8, self.N_DIM)
        rng = np.random.default_rng(1)
        A = rng.standard_normal((256, 256))
        net = EnsembleNetwork(
            custom_machine(self.N_DIM, port_model=PortModel.N_PORT)
        )
        out = one_dim_transpose_sbnt(
            net, DistributedMatrix.from_global(A, layout), layout
        )
        assert np.array_equal(out.to_global(), A.T)

    def test_sbnt_all_to_all_on_128_nodes(self):
        n = 7
        net = EnsembleNetwork(custom_machine(n, port_model=PortModel.N_PORT))
        all_to_all_personalized_data(net, 1)
        phases = all_to_all_sbnt(net)
        assert phases <= n
        N = 1 << n
        for dst in range(N):
            assert len(net.memory(dst)) == N - 1


class TestDeterminism:
    def test_identical_runs_produce_identical_stats(self):
        def run():
            layout = pt.two_dim_cyclic(4, 4, 2, 2)
            A = np.arange(256, dtype=np.float64).reshape(16, 16)
            net = EnsembleNetwork(
                custom_machine(4, tau=3.0, t_c=1.0, port_model=PortModel.N_PORT)
            )
            out = two_dim_transpose_mpt(
                net, DistributedMatrix.from_global(A, layout), layout, rounds=2
            )
            return out.local_data.copy(), net.stats

        data1, stats1 = run()
        data2, stats2 = run()
        assert np.array_equal(data1, data2)
        assert stats1.time == stats2.time
        assert stats1.phase_times == stats2.phase_times
        assert stats1.link_elements == stats2.link_elements

    def test_planner_is_deterministic(self):
        from repro.transpose import transpose

        layout = pt.row_consecutive(5, 5, 3)
        A = np.arange(1024, dtype=np.float64).reshape(32, 32)
        times = set()
        for _ in range(3):
            net = EnsembleNetwork(custom_machine(3))
            r = transpose(net, DistributedMatrix.from_global(A, layout))
            times.add(r.stats.time)
        assert len(times) == 1


class TestVectorExtremes:
    """The paper's extreme cases: vectors and single-column layouts."""

    def test_vector_layout_round_trip(self):
        from repro.layout import Layout, ProcField

        # A 2^6 vector as a 64 x 1 matrix over 8 nodes.
        lay = Layout(6, 0, (ProcField((5, 4, 3)),), name="vector")
        v = np.arange(64, dtype=np.float64).reshape(64, 1)
        dm = DistributedMatrix.from_global(v, lay)
        assert np.array_equal(dm.to_global(), v)
        assert dm.local(0).tolist() == list(range(8))

    def test_vector_transpose_is_some_to_all_classified(self):
        """Transposing a column vector into a row vector: before uses all
        nodes (row bits), after would need column bits that do not exist
        — the paper's one-to-all / all-to-one extreme, visible in the
        classification."""
        from repro.layout import Layout, ProcField
        from repro.layout.classify import CommClass, classify_transpose

        before = Layout(6, 0, (ProcField((5, 4, 3)),))
        after = Layout(0, 6, (ProcField((5, 4, 3)),))  # row vector, same bits
        info = classify_transpose(before, after)
        # Both sides use row bits of the original -> same dims: pairwise
        # (a pure relabeling); with after keyed on *different* bits it
        # degrades toward all-to-some.
        assert info.comm_class in (CommClass.PAIRWISE, CommClass.MIXED)

    def test_single_row_matrix_transpose(self):
        lay_before = pt.column_cyclic(0, 6, 3)
        lay_after = pt.row_cyclic(6, 0, 3)
        A = np.arange(64, dtype=np.float64).reshape(1, 64)
        from repro.transpose.one_dim import block_transpose

        net = EnsembleNetwork(custom_machine(3))
        out = block_transpose(
            net, DistributedMatrix.from_global(A, lay_before), lay_after
        )
        assert np.array_equal(out.to_global(), A.T)
        # Same bits key both sides: a pure relabeling, no messages.
        assert net.stats.messages == 0
