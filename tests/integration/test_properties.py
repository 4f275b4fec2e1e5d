"""Cross-cutting properties: invariants that hold across all algorithms.

These tests treat the library as a black box and check the physics-like
invariants of the model: data conservation, double-transpose identity,
algorithm agreement, cost-model homogeneity, and accounting consistency.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.layout import DistributedMatrix
from repro.layout import partition as pt
from repro.machine import Block, EnsembleNetwork, Message, custom_machine
from repro.machine.params import PortModel
from repro.transpose import (
    exchange_transpose,
    mixed_code_transpose_combined,
    two_dim_transpose_dpt,
    two_dim_transpose_mpt,
    two_dim_transpose_router,
    two_dim_transpose_spt,
)
from repro.transpose.one_dim import block_transpose


PAIRWISE_ALGOS = {
    "exchange": lambda net, dm, after: exchange_transpose(net, dm, after),
    "spt": lambda net, dm, after: two_dim_transpose_spt(net, dm, after),
    "spt-pipe": lambda net, dm, after: two_dim_transpose_spt(
        net, dm, after, packet_size=8
    ),
    "dpt": lambda net, dm, after: two_dim_transpose_dpt(
        net, dm, after, packet_size=8
    ),
    "mpt": lambda net, dm, after: two_dim_transpose_mpt(net, dm, after, rounds=2),
    "router": lambda net, dm, after: two_dim_transpose_router(net, dm, after),
    "block": lambda net, dm, after: block_transpose(net, dm, after),
    "mixed": lambda net, dm, after: mixed_code_transpose_combined(net, dm, after),
}


def fresh(n=4):
    return EnsembleNetwork(custom_machine(n, port_model=PortModel.N_PORT))


def square_dm(p=4, half=2, seed=0):
    layout = pt.two_dim_cyclic(p, p, half, half)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((1 << p, 1 << p))
    return A, DistributedMatrix.from_global(A, layout), layout


class TestAlgorithmAgreement:
    def test_all_pairwise_algorithms_agree(self):
        """Every algorithm yields the identical distributed result."""
        A, dm, layout = square_dm()
        results = {}
        for name, fn in PAIRWISE_ALGOS.items():
            out = fn(fresh(), dm, layout)
            results[name] = out.local_data
        baseline = results.pop("exchange")
        for name, data in results.items():
            assert np.array_equal(data, baseline), name

    def test_double_transpose_is_identity(self):
        A, dm, layout = square_dm()
        for name, fn in PAIRWISE_ALGOS.items():
            once = fn(fresh(), dm, layout)
            twice = fn(fresh(), once, layout)
            assert np.array_equal(twice.local_data, dm.local_data), name

    def test_input_never_mutated(self):
        A, dm, layout = square_dm()
        snapshot = dm.local_data.copy()
        for name, fn in PAIRWISE_ALGOS.items():
            fn(fresh(), dm, layout)
            assert np.array_equal(dm.local_data, snapshot), name


class TestConservation:
    def test_network_memories_drained(self):
        """No algorithm leaves blocks stranded in node memories."""
        A, dm, layout = square_dm()
        for name, fn in PAIRWISE_ALGOS.items():
            net = fresh()
            fn(net, dm, layout)
            for x in range(net.params.num_procs):
                assert len(net.memory(x)) == 0, (name, x)

    def test_element_hops_equal_link_loads(self):
        A, dm, layout = square_dm()
        net = fresh()
        two_dim_transpose_mpt(net, dm, layout, rounds=2)
        assert net.stats.element_hops == sum(net.stats.link_elements.values())

    def test_phase_times_sum_to_comm_time(self):
        A, dm, layout = square_dm()
        net = fresh()
        two_dim_transpose_spt(net, dm, layout, packet_size=4)
        assert net.stats.comm_time == pytest.approx(sum(net.stats.phase_times))

    def test_total_data_constant(self):
        """Sum of all data is preserved by every algorithm (no element is
        duplicated or dropped)."""
        A, dm, layout = square_dm()
        total = dm.local_data.sum()
        for name, fn in PAIRWISE_ALGOS.items():
            out = fn(fresh(), dm, layout)
            assert out.local_data.sum() == pytest.approx(total), name


class TestCostModelHomogeneity:
    @pytest.mark.parametrize("name", ["spt", "mpt", "exchange"])
    def test_time_scales_linearly_with_costs(self, name):
        """time(a*tau, a*t_c) == a * time(tau, t_c): the model is a
        homogeneous function of the machine constants."""
        A, dm, layout = square_dm()
        fn = PAIRWISE_ALGOS[name]
        times = []
        for scale in (1.0, 3.0):
            net = EnsembleNetwork(
                custom_machine(
                    4,
                    tau=scale * 2.0,
                    t_c=scale * 1.0,
                    port_model=PortModel.N_PORT,
                )
            )
            fn(net, dm, layout)
            times.append(net.time)
        assert times[1] == pytest.approx(3.0 * times[0])

    def test_pure_startup_time_counts_phases(self):
        """With t_c = 0, each phase of the step-by-step SPT costs exactly
        the per-message start-ups."""
        A, dm, layout = square_dm()
        net = EnsembleNetwork(custom_machine(4, tau=1.0, t_c=0.0))
        two_dim_transpose_spt(net, dm, layout)
        L = layout.local_size
        B = net.params.packet_capacity
        packets = -(-L // B)
        assert net.time == pytest.approx(4 * packets)

    def test_n_port_never_slower_than_one_port(self):
        A, dm, layout = square_dm()
        for name in ("spt", "dpt", "mpt", "block"):
            fn = PAIRWISE_ALGOS[name]
            one = EnsembleNetwork(custom_machine(4, port_model=PortModel.ONE_PORT))
            fn(one, dm, layout)
            multi = EnsembleNetwork(custom_machine(4, port_model=PortModel.N_PORT))
            fn(multi, dm, layout)
            assert multi.time <= one.time * 1.0001, name


class TestEngineFailureModes:
    def test_midstream_missing_block_raises_cleanly(self):
        net = EnsembleNetwork(custom_machine(2))
        net.place(0, Block("a", virtual_size=4))
        net.execute_phase([Message(0, 1, ("a",))])
        with pytest.raises(KeyError):
            net.execute_phase([Message(0, 1, ("a",))])  # already moved

    def test_duplicate_placement_raises(self):
        net = EnsembleNetwork(custom_machine(2))
        net.place(0, Block("a", virtual_size=4))
        with pytest.raises(ValueError):
            net.place(0, Block("a", virtual_size=4))

    def test_deliberately_conflicting_pipeline_caught(self):
        """A broken schedule that reuses a link in exclusive mode fails
        loudly instead of under-costing."""
        from repro.machine.engine import LinkConflictError

        net = EnsembleNetwork(custom_machine(2))
        net.place(0, Block("a", virtual_size=1))
        net.place(0, Block("b", virtual_size=1))
        with pytest.raises(LinkConflictError):
            net.execute_phase(
                [Message(0, 1, ("a",)), Message(0, 1, ("b",))], exclusive=True
            )

    def test_stats_merge(self):
        from repro.machine.metrics import TransferStats

        a = TransferStats()
        a.record_message(0, 1, 10, 2)
        a.record_phase(5.0)
        b = TransferStats()
        b.record_message(0, 1, 7, 1)
        b.record_phase(3.0)
        b.record_copy(4, 1.0)
        a.merge(b)
        assert a.time == pytest.approx(9.0)
        assert a.startups == 3
        assert a.element_hops == 17
        assert a.link_elements[(0, 1)] == 17
        assert a.max_link_elements == 17
        assert a.copied_elements == 4


@settings(max_examples=15, deadline=None)
@given(
    half=st.integers(1, 2),
    p=st.integers(2, 4),
    seed=st.integers(0, 2**16),
    gray=st.booleans(),
)
def test_property_pairwise_transpose_roundtrip(half, p, seed, gray):
    """Random square 2D layouts: transpose twice == identity, for the
    planner-chosen algorithm on a random machine."""
    if half > p:
        half = p
    from repro.transpose import transpose

    layout = pt.two_dim_cyclic(p, p, half, half, gray=gray)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((1 << p, 1 << p))
    dm = DistributedMatrix.from_global(A, layout)
    net = EnsembleNetwork(custom_machine(2 * half))
    once = transpose(net, dm).matrix
    net2 = EnsembleNetwork(custom_machine(2 * half))
    twice = transpose(net2, once).matrix
    assert np.array_equal(twice.local_data, dm.local_data)
    assert np.array_equal(once.to_global(), A.T)
