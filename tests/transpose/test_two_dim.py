"""Tests for the two-dimensional SPT/DPT/MPT algorithms (§6.1)."""

import numpy as np
import pytest

from repro.layout import DistributedMatrix
from repro.layout import partition as pt
from repro.machine import EnsembleNetwork, custom_machine
from repro.machine.params import PortModel
from repro.transpose.two_dim import (
    pairwise_maps,
    two_dim_transpose_dpt,
    two_dim_transpose_mpt,
    two_dim_transpose_router,
    two_dim_transpose_spt,
)


def matrix(p, q, seed=5):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << 20, size=(1 << p, 1 << q)).astype(np.float64)


def square_layouts(p, half, *, gray=False, scheme="cyclic"):
    mk = pt.two_dim_cyclic if scheme == "cyclic" else pt.two_dim_consecutive
    return mk(p, p, half, half, gray=gray), mk(p, p, half, half, gray=gray)


class TestPairwiseMaps:
    def test_partner_is_tr_for_cyclic(self):
        before, after = square_layouts(3, 2)
        partner, _ = pairwise_maps(before, after)
        half = 2
        for x in range(16):
            expected = ((x & 3) << half) | (x >> half)
            assert partner[x] == expected

    def test_non_pairwise_rejected(self):
        before = pt.row_consecutive(3, 3, 2)
        after = pt.row_consecutive(3, 3, 2)
        with pytest.raises(ValueError):
            pairwise_maps(before, after)


ALGOS = {
    "spt": lambda net, dm, after: two_dim_transpose_spt(net, dm, after),
    "spt-pipe": lambda net, dm, after: two_dim_transpose_spt(
        net, dm, after, packet_size=4
    ),
    "dpt": lambda net, dm, after: two_dim_transpose_dpt(net, dm, after),
    "dpt-pipe": lambda net, dm, after: two_dim_transpose_dpt(
        net, dm, after, packet_size=4
    ),
    "mpt": lambda net, dm, after: two_dim_transpose_mpt(net, dm, after),
    "mpt-k2": lambda net, dm, after: two_dim_transpose_mpt(
        net, dm, after, rounds=2
    ),
    "router": lambda net, dm, after: two_dim_transpose_router(net, dm, after),
}


class TestCorrectness:
    @pytest.mark.parametrize("name", list(ALGOS))
    @pytest.mark.parametrize("scheme", ["cyclic", "consecutive"])
    def test_transposes(self, name, scheme):
        p, half = 4, 2
        before, after = square_layouts(p, half, scheme=scheme)
        A = matrix(p, p)
        net = EnsembleNetwork(
            custom_machine(2 * half, port_model=PortModel.N_PORT)
        )
        out = ALGOS[name](net, DistributedMatrix.from_global(A, before), after)
        assert np.array_equal(out.to_global(), A.T), name

    @pytest.mark.parametrize("name", ["spt", "dpt", "mpt", "router"])
    def test_gray_encoding(self, name):
        """§6.1: identical algorithm transposes Gray-embedded matrices."""
        p, half = 3, 1
        before, after = square_layouts(p, half, gray=True)
        A = matrix(p, p)
        net = EnsembleNetwork(custom_machine(2, port_model=PortModel.N_PORT))
        out = ALGOS[name](net, DistributedMatrix.from_global(A, before), after)
        assert np.array_equal(out.to_global(), A.T)

    def test_six_cube(self):
        before, after = square_layouts(3, 3)
        A = matrix(3, 3)
        net = EnsembleNetwork(custom_machine(6, port_model=PortModel.N_PORT))
        out = two_dim_transpose_mpt(
            net, DistributedMatrix.from_global(A, before), after
        )
        assert np.array_equal(out.to_global(), A.T)

    def test_invalid_rounds(self):
        before, after = square_layouts(2, 1)
        dm = DistributedMatrix.iota(before)
        net = EnsembleNetwork(custom_machine(2))
        with pytest.raises(ValueError):
            two_dim_transpose_mpt(net, dm, after, rounds=0)

    def test_bad_packet_size(self):
        before, after = square_layouts(2, 1)
        dm = DistributedMatrix.iota(before)
        net = EnsembleNetwork(custom_machine(2))
        with pytest.raises(ValueError):
            two_dim_transpose_spt(net, dm, after, packet_size=0)


class TestTiming:
    def test_spt_step_by_step_matches_ipsc_formula(self):
        """T = n (L t_c + ceil(L/B_m) tau) without copy charges."""
        p, half = 4, 2
        n = 2 * half
        before, after = square_layouts(p, half)
        A = matrix(p, p)
        tau, t_c, B_m = 7.0, 2.0, 8
        net = EnsembleNetwork(custom_machine(n, tau=tau, t_c=t_c, packet_capacity=B_m))
        two_dim_transpose_spt(
            net, DistributedMatrix.from_global(A, before), after
        )
        L = before.local_size
        expected = n * (L * t_c + -(-L // B_m) * tau)
        assert net.time == pytest.approx(expected)

    def test_spt_pipelined_matches_formula(self):
        """T = (ceil(L/B) + n - 1)(B t_c + tau) for packets of size B."""
        p, half = 4, 2
        n = 2 * half
        before, after = square_layouts(p, half)
        A = matrix(p, p)
        B = 4
        tau, t_c = 3.0, 1.0
        # Pipelined SPT needs n concurrent operations per node (§6.1.2's
        # comparison: "it suffices that each node supports a total of n
        # concurrent send or receive operations").
        net = EnsembleNetwork(
            custom_machine(n, tau=tau, t_c=t_c, port_model=PortModel.N_PORT)
        )
        two_dim_transpose_spt(
            net, DistributedMatrix.from_global(A, before), after, packet_size=B
        )
        L = before.local_size
        K = -(-L // B)
        expected = (K + n - 1) * (B * t_c + tau)
        assert net.time == pytest.approx(expected)

    def test_dpt_halves_spt_transfer(self):
        """Speedup ~2 when PQ/N t_c >> n tau (§6.1.2)."""
        p, half = 5, 2
        n = 2 * half
        before, after = square_layouts(p, half)
        A = matrix(p, p)
        B = 2

        spt_net = EnsembleNetwork(
            custom_machine(n, tau=0.0, t_c=1.0, port_model=PortModel.N_PORT)
        )
        two_dim_transpose_spt(
            spt_net, DistributedMatrix.from_global(A, before), after, packet_size=B
        )
        dpt_net = EnsembleNetwork(
            custom_machine(n, tau=0.0, t_c=1.0, port_model=PortModel.N_PORT)
        )
        two_dim_transpose_dpt(
            dpt_net, DistributedMatrix.from_global(A, before), after, packet_size=B
        )
        ratio = spt_net.time / dpt_net.time
        assert 1.6 < ratio <= 2.1

    def test_mpt_beats_dpt_in_startup_bound_regime(self):
        """Theorem 2 vs §6.1.2: MPT's multi-path injection completes in
        ~n+1 start-ups where a pipelined DPT pays ~(K + n - 1); with
        start-ups dominating, MPT wins even against DPT's optimal packet
        size."""
        import math

        p, half = 5, 2
        n = 2 * half
        tau, t_c = 16.0, 1.0
        before, after = square_layouts(p, half)
        A = matrix(p, p)
        L = before.local_size

        b_opt = max(1, round(math.sqrt(L * tau / (2 * (n - 1) * t_c))))
        dpt_net = EnsembleNetwork(
            custom_machine(n, tau=tau, t_c=t_c, port_model=PortModel.N_PORT)
        )
        two_dim_transpose_dpt(
            dpt_net,
            DistributedMatrix.from_global(A, before),
            after,
            packet_size=b_opt,
        )
        mpt_net = EnsembleNetwork(
            custom_machine(n, tau=tau, t_c=t_c, port_model=PortModel.N_PORT)
        )
        two_dim_transpose_mpt(
            mpt_net, DistributedMatrix.from_global(A, before), after, rounds=1
        )
        assert mpt_net.time < dpt_net.time

    def test_mpt_matches_dpt_at_zero_startup(self):
        """At tau = 0 both are bandwidth-bound by the H(x) = 1 nodes'
        two paths, so MPT holds no advantage — a negative control."""
        p, half = 5, 2
        n = 2 * half
        before, after = square_layouts(p, half)
        A = matrix(p, p)
        dpt_net = EnsembleNetwork(
            custom_machine(n, tau=0.0, t_c=1.0, port_model=PortModel.N_PORT)
        )
        two_dim_transpose_dpt(
            dpt_net, DistributedMatrix.from_global(A, before), after, packet_size=2
        )
        mpt_net = EnsembleNetwork(
            custom_machine(n, tau=0.0, t_c=1.0, port_model=PortModel.N_PORT)
        )
        two_dim_transpose_mpt(
            mpt_net, DistributedMatrix.from_global(A, before), after, rounds=2
        )
        assert mpt_net.time < 2.0 * dpt_net.time

    def test_mpt_cycle_count(self):
        """Routing completes in 2kH+1 cycles for the anti-diagonal class
        (plus nothing else: phases == max cycles used)."""
        p, half = 4, 2
        n = 2 * half
        before, after = square_layouts(p, half)
        A = matrix(p, p)
        k = 2
        net = EnsembleNetwork(custom_machine(n, port_model=PortModel.N_PORT))
        two_dim_transpose_mpt(
            net, DistributedMatrix.from_global(A, before), after, rounds=k
        )
        h_max = half
        assert net.stats.phases == 2 * k * h_max + 1

    def test_router_slower_than_spt_on_big_cube(self):
        """Fig. 14: the scheduled algorithm beats the routing logic as the
        cube grows (conflicts pile up on the router)."""
        p, half = 4, 2
        n = 2 * half
        before, after = square_layouts(p, half)
        A = matrix(p, p)

        r_net = EnsembleNetwork(custom_machine(n, tau=1.0, t_c=1.0))
        two_dim_transpose_router(
            r_net, DistributedMatrix.from_global(A, before), after
        )
        s_net = EnsembleNetwork(custom_machine(n, tau=1.0, t_c=1.0))
        two_dim_transpose_spt(
            s_net, DistributedMatrix.from_global(A, before), after
        )
        assert s_net.time <= r_net.time

    def test_charge_copy_adds_two_l_tcopy(self):
        p, half = 4, 2
        before, after = square_layouts(p, half)
        A = matrix(p, p)
        net = EnsembleNetwork(custom_machine(4, t_copy=1.0))
        two_dim_transpose_spt(
            net, DistributedMatrix.from_global(A, before), after, charge_copy=True
        )
        L = before.local_size
        assert net.stats.copy_time == pytest.approx(2 * L)


class TestVariants:
    def test_spt_greedy_matches_synchronized_result(self):
        p, half = 4, 2
        before, after = square_layouts(p, half)
        A = matrix(p, p)
        sync_net = EnsembleNetwork(custom_machine(4, port_model=PortModel.N_PORT))
        sync = two_dim_transpose_spt(
            sync_net, DistributedMatrix.from_global(A, before), after
        )
        greedy_net = EnsembleNetwork(custom_machine(4, port_model=PortModel.N_PORT))
        greedy = two_dim_transpose_spt(
            greedy_net,
            DistributedMatrix.from_global(A, before),
            after,
            greedy=True,
        )
        assert np.array_equal(sync.local_data, greedy.local_data)
        # Greedy never takes longer on n-port (idle slots removed).
        assert greedy_net.time <= sync_net.time * 1.0001

    def test_spt_greedy_pipelined(self):
        p, half = 4, 2
        before, after = square_layouts(p, half)
        A = matrix(p, p)
        net = EnsembleNetwork(custom_machine(4, port_model=PortModel.N_PORT))
        out = two_dim_transpose_spt(
            net,
            DistributedMatrix.from_global(A, before),
            after,
            packet_size=4,
            greedy=True,
        )
        assert np.array_equal(out.to_global(), A.T)

    def test_mixed_combined_pipelined(self):
        """§6.3: 'Pipelining can be applied.'"""
        from repro.transpose.mixed import mixed_code_transpose_combined

        before = pt.two_dim_mixed(
            4, 4, 2, 2, rows="cyclic", cols="cyclic", col_gray=True
        )
        after = pt.two_dim_mixed(
            4, 4, 2, 2, rows="cyclic", cols="cyclic", col_gray=True
        )
        A = matrix(4, 4)
        whole_net = EnsembleNetwork(custom_machine(4, port_model=PortModel.N_PORT))
        whole = mixed_code_transpose_combined(
            whole_net, DistributedMatrix.from_global(A, before), after
        )
        pipe_net = EnsembleNetwork(custom_machine(4, port_model=PortModel.N_PORT))
        piped = mixed_code_transpose_combined(
            pipe_net,
            DistributedMatrix.from_global(A, before),
            after,
            packet_size=4,
        )
        assert np.array_equal(whole.local_data, piped.local_data)
        assert np.array_equal(piped.to_global(), A.T)

    def test_mixed_pipelined_cuts_startup_latency(self):
        """With start-ups dominating whole-block hops, packets amortize."""
        from repro.transpose.mixed import mixed_code_transpose_combined

        before = pt.two_dim_mixed(
            5, 5, 2, 2, rows="cyclic", cols="cyclic", col_gray=True
        )
        after = pt.two_dim_mixed(
            5, 5, 2, 2, rows="cyclic", cols="cyclic", col_gray=True
        )
        A = matrix(5, 5)
        # Transfer-bound machine: pipelining overlaps the hops.
        whole_net = EnsembleNetwork(
            custom_machine(4, tau=0.5, t_c=1.0, port_model=PortModel.N_PORT)
        )
        mixed_code_transpose_combined(
            whole_net, DistributedMatrix.from_global(A, before), after
        )
        pipe_net = EnsembleNetwork(
            custom_machine(4, tau=0.5, t_c=1.0, port_model=PortModel.N_PORT)
        )
        mixed_code_transpose_combined(
            pipe_net,
            DistributedMatrix.from_global(A, before),
            after,
            packet_size=8,
        )
        assert pipe_net.time < whole_net.time

    def test_mixed_pipelined_bad_packet(self):
        from repro.transpose.mixed import mixed_code_transpose_combined

        before = pt.two_dim_mixed(3, 3, 1, 1, col_gray=True, rows="cyclic")
        after = pt.two_dim_mixed(3, 3, 1, 1, col_gray=True, rows="cyclic")
        dm = DistributedMatrix.iota(before)
        net = EnsembleNetwork(custom_machine(2))
        with pytest.raises(ValueError):
            mixed_code_transpose_combined(net, dm, after, packet_size=0)
