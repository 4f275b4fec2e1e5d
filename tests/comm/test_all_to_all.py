"""Tests for all-to-all personalized communication (§3.2)."""

import numpy as np
import pytest

from repro.comm.all_to_all import (
    all_to_all_exchange,
    all_to_all_personalized_data,
    all_to_all_sbnt,
    dimension_sweep,
)
from repro.machine import EnsembleNetwork, custom_machine
from repro.machine.params import PortModel


def all_delivered(net):
    n = net.params.n
    N = 1 << n
    for dst in range(N):
        mem = net.memory(dst)
        got = {k for k in mem.keys()}
        expected = {("a2a", src, dst) for src in range(N) if src != dst}
        assert got == expected, f"node {dst}"
        for src in range(N):
            if src != dst:
                assert np.all(mem.get(("a2a", src, dst)).data == src * N + dst)


class TestExchange:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_delivers_everything(self, n):
        net = EnsembleNetwork(custom_machine(n))
        all_to_all_personalized_data(net, 2)
        phases = all_to_all_exchange(net)
        assert phases == n
        all_delivered(net)

    def test_ascending_order_also_works(self):
        net = EnsembleNetwork(custom_machine(3))
        all_to_all_personalized_data(net, 2)
        all_to_all_exchange(net, descending=False)
        all_delivered(net)

    def test_one_port_time_matches_formula(self):
        """T = n (PQ/(2N) t_c + tau) for B_m >= PQ/(2N)."""
        n = 3
        K = 4  # elements per (src, dst) pair
        net = EnsembleNetwork(custom_machine(n, tau=1.0, t_c=1.0))
        all_to_all_personalized_data(net, K)
        all_to_all_exchange(net)
        N = 1 << n
        PQ = N * N * K  # total data: N nodes x N destinations x K
        expected = n * (PQ / (2 * N) * 1.0 + 1.0)
        assert net.time == pytest.approx(expected)

    def test_per_step_volume_is_half_local_data(self):
        """Each exchange step moves PQ/(2N) elements over each busy link."""
        n = 3
        K = 8
        net = EnsembleNetwork(custom_machine(n))
        all_to_all_personalized_data(net, K)
        all_to_all_exchange(net)
        N = 1 << n
        per_step = N * K // 2
        # every directed link in each of the n dimensions carried the
        # same load; max accumulates only once per dimension pairing.
        assert net.stats.max_link_elements == per_step

    def test_dimension_sweep_validates_dims(self):
        net = EnsembleNetwork(custom_machine(2))
        with pytest.raises(ValueError):
            dimension_sweep(net, [5])


class TestSbnt:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_delivers_everything(self, n):
        net = EnsembleNetwork(custom_machine(n, port_model=PortModel.N_PORT))
        all_to_all_personalized_data(net, 2)
        phases = all_to_all_sbnt(net)
        assert phases <= n
        all_delivered(net)

    def test_n_port_beats_one_port_exchange(self):
        """§3.2: SBnT routing with n ports approaches PQ/(2N) t_c + n tau,
        an ~n-fold transfer-time win over the one-port exchange."""
        n = 4
        K = 32
        ex = EnsembleNetwork(custom_machine(n, tau=0.0, t_c=1.0))
        all_to_all_personalized_data(ex, K)
        all_to_all_exchange(ex)

        sb = EnsembleNetwork(
            custom_machine(n, tau=0.0, t_c=1.0, port_model=PortModel.N_PORT)
        )
        all_to_all_personalized_data(sb, K)
        all_to_all_sbnt(sb)
        assert sb.time < ex.time / (n / 2)

    def test_n_port_time_near_lower_bound(self):
        """Transfer time within a small factor of PQ/(2N) t_c."""
        n = 4
        K = 16
        net = EnsembleNetwork(
            custom_machine(n, tau=0.0, t_c=1.0, port_model=PortModel.N_PORT)
        )
        all_to_all_personalized_data(net, K)
        all_to_all_sbnt(net)
        N = 1 << n
        lower = N * K / 2  # PQ/(2N) t_c with PQ = N^2 K
        assert net.time >= lower * 0.99
        assert net.time <= 2.5 * lower

    def test_exchange_and_sbnt_agree_on_payloads(self):
        n = 3
        a = EnsembleNetwork(custom_machine(n))
        b = EnsembleNetwork(custom_machine(n, port_model=PortModel.N_PORT))
        for net in (a, b):
            all_to_all_personalized_data(net, 3)
        all_to_all_exchange(a)
        all_to_all_sbnt(b)
        for x in range(1 << n):
            assert sorted(a.memory(x).keys()) == sorted(b.memory(x).keys())


class TestPipelinedExchange:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_delivers_everything(self, n):
        from repro.comm.all_to_all import all_to_all_pipelined_exchange

        net = EnsembleNetwork(custom_machine(n, port_model=PortModel.N_PORT))
        all_to_all_personalized_data(net, 2)
        phases = all_to_all_pipelined_exchange(net)
        assert phases == n
        all_delivered(net)

    def test_suboptimal_versus_sbnt(self):
        """§3.2: "pipelining can be employed in the exchange algorithm,
        but the algorithm so modified is suboptimal" — the descending
        routing order funnels half the traffic through one port."""
        from repro.comm.all_to_all import all_to_all_pipelined_exchange

        n, K = 6, 8
        pipe = EnsembleNetwork(
            custom_machine(n, tau=0.0, t_c=1.0, port_model=PortModel.N_PORT)
        )
        all_to_all_personalized_data(pipe, K)
        all_to_all_pipelined_exchange(pipe)

        sb = EnsembleNetwork(
            custom_machine(n, tau=0.0, t_c=1.0, port_model=PortModel.N_PORT)
        )
        all_to_all_personalized_data(sb, K)
        all_to_all_sbnt(sb)
        # The handicap grows with n (first-hop funnelling); ~2x by n = 6.
        assert pipe.time > 1.8 * sb.time

    def test_still_beats_unpipelined_on_n_port(self):
        from repro.comm.all_to_all import all_to_all_pipelined_exchange

        n, K = 4, 32
        pipe = EnsembleNetwork(
            custom_machine(n, tau=0.0, t_c=1.0, port_model=PortModel.N_PORT)
        )
        all_to_all_personalized_data(pipe, K)
        all_to_all_pipelined_exchange(pipe)

        plain = EnsembleNetwork(
            custom_machine(n, tau=0.0, t_c=1.0, port_model=PortModel.N_PORT)
        )
        all_to_all_personalized_data(plain, K)
        all_to_all_exchange(plain)
        assert pipe.time < plain.time


class TestSbntDistributedTranscription:
    """The literal §5 pseudocode (per-node buffers, no global state) must
    behave *identically* to the route-precomputing implementation."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_delivers_everything(self, n):
        from repro.comm.all_to_all import all_to_all_sbnt_distributed

        net = EnsembleNetwork(custom_machine(n, port_model=PortModel.N_PORT))
        all_to_all_personalized_data(net, 2)
        phases = all_to_all_sbnt_distributed(net)
        assert phases <= n
        all_delivered(net)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_identical_to_route_based(self, n):
        from repro.comm.all_to_all import all_to_all_sbnt_distributed

        a = EnsembleNetwork(custom_machine(n, tau=1.0, t_c=1.0, port_model=PortModel.N_PORT))
        b = EnsembleNetwork(custom_machine(n, tau=1.0, t_c=1.0, port_model=PortModel.N_PORT))
        for net in (a, b):
            all_to_all_personalized_data(net, 3)
        pa = all_to_all_sbnt(a)
        pb = all_to_all_sbnt_distributed(b)
        assert pa == pb
        assert a.time == pytest.approx(b.time)
        assert a.stats.element_hops == b.stats.element_hops
        for x in range(1 << n):
            assert sorted(a.memory(x).keys()) == sorted(b.memory(x).keys())

    def test_base_port_balance(self):
        """The first-hop buffers are near-evenly split over the n ports —
        the whole point of base() routing."""
        from repro.cube.trees import rotation_base

        n = 6
        counts = [0] * n
        for d in range(1, 1 << n):
            counts[rotation_base(d, n)] += 1
        total = (1 << n) - 1
        for c in counts:
            assert total / (2 * n) <= c <= 2 * total / n


class TestLinkBalance:
    """Quantify the load-balance claims behind the §3.2 running times."""

    def test_sbnt_balances_link_loads(self):
        n, K = 5, 8
        net = EnsembleNetwork(custom_machine(n, port_model=PortModel.N_PORT))
        all_to_all_personalized_data(net, K)
        all_to_all_sbnt(net)
        loads = list(net.stats.link_elements.values())
        mean = sum(loads) / len(loads)
        assert max(loads) <= 2.0 * mean

    def test_pipelined_exchange_skews_first_phase(self):
        """Aggregate per-dimension loads are uniform (every block crosses
        each differing dimension once); the pipeline's handicap is
        *temporal* — its first phase funnels half of all traffic through
        dimension n-1 alone, where the SBnT's first phase already uses
        every port."""
        from repro.comm.all_to_all import all_to_all_pipelined_exchange
        from repro.machine import TraceRecorder

        n, K = 5, 8
        pipe = EnsembleNetwork(custom_machine(n, port_model=PortModel.N_PORT))
        rec_p = TraceRecorder()
        pipe.observer = rec_p
        all_to_all_personalized_data(pipe, K)
        all_to_all_pipelined_exchange(pipe)

        sb = EnsembleNetwork(custom_machine(n, port_model=PortModel.N_PORT))
        rec_s = TraceRecorder()
        sb.observer = rec_s
        all_to_all_personalized_data(sb, K)
        all_to_all_sbnt(sb)

        def phase0_volume_by_dim(rec):
            from repro.cube.topology import dimension_of_edge

            vol = {}
            for src, dst, elements in rec.comm_events[0].transfers:
                d = dimension_of_edge(src, dst)
                vol[d] = vol.get(d, 0) + elements
            return vol

        pipe_vol = phase0_volume_by_dim(rec_p)
        sb_vol = phase0_volume_by_dim(rec_s)
        # Pipelined: dim n-1 carries 2^{n-1} destinations' worth per node
        # while dim 0 carries exactly one destination's worth.
        assert pipe_vol[n - 1] >= 8 * pipe_vol[0]
        # SBnT: all dimensions within a factor ~2 of each other.
        assert max(sb_vol.values()) <= 2.5 * min(sb_vol.values())
