"""Tests of the closed-form models against the simulator and each other."""

import math

import numpy as np
import pytest

from repro.analysis import models as md
from repro.analysis.bounds import (
    all_to_all_lower_bound,
    one_to_all_lower_bound,
    transpose_lower_bound,
)
from repro.analysis.crossover import (
    break_even_processors,
    compare_one_vs_two_dim,
    one_dim_nport_min_time,
)
from repro.comm.all_to_all import all_to_all_exchange, all_to_all_personalized_data
from repro.comm.one_to_all import personalized_data, scatter_tree
from repro.cube.trees import spanning_binomial_tree
from repro.layout import DistributedMatrix
from repro.layout import partition as pt
from repro.machine import EnsembleNetwork, custom_machine
from repro.machine.params import PortModel
from repro.transpose.two_dim import two_dim_transpose_spt


def machine(n, **kw):
    kw.setdefault("tau", 3.0)
    kw.setdefault("t_c", 1.0)
    kw.setdefault("packet_capacity", 2**30)
    return custom_machine(n, **kw)


class TestOneToAllModels:
    def test_simulated_sbt_matches_formula(self):
        n, K = 4, 8
        params = machine(n)
        net = EnsembleNetwork(params)
        personalized_data(net, 0, K)
        scatter_tree(net, spanning_binomial_tree(n), schedule="subtree")
        M = (1 << n) * K
        assert net.time == pytest.approx(md.one_to_all_sbt_min_time(params, M))

    def test_packetized_formula_exceeds_min(self):
        params = machine(5, packet_capacity=16)
        M = 4096
        assert md.one_to_all_sbt_time(params, M) > md.one_to_all_sbt_min_time(
            params, M
        )

    def test_nport_min_is_n_times_cheaper_transfer(self):
        params = machine(4, tau=0.0)
        M = 1 << 12
        assert md.one_to_all_nport_min_time(params, M) == pytest.approx(
            md.one_to_all_sbt_min_time(params, M) / 4
        )

    def test_within_factor_two_of_lower_bound(self):
        params = machine(5)
        M = 1 << 14
        t = md.one_to_all_sbt_min_time(params, M)
        lb = one_to_all_lower_bound(params, M)
        assert lb <= t <= 2 * lb


class TestAllToAllModels:
    def test_simulated_exchange_matches_formula(self):
        n, K = 3, 4
        params = machine(n)
        net = EnsembleNetwork(params)
        all_to_all_personalized_data(net, K)
        all_to_all_exchange(net)
        M = (1 << n) * (1 << n) * K
        assert net.time == pytest.approx(md.all_to_all_min_time(params, M))

    def test_exchange_time_with_packets(self):
        params = machine(4, packet_capacity=8)
        M = 1 << 12
        N = 16
        per_step = M / (2 * N)
        expected = 4 * per_step + 4 * math.ceil(per_step / 8) * 3.0
        assert md.all_to_all_exchange_time(params, M) == pytest.approx(expected)

    def test_nport_within_factor_two_of_lower_bound(self):
        """§3.2: SBnT n-port routing is within 2x of max(M/(2N) t_c, n tau);
        the one-port exchange pays the ~n/2 average distance serially."""
        params = machine(6)
        M = 1 << 16
        t = md.all_to_all_nport_min_time(params, M)
        lb = all_to_all_lower_bound(params, M)
        assert lb <= t <= 2 * lb
        # One-port: n/2-fold transfer blow-up relative to the link bound.
        t1 = md.all_to_all_min_time(params, M)
        assert t1 <= params.n * (lb + params.tau)

    def test_nport_min(self):
        params = machine(4)
        M = 1 << 12
        expected = M / 32 * 1.0 + 4 * 3.0
        assert md.all_to_all_nport_min_time(params, M) == pytest.approx(expected)


class TestSomeToAllModel:
    def test_degenerate_cases(self):
        """l = n, k = 0 gives all-to-all; l = 0, k = n gives one-to-all."""
        params = machine(4)
        M = 1 << 10
        a2a = md.some_to_all_time(params, M, k=0, l=params.n)
        # all-to-all: n steps of M/2^{n+1} each = n M/(2N).
        assert a2a == pytest.approx(md.all_to_all_min_time(params, M))
        o2a = md.some_to_all_time(params, M, k=params.n, l=0)
        assert o2a == pytest.approx(md.one_to_all_sbt_min_time(params, M))

    def test_nport_cheaper(self):
        params = machine(4)
        M = 1 << 10
        one = md.some_to_all_time(params, M, k=2, l=2)
        multi = md.some_to_all_time(params, M, k=2, l=2, n_port=True)
        assert multi < one

    def test_invalid_kl(self):
        params = machine(3)
        with pytest.raises(ValueError):
            md.some_to_all_time(params, 64, k=2, l=2)


class TestSptDptModels:
    def test_simulated_spt_matches_model(self):
        p, half = 4, 2
        n = 2 * half
        params = machine(n, port_model=PortModel.N_PORT)
        before = pt.two_dim_cyclic(p, p, half, half)
        A = np.arange(1 << (2 * p), dtype=np.float64).reshape(1 << p, 1 << p)
        net = EnsembleNetwork(params)
        B = 4
        two_dim_transpose_spt(
            net, DistributedMatrix.from_global(A, before), before, packet_size=B
        )
        M = 1 << (2 * p)
        assert net.time == pytest.approx(md.spt_time(params, M, B))

    def test_min_at_optimal_packet(self):
        params = machine(6)
        M = 1 << 16
        b_opt = md.spt_optimal_packet(params, M)
        t_opt = md.spt_time(params, M, max(1, round(b_opt)))
        t_min = md.spt_min_time(params, M)
        # Discrete packet sizes approach the continuous optimum.
        assert t_min <= t_opt <= 1.1 * t_min
        for b in (max(1, round(b_opt / 4)), round(b_opt * 4)):
            assert md.spt_time(params, M, b) >= t_opt * 0.999

    def test_dpt_transfer_half_of_spt(self):
        params = machine(6, tau=0.0)
        M = 1 << 16
        assert md.dpt_min_time(params, M) == pytest.approx(
            md.spt_min_time(params, M) / 2
        )

    def test_bad_packet_rejected(self):
        params = machine(4)
        with pytest.raises(ValueError):
            md.spt_time(params, 64, 0)
        with pytest.raises(ValueError):
            md.dpt_time(params, 64, 0)


class TestMptModel:
    def test_theorem2_regimes_continuous(self):
        """The piecewise T_min stays within the neighbouring branches."""
        M = 1 << 18
        for n in (2, 4, 6, 8, 10, 12):
            params = machine(n)
            t = md.mpt_min_time(params, M)
            lb = transpose_lower_bound(params, M)
            assert t >= lb * 0.99
            assert t <= 4 * lb + 10 * params.tau

    def test_startup_bound_branch(self):
        params = machine(8, tau=1e6)  # enormous tau: start-up bound
        M = 1 << 10
        n = 8
        expected = (n + 1) * params.tau + (n + 1) / (2 * n) * (M / 256) * params.t_c
        assert md.mpt_min_time(params, M) == pytest.approx(expected)

    def test_transfer_bound_branch(self):
        params = machine(4, tau=1e-9)
        M = 1 << 20
        L = M / 16
        expected = (math.sqrt(params.tau) + math.sqrt(L / 2)) ** 2
        assert md.mpt_min_time(params, M) == pytest.approx(expected, rel=1e-6)

    def test_mpt_time_vs_simulation(self):
        from repro.transpose.two_dim import two_dim_transpose_mpt

        p, half = 4, 2
        n = 2 * half
        params = machine(n, port_model=PortModel.N_PORT)
        before = pt.two_dim_cyclic(p, p, half, half)
        A = np.arange(1 << (2 * p), dtype=np.float64).reshape(1 << p, 1 << p)
        net = EnsembleNetwork(params)
        k = 2
        two_dim_transpose_mpt(
            net, DistributedMatrix.from_global(A, before), before, rounds=k
        )
        M = 1 << (2 * p)
        model = md.mpt_time(params, M, k)
        # The simulation's phase costs are dominated by the H=1 classes'
        # larger packets; the model prices the anti-diagonal class.  They
        # agree within a factor ~2.
        assert model / 2 <= net.time <= 2.5 * model

    def test_odd_cube_rejected(self):
        with pytest.raises(ValueError):
            md.mpt_min_time(machine(5), 1 << 10)
        with pytest.raises(ValueError):
            md.mpt_optimal_packet(machine(5), 1 << 10)
        with pytest.raises(ValueError):
            md.mpt_time(machine(4), 64, 0)

    def test_optimal_packet_branches(self):
        M = 1 << 20
        # Start-up bound (n > sqrt(M t_c / (2 N tau))): n/2 = 2 even,
        # B_opt = ceil(L / (n + 4)).
        big_tau = machine(4, tau=1e9)
        assert md.mpt_optimal_packet(big_tau, M) == math.ceil((M / 16) / 8)
        # n/2 odd variant: B_opt = ceil(L / (n + 2)).
        big_tau6 = machine(6, tau=1e9)
        assert md.mpt_optimal_packet(big_tau6, M) == math.ceil((M / 64) / 8)
        # Transfer bound: continuous optimum sqrt(M tau / (2 N t_c)).
        small_tau = machine(8, tau=1e-6)
        expected = math.sqrt(M * 1e-6 / (2 * 256 * 1.0))
        assert md.mpt_optimal_packet(small_tau, M) == pytest.approx(expected)


class TestIpscModels:
    def test_unbuffered_grows_linearly_in_N(self):
        from repro.machine.presets import intel_ipsc

        M = 1 << 16
        times = [md.ipsc_one_dim_unbuffered_time(intel_ipsc(n), M) for n in (4, 6, 8)]
        # Start-up term ~N: quadrupling N should eventually dominate.
        assert times[2] > times[1] > times[0] * 0.9

    def test_buffered_beats_unbuffered_on_large_cube(self):
        from repro.machine.presets import intel_ipsc

        params = intel_ipsc(8)
        M = 1 << 16
        assert md.ipsc_one_dim_buffered_time(params, M) < md.ipsc_one_dim_unbuffered_time(
            params, M
        )

    def test_two_dim_estimate(self):
        params = machine(4, t_copy=0.5, packet_capacity=8)
        M = 1 << 10
        L = M / 16
        expected = (L * 1.0 + math.ceil(L / 8) * 3.0) * 4 + 2 * L * 0.5
        assert md.ipsc_two_dim_time(params, M) == pytest.approx(expected)


class TestCrossover:
    def test_one_dim_wins_in_startup_bound_regime(self):
        """§9: for n >= sqrt(M t_c / (N tau)) the 1D partitioning wins
        by about one start-up."""
        params = machine(8, tau=100.0)
        M = 1 << 10
        cmp = compare_one_vs_two_dim(params, M)
        assert cmp.winner == "1d"
        assert cmp.t_two_dim - cmp.t_one_dim <= 2 * params.tau

    def test_one_dim_wins_in_transfer_bound_regime(self):
        params = machine(2, tau=1e-6)
        M = 1 << 20
        cmp = compare_one_vs_two_dim(params, M)
        assert cmp.winner == "1d"

    def test_comparison_winner_labels(self):
        params = machine(4)
        cmp = compare_one_vs_two_dim(params, 1 << 12)
        assert cmp.winner in ("1d", "2d", "tie")
        assert cmp.t_one_dim == pytest.approx(
            one_dim_nport_min_time(params, 1 << 12)
        )

    def test_break_even_estimate(self):
        N = break_even_processors(M=1 << 20, t_c=1e-6, tau=5e-3, c=0.75)
        assert N > 1
        with pytest.raises(ValueError):
            break_even_processors(M=0, t_c=1.0, tau=1.0)
        with pytest.raises(ValueError):
            break_even_processors(M=10, t_c=1.0, tau=1.0, c=-1)

    def test_small_r_clamps_to_one(self):
        assert break_even_processors(M=1, t_c=1.0, tau=1.0) == 1.0


class TestBounds:
    def test_transpose_lower_bound_branches(self):
        startup_bound = machine(8, tau=1e9)
        assert transpose_lower_bound(startup_bound, 64) == pytest.approx(8e9)
        transfer_bound = machine(2, tau=0.0)
        assert transpose_lower_bound(transfer_bound, 64) == pytest.approx(8.0)

    def test_one_to_all_nport_divides_transfer(self):
        params = machine(4, tau=0.0)
        one = one_to_all_lower_bound(params, 1 << 10)
        multi = one_to_all_lower_bound(params, 1 << 10, n_port=True)
        assert multi == pytest.approx(one / 4)


class TestSbntScatterModel:
    def test_large_packets_reach_min(self):
        import math as _math

        params = machine(5)
        M = 1 << 14
        t = md.one_to_all_sbnt_time(params, M)
        assert t == pytest.approx(md.one_to_all_nport_min_time(params, M))

    def test_small_packets_cost_more(self):
        params = machine(5, packet_capacity=8)
        M = 1 << 14
        assert md.one_to_all_sbnt_time(params, M) > md.one_to_all_nport_min_time(
            params, M
        )

    def test_min_packet_approximation(self):
        """max_i C(n,i)/n * M/N ~ sqrt(2/pi) M / n^{3/2} (§3.1)."""
        import math as _math

        for n in (6, 8, 10, 12):
            params = machine(n)
            M = 1 << 20
            exact = md.one_to_all_sbnt_min_packet(params, M)
            approx = _math.sqrt(2 / _math.pi) * M / n ** 1.5
            assert 0.5 < exact / approx < 2.0


class TestIpscModelsVsSimulation:
    """The blocked exchange strategy reproduces the §8.1 step structure
    (2^{j-1} fragments at step j), so the paper's closed forms price the
    simulation essentially exactly."""

    def _run(self, n, mode):
        from repro.machine.presets import intel_ipsc
        from repro.transpose.exchange import BufferPolicy
        from repro.transpose.one_dim import one_dim_transpose_exchange

        bits = 14
        p = bits // 2
        params = intel_ipsc(n)
        before = pt.row_consecutive(p, bits - p, n)
        after = pt.row_consecutive(bits - p, p, n)
        dm = DistributedMatrix.from_global(
            np.zeros((1 << p, 1 << (bits - p))), before
        )
        net = EnsembleNetwork(params)
        one_dim_transpose_exchange(net, dm, after, policy=BufferPolicy(mode))
        return net.time, params

    def test_unbuffered_model_matches_simulation(self):
        for n in (4, 6):
            sim, params = self._run(n, "unbuffered")
            model = md.ipsc_one_dim_unbuffered_time(params, 1 << 14)
            assert sim == pytest.approx(model, rel=0.02), n
        # Boundary regime (huge messages on a tiny cube): the paper's
        # start-up count omits the extra B_m packet splitting.
        sim, params = self._run(2, "unbuffered")
        model = md.ipsc_one_dim_unbuffered_time(params, 1 << 14)
        assert 1.0 <= sim / model <= 3.0

    def test_buffered_model_matches_simulation(self):
        for n in (2, 4, 6):
            sim, params = self._run(n, "threshold")
            model = md.ipsc_one_dim_buffered_time(params, 1 << 14)
            assert sim == pytest.approx(model, rel=0.05), n
