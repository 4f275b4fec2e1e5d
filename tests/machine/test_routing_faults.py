"""Tests for fault-tolerant e-cube routing: detours, retries, stalls."""

import numpy as np
import pytest

from repro.machine import (
    Block,
    EnsembleNetwork,
    FaultPlan,
    LinkFault,
    NodeFailureError,
    NodeFault,
    RoutingStalledError,
    custom_machine,
)
from repro.machine.routing import RoutedTransfer, route_messages


def fresh(n=2, plan=None, **kw):
    return EnsembleNetwork(custom_machine(n, **kw), faults=plan)


class TestBaselineUnchanged:
    def test_empty_plan_keeps_exact_round_counts(self):
        """An attached-but-empty plan must not perturb the oblivious router."""
        net = fresh(n=3, plan=FaultPlan(3))
        net.place(0, Block("x", data=np.arange(3)))
        rounds = route_messages(net, [RoutedTransfer(0, 7, ("x",))])
        assert rounds == 3
        assert net.find_block("x") == 7
        assert net.stats.detour_hops == 0
        assert net.stats.retries == 0


class TestDetours:
    def test_detour_around_permanent_link(self):
        """0 -> 1 with link 0->1 dead misroutes 0 -> 2 -> 3 -> 1."""
        net = fresh(plan=FaultPlan.single_link(2, 0, 1))
        net.place(0, Block("x", data=np.arange(2)))
        rounds = route_messages(net, [RoutedTransfer(0, 1, ("x",))])
        assert net.find_block("x") == 1
        assert rounds == 3
        assert net.stats.detour_hops == 1
        assert (0, 2) in net.stats.link_elements
        assert (0, 1) not in net.stats.link_elements

    def test_detour_around_dead_intermediate_node(self):
        """0 -> 3 avoids dead node 1 by taking the dimension-1 hop first."""
        plan = FaultPlan(2, node_faults=(NodeFault(1),))
        net = fresh(plan=plan)
        net.place(0, Block("x", virtual_size=2))
        rounds = route_messages(net, [RoutedTransfer(0, 3, ("x",))])
        assert net.find_block("x") == 3
        assert rounds == 2  # the other profitable dimension was healthy
        assert net.stats.detour_hops == 0

    def test_budget_zero_forbids_misrouting(self):
        net = fresh(plan=FaultPlan.single_link(2, 0, 1))
        net.place(0, Block("x", virtual_size=2))
        with pytest.raises(RoutingStalledError, match="detour budget"):
            route_messages(
                net, [RoutedTransfer(0, 1, ("x",))], detour_budget=0
            )


class TestTransientFaults:
    def test_waits_out_a_transient_window(self):
        plan = FaultPlan(2, (LinkFault(0, 1, start=0, end=2),))
        net = fresh(plan=plan)
        net.place(0, Block("x", virtual_size=2))
        rounds = route_messages(net, [RoutedTransfer(0, 1, ("x",))])
        assert net.find_block("x") == 1
        assert rounds == 3  # two stall rounds, then the delivering hop
        assert net.stats.retries == 2
        assert net.stats.stall_phases == 2
        assert net.stats.detour_hops == 0

    def test_retry_limit_zero_detours_instead_of_waiting(self):
        plan = FaultPlan(2, (LinkFault(0, 1, start=0, end=50),))
        net = fresh(plan=plan)
        net.place(0, Block("x", virtual_size=2))
        rounds = route_messages(
            net, [RoutedTransfer(0, 1, ("x",))], retry_limit=0
        )
        assert net.find_block("x") == 1
        assert rounds == 3  # 0 -> 2 -> 3 -> 1, no waiting
        assert net.stats.detour_hops == 1


class TestStallDiagnosis:
    def test_permanent_wall_raises_instead_of_spinning(self):
        plan = FaultPlan(2, (LinkFault(0, 1), LinkFault(0, 2)))
        net = fresh(plan=plan)
        net.place(0, Block("x", virtual_size=2))
        with pytest.raises(RoutingStalledError):
            route_messages(net, [RoutedTransfer(0, 1, ("x",))])

    def test_round_cap(self):
        net = fresh(n=3)
        net.place(0, Block("x", virtual_size=2))
        with pytest.raises(RoutingStalledError, match="round cap"):
            route_messages(
                net, [RoutedTransfer(0, 7, ("x",))], max_rounds=2
            )

    def test_diagnosis_names_the_stuck_transfer(self):
        plan = FaultPlan(2, (LinkFault(0, 1), LinkFault(0, 2)))
        net = fresh(plan=plan)
        net.place(0, Block("stuck-key", virtual_size=2))
        with pytest.raises(RoutingStalledError, match="stuck-key"):
            route_messages(net, [RoutedTransfer(0, 1, ("stuck-key",))])

    def test_permanently_dead_endpoint_fails_fast(self):
        plan = FaultPlan(2, node_faults=(NodeFault(3),))
        net = fresh(plan=plan)
        net.place(0, Block("x", virtual_size=2))
        with pytest.raises(NodeFailureError):
            route_messages(net, [RoutedTransfer(0, 3, ("x",))])


class TestFaultedPermutation:
    def test_full_transpose_survives_single_dead_link(self):
        """Fig. 14b's permutation delivers on every single-link-dead cube."""
        n = 4
        half = n // 2
        mask = (1 << half) - 1
        for dead_src in (0, 5, 9):
            for d in range(n):
                dead_dst = dead_src ^ (1 << d)
                plan = FaultPlan.single_link(n, dead_src, dead_dst)
                net = fresh(n=n, plan=plan, tau=1.0, t_c=1.0)
                transfers = []
                for x in range(1 << n):
                    tr = ((x & mask) << half) | (x >> half)
                    if tr == x:
                        continue
                    net.place(x, Block(("blk", x), virtual_size=4))
                    transfers.append(RoutedTransfer(x, tr, (("blk", x),)))
                route_messages(net, transfers)
                for x in range(1 << n):
                    tr = ((x & mask) << half) | (x >> half)
                    if tr != x:
                        assert net.find_block(("blk", x)) == tr
