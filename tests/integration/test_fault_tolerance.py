"""Planner degradation under injected faults: the graceful path.

The acceptance bar: with a seeded `FaultPlan` killing any single link,
every planner strategy completes a correct transpose (verified by the
run-level invariant checker that `transpose` applies to every run),
executing at most one fallback strategy.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.layout import DistributedMatrix
from repro.layout import partition as pt
from repro.machine import (
    EnsembleNetwork,
    DisconnectedCubeError,
    FaultPlan,
    LinkFault,
    LinkFailureError,
    NodeFailureError,
    NodeFault,
    custom_machine,
)
from repro.machine.params import PortModel
from repro.transpose import (
    TransposeInvariantError,
    check_transpose_invariants,
    routed_universal_transpose,
    schedule_links,
    transpose,
)

STRATEGIES = ("spt", "dpt", "mpt", "router", "auto")


def problem(p=3, half=1, seed=0):
    layout = pt.two_dim_cyclic(p, p, half, half)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((1 << p, 1 << p))
    return A, DistributedMatrix.from_global(A, layout), layout


class TestSingleLinkAcceptance:
    def test_every_link_every_strategy_completes(self):
        """Any single dead link, any strategy: correct, at most one run."""
        A, dm, layout = problem()
        n = layout.n
        for x in range(1 << n):
            for d in range(n):
                plan = FaultPlan.single_link(n, x, x ^ (1 << d))
                for algo in STRATEGIES:
                    net = EnsembleNetwork(custom_machine(n), faults=plan)
                    res = transpose(net, dm, layout, algorithm=algo)
                    assert res.verify_against(A), (x, d, algo)
                    # Proactive feasibility means the chosen tier never
                    # touches the dead resource: zero fault encounters,
                    # so exactly one strategy executed.
                    assert net.stats.fault_events == 0, (x, d, algo)

    def test_larger_cube_degrades_to_adjacent_tiers(self):
        """On a 4-cube a DPT-only dead link lets MPT degrade to SPT, not
        all the way to the router."""
        A, dm, layout = problem(p=4, half=2)
        n = layout.n
        dpt_only = sorted(schedule_links("dpt", n) - schedule_links("spt", n))
        assert dpt_only
        src, dst = dpt_only[0]
        net = EnsembleNetwork(
            custom_machine(n, port_model=PortModel.N_PORT),
            faults=FaultPlan.single_link(n, src, dst),
        )
        res = transpose(net, dm, layout, algorithm="mpt")
        assert res.algorithm == "spt"
        assert res.fallbacks == ("mpt", "dpt")
        assert res.verify_against(A)

    def test_spt_survives_kill_off_its_schedule(self):
        A, dm, layout = problem(p=4, half=2)
        n = layout.n
        off_spt = sorted(schedule_links("mpt", n) - schedule_links("spt", n))
        src, dst = off_spt[0]
        net = EnsembleNetwork(
            custom_machine(n), faults=FaultPlan.single_link(n, src, dst)
        )
        res = transpose(net, dm, layout, algorithm="spt")
        assert res.algorithm == "spt"  # untouched: no degradation
        assert not res.degraded
        assert res.recovery_overhead == 0.0
        assert res.verify_against(A)


class TestDegradationReporting:
    def test_clean_run_reports_no_degradation(self):
        A, dm, layout = problem()
        net = EnsembleNetwork(custom_machine(layout.n))
        res = transpose(net, dm, layout, algorithm="spt")
        assert res.requested == res.algorithm == "spt"
        assert res.fallbacks == ()
        assert res.recovery_overhead == 0.0
        assert not res.degraded

    def test_degraded_run_reports_ladder_and_overhead(self):
        A, dm, layout = problem()
        n = layout.n
        net = EnsembleNetwork(
            custom_machine(n), faults=FaultPlan.single_link(n, 0, 1)
        )
        res = transpose(net, dm, layout, algorithm="mpt")
        assert res.requested == "mpt"
        assert res.degraded
        assert res.algorithm not in res.fallbacks
        assert res.fallbacks[0] == "mpt"
        # Overhead is the faulted run vs a clean run of the request; it
        # is a real number either way (can be negative on one-port).
        assert isinstance(res.recovery_overhead, float)
        assert res.recovery_overhead != 0.0

    def test_degrade_false_fails_fast(self):
        A, dm, layout = problem()
        n = layout.n
        net = EnsembleNetwork(
            custom_machine(n), faults=FaultPlan.single_link(n, 0, 1)
        )
        with pytest.raises(LinkFailureError):
            transpose(net, dm, layout, algorithm="spt", degrade=False)

    def test_dead_node_is_undeliverable(self):
        A, dm, layout = problem()
        n = layout.n
        net = EnsembleNetwork(
            custom_machine(n),
            faults=FaultPlan(n, node_faults=(NodeFault(1),)),
        )
        with pytest.raises(NodeFailureError):
            transpose(net, dm, layout, algorithm="spt")

    def test_disconnected_cube_diagnosed_up_front(self):
        A, dm, layout = problem()
        n = layout.n
        plan = FaultPlan(
            n,
            tuple(
                LinkFault(a, b)
                for a, b in ((0, 1), (1, 0), (0, 2), (2, 0))
            ),
        )
        net = EnsembleNetwork(custom_machine(n), faults=plan)
        with pytest.raises(DisconnectedCubeError):
            transpose(net, dm, layout, algorithm="spt")


class TestReactiveFallback:
    def test_exchange_falls_back_to_universal_router(self):
        """All-to-all layouts cannot be pre-checked: the exchange run
        aborts on the fault and the planner retries once, routed."""
        p, q, n = 3, 3, 2
        layout = pt.row_consecutive(p, q, n)
        rng = np.random.default_rng(1)
        A = rng.standard_normal((1 << p, 1 << q))
        dm = DistributedMatrix.from_global(A, layout)
        net = EnsembleNetwork(
            custom_machine(n), faults=FaultPlan.single_link(n, 0, 1)
        )
        res = transpose(net, dm, pt.row_consecutive(q, p, n))
        assert res.requested == "exchange"
        assert res.algorithm == "routed-universal"
        assert res.fallbacks == ("exchange",)
        assert net.stats.fault_events >= 1  # the abort was a real fault
        assert res.verify_against(A)

    def test_mixed_encoding_falls_back(self):
        layout = pt.two_dim_mixed(
            4, 4, 2, 2, rows="cyclic", cols="cyclic", col_gray=True
        )
        rng = np.random.default_rng(2)
        A = rng.standard_normal((16, 16))
        dm = DistributedMatrix.from_global(A, layout)
        net = EnsembleNetwork(
            custom_machine(4), faults=FaultPlan.single_link(4, 0, 2)
        )
        res = transpose(net, dm, layout)
        assert res.requested == "mixed-combined"
        assert res.degraded
        assert res.verify_against(A)


class TestUniversalFallbackDirect:
    def test_pairwise_layout(self):
        A, dm, layout = problem()
        net = EnsembleNetwork(custom_machine(layout.n))
        out = routed_universal_transpose(net, dm, layout)
        assert np.array_equal(out.to_global(), A.T)
        assert net.total_elements() == 0

    def test_all_to_all_layout_with_fault(self):
        p, q, n = 3, 2, 2
        layout = pt.row_consecutive(p, q, n)
        rng = np.random.default_rng(3)
        A = rng.standard_normal((1 << p, 1 << q))
        dm = DistributedMatrix.from_global(A, layout)
        net = EnsembleNetwork(
            custom_machine(n), faults=FaultPlan.single_link(n, 1, 3)
        )
        out = routed_universal_transpose(net, dm, pt.row_consecutive(q, p, n))
        assert np.array_equal(out.to_global(), A.T)


class TestInvariantChecker:
    def test_accepts_a_correct_run(self):
        A, dm, layout = problem()
        net = EnsembleNetwork(custom_machine(layout.n))
        res = transpose(net, dm, layout)
        check_transpose_invariants(net, A, res.matrix)

    def test_rejects_wrong_placement(self):
        A, dm, layout = problem()
        net = EnsembleNetwork(custom_machine(layout.n))
        res = transpose(net, dm, layout)
        tampered = res.matrix.copy()
        tampered.local_data[0, 0] += 1.0
        with pytest.raises(TransposeInvariantError, match="placement"):
            check_transpose_invariants(net, A, tampered)

    def test_rejects_stranded_blocks(self):
        from repro.machine import Block

        A, dm, layout = problem()
        net = EnsembleNetwork(custom_machine(layout.n))
        res = transpose(net, dm, layout)
        net.place(0, Block("leak", virtual_size=7))
        with pytest.raises(TransposeInvariantError, match="stranded"):
            check_transpose_invariants(net, A, res.matrix)

    def test_rejects_lost_elements(self):
        A, dm, layout = problem()
        net = EnsembleNetwork(custom_machine(layout.n))
        res = transpose(net, dm, layout)
        with pytest.raises(TransposeInvariantError, match="conservation"):
            check_transpose_invariants(net, A[:4], res.matrix)


@settings(max_examples=25, deadline=None)
@given(
    half=st.integers(1, 2),
    p=st.integers(2, 4),
    seed=st.integers(0, 2**16),
    algo=st.sampled_from(STRATEGIES),
    link=st.integers(0, 2**30),
)
def test_property_single_fault_transpose(half, p, seed, algo, link):
    """Random layout/size/strategy/dead-link: conservation + placement."""
    if half > p:
        half = p
    n = 2 * half
    layout = pt.two_dim_cyclic(p, p, half, half)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((1 << p, 1 << p))
    dm = DistributedMatrix.from_global(A, layout)
    x = (link >> 8) % (1 << n)
    d = link % n
    plan = FaultPlan.single_link(n, x, x ^ (1 << d))
    net = EnsembleNetwork(custom_machine(n), faults=plan)
    res = transpose(net, dm, layout, algorithm=algo)
    assert res.matrix.total_elements == A.size
    assert net.total_elements() == 0
    assert res.verify_against(A)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    gray=st.booleans(),
    encode_seed=st.integers(0, 3),
)
def test_property_transient_storm(seed, gray, encode_seed):
    """Seeded transient link faults: the degraded run still lands A.T."""
    p, half = 3, 1
    n = 2 * half
    layout = pt.two_dim_cyclic(p, p, half, half, gray=gray)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((1 << p, 1 << p))
    dm = DistributedMatrix.from_global(A, layout)
    plan = FaultPlan.random(
        n, seed=seed + encode_seed, transient_rate=0.3, window=16
    )
    net = EnsembleNetwork(custom_machine(n), faults=plan)
    res = transpose(net, dm, layout)
    assert res.verify_against(A)
    assert net.total_elements() == 0
