"""Tests for the fault-injection subsystem: plans and engine enforcement."""

import numpy as np
import pytest

from repro.machine import (
    Block,
    EnsembleNetwork,
    FaultKind,
    FaultPlan,
    LinkFailureError,
    LinkFault,
    Message,
    NodeFailureError,
    NodeFault,
    TraceRecorder,
    custom_machine,
)


class TestFaultDescriptions:
    def test_link_fault_requires_cube_edge(self):
        # Edge validation lives in FaultPlan (which knows the topology):
        # the same (0, 3) is a torus ring link but not a cube edge.
        with pytest.raises(ValueError, match="not a cube edge"):
            FaultPlan(4, (LinkFault(0, 3),))  # Hamming distance 2

    def test_activity_window(self):
        f = LinkFault(0, 1, start=2, end=5)
        assert not f.active(1)
        assert f.active(2)
        assert f.active(4)
        assert not f.active(5)
        assert f.kind is FaultKind.TRANSIENT

    def test_permanent_is_active_forever(self):
        f = NodeFault(3)
        assert f.active(0) and f.active(10**9)
        assert f.kind is FaultKind.PERMANENT

    def test_degenerate_window_rejected(self):
        with pytest.raises(ValueError):
            LinkFault(0, 1, start=4, end=4)
        with pytest.raises(ValueError):
            NodeFault(0, start=-1)


class TestFaultPlan:
    def test_single_link(self):
        plan = FaultPlan.single_link(3, 0, 4)
        assert plan.link_fault(0, 4, 0) is not None
        assert plan.link_fault(4, 0, 0) is None  # directed
        assert plan.faulted_links_ever() == {(0, 4)}
        assert not plan.is_empty

    def test_out_of_cube_faults_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(1, (LinkFault(2, 3),))
        with pytest.raises(ValueError):
            FaultPlan(1, node_faults=(NodeFault(5),))

    def test_random_is_deterministic(self):
        a = FaultPlan.random(4, seed=11, link_rate=0.1, transient_rate=0.1)
        b = FaultPlan.random(4, seed=11, link_rate=0.1, transient_rate=0.1)
        assert a.link_faults == b.link_faults
        c = FaultPlan.random(4, seed=12, link_rate=0.1, transient_rate=0.1)
        assert a.link_faults != c.link_faults

    def test_from_spec(self):
        plan = FaultPlan.from_spec(3, "seed=7,nodes=3+5,links=0-1+6-4")
        assert plan.faulted_nodes_ever() == {3, 5}
        assert {(0, 1), (6, 4)} <= plan.faulted_links_ever()
        assert plan.seed == 7

    def test_from_spec_rejects_garbage(self):
        with pytest.raises(ValueError):
            FaultPlan.from_spec(3, "nonsense")
        with pytest.raises(ValueError):
            FaultPlan.from_spec(3, "bogus_key=1")

    def test_last_transient_phase(self):
        plan = FaultPlan(
            2, (LinkFault(0, 1), LinkFault(0, 2, start=1, end=9))
        )
        assert plan.last_transient_phase() == 9
        assert FaultPlan.single_link(2, 0, 1).last_transient_phase() == -1

    def test_surviving_connected(self):
        assert FaultPlan(2).surviving_connected()
        # One dead directed link: the reverse and the long way remain.
        assert FaultPlan.single_link(2, 0, 1).surviving_connected()
        # All four directed links of node 0: it is cut off.
        iso = FaultPlan(
            2,
            tuple(
                LinkFault(a, b)
                for a, b in ((0, 1), (1, 0), (0, 2), (2, 0))
            ),
        )
        assert not iso.surviving_connected()
        # A dead *node* does not disconnect the others.
        assert FaultPlan(2, node_faults=(NodeFault(0),)).surviving_connected()

    def test_describe_counts(self):
        plan = FaultPlan(
            2,
            (LinkFault(0, 1), LinkFault(0, 2, 0, 4)),
            (NodeFault(3),),
            seed=5,
        )
        text = plan.describe()
        assert "1 permanent + 1 transient link" in text
        assert "1 permanent + 0 transient node" in text
        assert "seed=5" in text


class TestEngineEnforcement:
    def make(self, plan, n=2):
        return EnsembleNetwork(custom_machine(n), faults=plan)

    def test_plan_dimension_must_match(self):
        with pytest.raises(ValueError):
            EnsembleNetwork(custom_machine(3), faults=FaultPlan(2))

    def test_faulted_link_delivery_raises_and_preserves_memory(self):
        net = self.make(FaultPlan.single_link(2, 0, 1))
        net.place(0, Block("a", data=np.arange(4)))
        with pytest.raises(LinkFailureError) as err:
            net.execute_phase([Message(0, 1, ("a",))])
        assert (err.value.src, err.value.dst) == (0, 1)
        assert net.find_block("a") == 0  # nothing moved
        assert net.stats.link_fault_events == 1
        assert net.stats.phases == 0  # the aborted phase was not charged

    def test_reverse_direction_still_works(self):
        net = self.make(FaultPlan.single_link(2, 0, 1))
        net.place(1, Block("a", virtual_size=4))
        net.execute_phase([Message(1, 0, ("a",))])
        assert net.find_block("a") == 0

    def test_faulted_node_blocks_send_and_receive(self):
        plan = FaultPlan(2, node_faults=(NodeFault(1),))
        net = self.make(plan)
        net.place(1, Block("a", virtual_size=2))
        with pytest.raises(NodeFailureError):
            net.execute_phase([Message(1, 3, ("a",))])
        net2 = self.make(plan)
        net2.place(0, Block("b", virtual_size=2))
        with pytest.raises(NodeFailureError):
            net2.execute_phase([Message(0, 1, ("b",))])
        assert net2.stats.node_fault_events == 1

    def test_transient_fault_heals_with_the_phase_clock(self):
        plan = FaultPlan(2, (LinkFault(0, 1, start=0, end=2),))
        net = self.make(plan)
        net.place(0, Block("a", virtual_size=2))
        with pytest.raises(LinkFailureError):
            net.execute_phase([Message(0, 1, ("a",))])
        net.idle_phase()
        net.idle_phase()
        assert net.phase_index == 2  # the fault window [0, 2) has passed
        net.execute_phase([Message(0, 1, ("a",))])
        assert net.find_block("a") == 1

    def test_observer_sees_fault_events(self):
        net = self.make(FaultPlan.single_link(2, 2, 3))
        net.observer = rec = TraceRecorder()
        net.place(2, Block("a", virtual_size=2))
        with pytest.raises(LinkFailureError):
            net.execute_phase([Message(2, 3, ("a",))])
        assert len(rec.fault_events) == 1
        event = rec.fault_events[0]
        assert event.transfers == ((2, 3, 0),)
        assert "link@phase0" in event.detail

    def test_idle_phase_is_free_but_counted(self):
        net = EnsembleNetwork(custom_machine(2))
        assert net.idle_phase() == 0.0
        assert net.phase_index == 1
        assert net.time == 0.0


class TestExecuteLocalElements:
    def test_scalar_elements_recorded(self):
        net = EnsembleNetwork(custom_machine(2))
        net.execute_local(1.5, 64)
        assert net.stats.copied_elements == 64
        assert net.stats.copy_time == pytest.approx(1.5)

    def test_mapping_elements_summed(self):
        net = EnsembleNetwork(custom_machine(2))
        net.execute_local({0: 1.0, 1: 2.0}, {0: 10, 1: 30})
        assert net.stats.copied_elements == 40
        assert net.stats.copy_time == pytest.approx(2.0)

    def test_default_remains_zero(self):
        net = EnsembleNetwork(custom_machine(2))
        net.execute_local(1.0)
        assert net.stats.copied_elements == 0

    def test_negative_counts_rejected(self):
        net = EnsembleNetwork(custom_machine(2))
        with pytest.raises(ValueError):
            net.execute_local(1.0, -3)


class TestDuplicateKeyHardening:
    def test_same_key_twice_from_one_node_is_a_clear_error(self):
        net = EnsembleNetwork(custom_machine(2))
        net.place(0, Block("a", virtual_size=2))
        with pytest.raises(ValueError, match="'a' at node 0"):
            net.execute_phase(
                [Message(0, 1, ("a",)), Message(0, 2, ("a",))]
            )
        assert net.find_block("a") == 0  # aborted before any pop

    def test_error_names_both_messages(self):
        net = EnsembleNetwork(custom_machine(2))
        net.place(0, Block("k", virtual_size=2))
        with pytest.raises(ValueError, match=r"0->1 and 0->2"):
            net.execute_phase(
                [Message(0, 1, ("k",)), Message(0, 2, ("k",))]
            )

    def test_same_key_at_different_nodes_is_fine(self):
        net = EnsembleNetwork(custom_machine(2))
        net.place(0, Block("a", virtual_size=2))
        net.place(3, Block("a", virtual_size=2))
        net.execute_phase([Message(0, 1, ("a",)), Message(3, 2, ("a",))])
        assert net.memory(1).get("a") is not None
        assert net.memory(2).get("a") is not None


class TestStatsFaultCounters:
    def test_merge_carries_fault_counters(self):
        from repro.machine.metrics import TransferStats

        a = TransferStats()
        a.record_fault(node=False)
        a.record_retry()
        b = TransferStats()
        b.record_fault(node=True)
        b.record_detour()
        b.record_stall()
        a.merge(b)
        assert a.link_fault_events == 1
        assert a.node_fault_events == 1
        assert a.fault_events == 2
        assert a.retries == 1
        assert a.detour_hops == 1
        assert a.stall_phases == 1

    def test_summary_mentions_faults_only_when_present(self):
        from repro.machine.metrics import TransferStats

        clean = TransferStats()
        assert "faults" not in clean.summary()
        clean.record_fault(node=False)
        assert "faults=1" in clean.summary()
