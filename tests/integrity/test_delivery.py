"""The ARQ delivery path on a live network: detect, retransmit, quarantine."""

import numpy as np
import pytest

from repro.integrity import (
    CorruptedDeliveryError,
    IntegrityConfig,
    IntegrityManager,
    LinkQuarantinedError,
)
from repro.machine import Block, EnsembleNetwork, Message, custom_machine
from repro.machine.faults import CorruptionFault, FaultPlan


def corrupted_net(fault: CorruptionFault, n=2, config=None):
    faults = FaultPlan(n=n, corruption_faults=(fault,))
    integrity = IntegrityManager(config) if config is not None else None
    return EnsembleNetwork(custom_machine(n), faults=faults, integrity=integrity)


class TestIntegrityConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="retransmit budget"):
            IntegrityConfig(retransmit_budget=-1)
        with pytest.raises(ValueError, match="quarantine threshold"):
            IntegrityConfig(quarantine_after=0)
        with pytest.raises(ValueError, match="checksum time"):
            IntegrityConfig(checksum_time_per_element=-1.0)


class TestAutoArming:
    def test_corruption_faults_arm_integrity(self):
        net = corrupted_net(CorruptionFault(0, 1))
        assert net.integrity is not None

    def test_plain_network_has_no_integrity(self):
        assert EnsembleNetwork(custom_machine(2)).integrity is None

    def test_failstop_faults_alone_do_not_arm(self):
        faults = FaultPlan.from_spec(2, "links=0-1")
        assert EnsembleNetwork(custom_machine(2), faults=faults).integrity is None


class TestCleanDelivery:
    def test_armed_null_path_only_counts_overhead(self):
        net = EnsembleNetwork(custom_machine(2), integrity=IntegrityManager())
        net.place(0, Block("a", data=np.arange(8.0)))
        net.execute_phase([Message(0, 1, ["a"])])
        stats = net.stats
        assert stats.integrity_checksum_overhead == 8
        assert stats.integrity_corrupted_deliveries == 0
        assert stats.integrity_retransmits == 0
        assert stats.integrity_quarantined_links == 0
        assert np.array_equal(net.memories[1].get("a").data, np.arange(8.0))

    def test_checksum_time_is_priced_when_configured(self):
        free = EnsembleNetwork(custom_machine(2), integrity=IntegrityManager())
        paid = EnsembleNetwork(
            custom_machine(2),
            integrity=IntegrityManager(
                IntegrityConfig(checksum_time_per_element=0.5)
            ),
        )
        for net in (free, paid):
            net.place(0, Block("a", virtual_size=8))
            net.execute_phase([Message(0, 1, ["a"])])
        assert paid.stats.time == free.stats.time + 0.5 * 8


class TestRetransmission:
    def test_intermittent_corruption_is_retransmitted_to_success(self):
        # seed=2 strikes the first transmission at phase 0 but the
        # retransmission draw comes up clean within the budget.
        fault = CorruptionFault(0, 1, rate=0.5, seed=2)
        net = corrupted_net(fault)
        net.place(0, Block("a", data=np.arange(4.0)))
        net.execute_phase([Message(0, 1, ["a"])])
        stats = net.stats
        assert stats.integrity_corrupted_deliveries >= 1
        assert stats.integrity_retransmits == (
            stats.integrity_corrupted_deliveries
        )
        assert stats.integrity_quarantined_links == 0
        assert np.array_equal(net.memories[1].get("a").data, np.arange(4.0))

    def test_retransmissions_are_priced_into_the_phase(self):
        fault = CorruptionFault(0, 1, rate=0.5, seed=2)
        net = corrupted_net(fault)
        clean = EnsembleNetwork(custom_machine(2))
        for n in (net, clean):
            n.place(0, Block("a", virtual_size=4))
            n.execute_phase([Message(0, 1, ["a"])])
        retries = net.stats.integrity_retransmits
        assert retries >= 1
        assert net.stats.time > clean.stats.time

    def test_budget_exhaustion_quarantines_and_raises(self):
        net = corrupted_net(CorruptionFault(0, 1))  # rate=1.0: every draw
        net.place(0, Block("a", data=np.arange(4.0)))
        with pytest.raises(CorruptedDeliveryError) as exc:
            net.execute_phase([Message(0, 1, ["a"])])
        assert (exc.value.src, exc.value.dst) == (0, 1)
        assert exc.value.attempts == 4  # initial send + default budget 3
        assert net.integrity.is_quarantined(0, 1)
        assert net.stats.integrity_quarantined_links == 1
        # The phase aborted before any movement: memories are untouched.
        assert net.memories[0].get("a").size == 4
        assert "a" not in net.memories[1]

    def test_zero_budget_escalates_on_first_strike(self):
        net = corrupted_net(
            CorruptionFault(0, 1),
            config=IntegrityConfig(retransmit_budget=0),
        )
        net.place(0, Block("a", virtual_size=4))
        with pytest.raises(CorruptedDeliveryError) as exc:
            net.execute_phase([Message(0, 1, ["a"])])
        assert exc.value.attempts == 1
        assert net.stats.integrity_retransmits == 0


class TestQuarantine:
    def test_quarantined_link_is_refused_next_phase(self):
        net = corrupted_net(CorruptionFault(0, 1, end=1))
        net.place(0, Block("a", virtual_size=4))
        with pytest.raises(CorruptedDeliveryError):
            net.execute_phase([Message(0, 1, ["a"])])
        # The fault window is over, but the link is dead for good.
        with pytest.raises(LinkQuarantinedError):
            net.execute_phase([Message(0, 1, ["a"])])
        # Other links still work.
        net.execute_phase([Message(0, 2, ["a"])])
        assert net.memories[2].get("a").size == 4

    def test_repeat_offender_is_quarantined_despite_succeeding(self):
        # Every phase: first transmission struck, retransmission clean.
        # After quarantine_after such deliveries the link is retired even
        # though every payload eventually arrived intact.
        fault = CorruptionFault(0, 1, rate=0.5, seed=0)
        net = corrupted_net(
            fault, config=IntegrityConfig(quarantine_after=2)
        )
        phase = 0
        while not net.integrity.has_quarantined:
            assert phase < 64, "quarantine threshold never reached"
            key = f"b{phase}"
            net.place(0, Block(key, virtual_size=2))
            net.execute_phase([Message(0, 1, [key])])
            assert net.memories[1].get(key).size == 2  # delivered clean
            phase += 1
        assert net.integrity.quarantined_links() == frozenset({(0, 1)})
        assert net.stats.integrity_corrupted_deliveries >= 2

    def test_quarantine_feeds_reporting(self):
        net = corrupted_net(CorruptionFault(0, 1))
        net.place(0, Block("a", virtual_size=4))
        with pytest.raises(CorruptedDeliveryError):
            net.execute_phase([Message(0, 1, ["a"])])
        doc = net.integrity.as_dict()
        assert doc["quarantined"] == ["0->1"]
        assert doc["links"]["0->1"]["quarantined"] is True
        assert "quarantined=1" in net.stats.summary()
