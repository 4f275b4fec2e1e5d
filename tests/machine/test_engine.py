"""Tests for the phase-synchronous cube network engine."""

import numpy as np
import pytest

from repro.machine import (
    Block,
    EnsembleNetwork,
    LinkConflictError,
    Message,
    custom_machine,
)
from repro.machine.message import merge_messages
from repro.machine.params import PortModel


def make_network(n=3, **kw):
    return EnsembleNetwork(custom_machine(n, **kw))


class TestBlocks:
    def test_block_requires_payload_or_size(self):
        with pytest.raises(ValueError):
            Block("k")
        with pytest.raises(ValueError):
            Block("k", data=np.ones(3), virtual_size=3)

    def test_block_sizes(self):
        assert Block("k", data=np.ones((2, 3))).size == 6
        assert Block("k", virtual_size=17).size == 17
        assert Block("k", virtual_size=17).is_virtual

    def test_split_real_block(self):
        b = Block("k", data=np.arange(10))
        parts = b.split(3)
        assert [p.size for p in parts] == [4, 3, 3]
        assert np.concatenate([p.data for p in parts]).tolist() == list(range(10))
        assert [p.key for p in parts] == [("k", 0), ("k", 1), ("k", 2)]

    def test_split_virtual_block(self):
        parts = Block("k", virtual_size=10).split(4)
        assert [p.size for p in parts] == [3, 3, 2, 2]

    def test_message_validation(self):
        with pytest.raises(ValueError):
            Message(1, 1, ("k",))
        with pytest.raises(ValueError):
            Message(0, 1, ())

    def test_merge_messages(self):
        merged = merge_messages(
            [Message(0, 1, ("a",)), Message(0, 2, ("b",)), Message(0, 1, ("c",))]
        )
        assert merged == [Message(0, 1, ("a", "c")), Message(0, 2, ("b",))]


class TestPhaseExecution:
    def test_delivers_payload(self):
        net = make_network()
        net.place(0, Block("x", data=np.arange(4)))
        net.execute_phase([Message(0, 1, ("x",))])
        assert "x" in net.memory(1)
        assert "x" not in net.memory(0)
        assert net.memory(1).get("x").data.tolist() == [0, 1, 2, 3]

    def test_sending_unheld_block_fails(self):
        net = make_network()
        with pytest.raises(KeyError):
            net.execute_phase([Message(0, 1, ("ghost",))])

    def test_non_edge_rejected(self):
        net = make_network()
        net.place(0, Block("x", virtual_size=1))
        with pytest.raises(ValueError):
            net.execute_phase([Message(0, 3, ("x",))])

    def test_symmetric_exchange_in_one_phase(self):
        net = make_network()
        net.place(0, Block("a", virtual_size=5))
        net.place(1, Block("b", virtual_size=5))
        net.execute_phase([Message(0, 1, ("a",)), Message(1, 0, ("b",))])
        assert net.find_block("a") == 1
        assert net.find_block("b") == 0

    def test_link_conflict_raises_in_exclusive_mode(self):
        net = make_network()
        net.place(0, Block("a", virtual_size=1))
        net.place(0, Block("b", virtual_size=1))
        with pytest.raises(LinkConflictError):
            net.execute_phase(
                [Message(0, 1, ("a",)), Message(0, 1, ("b",))], exclusive=True
            )

    def test_shared_link_serializes_by_default(self):
        net = EnsembleNetwork(custom_machine(3, tau=1.0, t_c=1.0))
        net.place(0, Block("a", virtual_size=2))
        net.place(0, Block("b", virtual_size=2))
        duration = net.execute_phase([Message(0, 1, ("a",)), Message(0, 1, ("b",))])
        # Two messages serialize on the link: 2 * (1 + 2).
        assert duration == pytest.approx(6.0)

    def test_empty_phase_is_free(self):
        net = make_network()
        assert net.execute_phase([]) == 0.0
        assert net.time == 0.0


class TestTimeAccounting:
    def test_single_message_cost(self):
        net = make_network(tau=2.0, t_c=3.0, packet_capacity=10)
        net.place(0, Block("x", virtual_size=25))
        duration = net.execute_phase([Message(0, 1, ("x",))])
        # ceil(25/10)=3 startups + 25 transfers: 3*2 + 25*3 = 81.
        assert duration == pytest.approx(81.0)
        assert net.time == pytest.approx(81.0)
        assert net.stats.startups == 3
        assert net.stats.element_hops == 25

    def test_exchange_costs_one_send(self):
        """Bidirectional model: an exchange takes the time of one send."""
        net = make_network(tau=1.0, t_c=1.0)
        net.place(0, Block("a", virtual_size=4))
        net.place(1, Block("b", virtual_size=4))
        duration = net.execute_phase([Message(0, 1, ("a",)), Message(1, 0, ("b",))])
        assert duration == pytest.approx(5.0)

    def test_one_port_serializes_sends(self):
        net = make_network(tau=1.0, t_c=1.0)
        net.place(0, Block("a", virtual_size=4))
        net.place(0, Block("b", virtual_size=4))
        duration = net.execute_phase(
            [Message(0, 1, ("a",)), Message(0, 2, ("b",))]
        )
        assert duration == pytest.approx(10.0)

    def test_one_port_serializes_receives(self):
        net = make_network(tau=1.0, t_c=1.0)
        net.place(1, Block("a", virtual_size=4))
        net.place(2, Block("b", virtual_size=4))
        duration = net.execute_phase(
            [Message(1, 0, ("a",)), Message(2, 0, ("b",))]
        )
        assert duration == pytest.approx(10.0)

    def test_n_port_sends_concurrently(self):
        net = make_network(tau=1.0, t_c=1.0, port_model=PortModel.N_PORT)
        net.place(0, Block("a", virtual_size=4))
        net.place(0, Block("b", virtual_size=4))
        duration = net.execute_phase(
            [Message(0, 1, ("a",)), Message(0, 2, ("b",))]
        )
        assert duration == pytest.approx(5.0)

    def test_phase_time_is_system_maximum(self):
        net = make_network(tau=1.0, t_c=1.0)
        net.place(0, Block("a", virtual_size=1))
        net.place(2, Block("b", virtual_size=100))
        duration = net.execute_phase(
            [Message(0, 1, ("a",)), Message(2, 3, ("b",))]
        )
        assert duration == pytest.approx(101.0)

    def test_multi_block_message_packs_together(self):
        """One message of two blocks pays start-ups on the combined size."""
        net = make_network(tau=10.0, t_c=0.0, packet_capacity=8)
        net.place(0, Block("a", virtual_size=4))
        net.place(0, Block("b", virtual_size=4))
        duration = net.execute_phase([Message(0, 1, ("a", "b"))])
        assert duration == pytest.approx(10.0)  # one packet

    def test_local_charges(self):
        net = make_network(t_copy=0.5)
        d = net.charge_copy({0: 10, 1: 20})
        assert d == pytest.approx(10.0)  # max(5, 10)
        assert net.stats.copied_elements == 30
        assert net.stats.copy_time == pytest.approx(10.0)
        net.execute_local(3.0)
        assert net.time == pytest.approx(13.0)

    def test_stats_summary_runs(self):
        net = make_network()
        net.place(0, Block("x", virtual_size=1))
        net.execute_phase([Message(0, 1, ("x",))])
        assert "phases=1" in net.stats.summary()


class TestExchangeMessagesHelper:
    def test_builds_symmetric_messages(self):
        from repro.machine.engine import exchange_messages

        msgs = exchange_messages(
            [(0, 1), (2, 3)],
            {0: ["a"], 2: ["c"]},
            {1: ["b"], 3: ["d"]},
        )
        assert Message(0, 1, ("a",)) in msgs
        assert Message(1, 0, ("b",)) in msgs
        assert Message(2, 3, ("c",)) in msgs
        assert Message(3, 2, ("d",)) in msgs

    def test_pairs_normalized_and_one_sided(self):
        from repro.machine.engine import exchange_messages

        # Pair given high-to-low; only the high side has data (virtual
        # elements need not be communicated, §5).
        msgs = exchange_messages([(3, 2)], {}, {3: ["x"]})
        assert msgs == [Message(3, 2, ("x",))]

    def test_empty_sides_skipped(self):
        from repro.machine.engine import exchange_messages

        assert exchange_messages([(0, 1)], {}, {}) == []
