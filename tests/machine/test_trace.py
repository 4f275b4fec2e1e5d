"""Tests for the execution trace recorder."""

import numpy as np
import pytest

from repro.layout import DistributedMatrix
from repro.layout import partition as pt
from repro.machine import Block, EnsembleNetwork, Message, TraceRecorder, custom_machine
from repro.transpose.two_dim import two_dim_transpose_spt


class TestTraceRecorder:
    def test_records_phases(self):
        net = EnsembleNetwork(custom_machine(2, tau=1.0, t_c=1.0))
        rec = TraceRecorder()
        net.observer = rec
        net.place(0, Block("a", virtual_size=3))
        net.execute_phase([Message(0, 1, ("a",))])
        assert len(rec.events) == 1
        e = rec.events[0]
        assert e.kind == "comm"
        assert e.transfers == ((0, 1, 3),)
        assert e.duration == pytest.approx(4.0)
        assert e.dimensions == (0,)
        assert e.total_elements == 3

    def test_records_local_work(self):
        net = EnsembleNetwork(custom_machine(2, t_copy=1.0))
        rec = TraceRecorder()
        net.observer = rec
        net.charge_copy({0: 5})
        net.execute_local(2.0)
        kinds = [e.kind for e in rec.events]
        assert kinds == ["local", "local"]

    def test_spt_trace_structure(self):
        """The step-by-step SPT trace shows each dimension in turn."""
        layout = pt.two_dim_cyclic(3, 3, 1, 1)
        A = np.arange(64, dtype=np.float64).reshape(8, 8)
        net = EnsembleNetwork(custom_machine(2))
        rec = TraceRecorder()
        net.observer = rec
        two_dim_transpose_spt(
            net, DistributedMatrix.from_global(A, layout), layout
        )
        comm = rec.comm_events
        assert len(comm) == 2  # two hops of the single (u0, v0) pair
        # Each hop uses exactly one dimension, and the two differ.
        assert all(len(e.dimensions) == 1 for e in comm)
        assert comm[0].dimensions != comm[1].dimensions

    def test_dimension_histogram(self):
        layout = pt.row_consecutive(3, 3, 2)
        from repro.transpose.one_dim import one_dim_transpose_exchange

        net = EnsembleNetwork(custom_machine(2))
        rec = TraceRecorder()
        net.observer = rec
        dm = DistributedMatrix.iota(layout).copy()
        dm.local_data = dm.local_data.astype(np.float64)
        one_dim_transpose_exchange(net, dm, pt.row_consecutive(3, 3, 2))
        hist = rec.dimension_histogram()
        assert set(hist) == {0, 1}  # both cube dimensions carried data
        assert sum(hist.values()) == net.stats.element_hops

    def test_busiest_phase_and_render(self):
        net = EnsembleNetwork(custom_machine(2, tau=1.0, t_c=1.0))
        rec = TraceRecorder()
        net.observer = rec
        net.place(0, Block("a", virtual_size=1))
        net.place(1, Block("b", virtual_size=50))
        net.execute_phase([Message(0, 1, ("a",))])
        net.execute_phase([Message(1, 3, ("b",))])
        assert rec.busiest_phase().index == 1
        text = rec.render()
        assert "phase" in text
        # header + two events + totals footer
        assert len(text.splitlines()) == 4
        assert text.splitlines()[-1].startswith("total")

    def test_busiest_requires_events(self):
        with pytest.raises(ValueError):
            TraceRecorder().busiest_phase()

    def test_render_truncation(self):
        net = EnsembleNetwork(custom_machine(1, tau=1.0, t_c=0.0))
        rec = TraceRecorder()
        net.observer = rec
        for i in range(6):
            net.place(0, Block(("x", i), virtual_size=1))
            net.execute_phase([Message(0, 1, (("x", i),))])
            net.place(1, Block(("y", i), virtual_size=1))
            net.execute_phase([Message(1, 0, (("y", i),))])
        text = rec.render(max_phases=4)
        assert "more" in text
        # The footer still accounts for every event past the truncation.
        footer = text.splitlines()[-1]
        assert footer.startswith("total")
        assert f"{len(rec.events)} event(s)" in footer
        assert f"{sum(e.total_elements for e in rec.events)} elements" in footer

    def test_local_events_have_no_synthetic_transfers(self):
        """on_local must not fabricate (0, 0, n) self-loop transfers."""
        net = EnsembleNetwork(custom_machine(2, t_copy=1.0))
        rec = TraceRecorder()
        net.observer = rec
        net.charge_copy({0: 7})
        (event,) = rec.events
        assert event.kind == "local"
        assert event.transfers == ()
        assert event.elements == 7
        assert event.total_elements == 7
        assert event.dimensions == ()  # no dimension_of_edge(0, 0) blow-up
        assert rec.dimension_histogram() == {}
