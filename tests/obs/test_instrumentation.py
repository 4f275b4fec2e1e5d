"""The instrumentation hub: observer conformance, spans, the null path."""

import pytest

from repro.layout import partition as pt
from repro.machine.engine import EnsembleNetwork
from repro.machine.presets import connection_machine, intel_ipsc
from repro.machine.trace import TraceRecorder
from repro.obs import (
    NULL_INSTRUMENTATION,
    Instrumentation,
    instrumentation_of,
)
from repro.plans.cache import PlanCache
from repro.plans.recorder import capture_transpose, synthetic_matrix
from repro.transpose.planner import transpose


class _CallLog:
    """A sink implementing the full observer surface, logging calls."""

    def __init__(self):
        self.calls = []

    def on_phase(self, transfers, duration):
        self.calls.append(("on_phase", len(transfers), duration))

    def on_local(self, elements, duration):
        self.calls.append(("on_local", elements, duration))

    def on_fault(self, src, dst, phase, kind):
        self.calls.append(("on_fault", src, dst, phase, kind))

    def on_cache(self, key, event):
        self.calls.append(("on_cache", event))

    def on_span(self, span):
        self.calls.append(("on_span", span.name))

    def on_event(self, event):
        self.calls.append(("on_event", event.name))


class _PhaseOnly:
    """A sink with a partial surface: only ``on_phase``."""

    def __init__(self):
        self.phases = 0

    def on_phase(self, transfers, duration):
        self.phases += 1


class TestConformance:
    """Every emission point reaches every sink that declares its hook."""

    def test_engine_phases_reach_sinks(self):
        log, partial = _CallLog(), _PhaseOnly()
        hub = Instrumentation(log, partial)
        net = EnsembleNetwork(connection_machine(2))
        hub.attach(net)
        assert net.observer is hub
        net.place(0, _block("b", 4))
        from repro.machine.message import Message

        net.execute_phase([Message(0, 1, ("b",))])
        assert ("on_phase", 1, pytest.approx(net.stats.time)) in log.calls
        assert partial.phases == 1

    def test_local_charges_reach_sinks(self):
        log = _CallLog()
        hub = Instrumentation(log)
        net = EnsembleNetwork(connection_machine(2))
        hub.attach(net)
        net.execute_local(0.5, 16)
        assert any(c[0] == "on_local" and c[1] == 16 for c in log.calls)

    def test_fault_hook_fans_out_and_annotates_open_spans(self):
        log = _CallLog()
        hub = Instrumentation(log)
        with hub.span("outer") as outer:
            hub.on_fault(0, 1, 3, "link")
        assert ("on_fault", 0, 1, 3, "link") in log.calls
        assert outer.attrs["faults"] == 1
        assert hub.metrics.counter("fault_encounters", kind="link").value == 1
        assert [e.name for e in hub.events] == ["fault"]

    def test_cache_hook_fans_out(self):
        log = _CallLog()
        hub = Instrumentation(log)
        cache = PlanCache(observer=hub)
        key = "k" * 40
        assert cache.get(key) is None
        assert ("on_cache", "miss") in log.calls
        assert (
            hub.metrics.counter("plan_cache_events", event="miss").value == 1
        )

    def test_trace_recorder_works_as_sink(self):
        recorder = TraceRecorder()
        hub = Instrumentation(recorder)
        net = EnsembleNetwork(connection_machine(2))
        hub.attach(net)
        net.execute_local(0.25, 4)
        assert len(recorder.events) == 1
        assert recorder.events[0].kind == "local"

    def test_sink_without_hooks_is_ignored(self):
        hub = Instrumentation(object())
        hub.on_phase([], 0.0)  # must not raise
        hub.event("x")


class TestSpans:
    def test_nesting_and_clock(self):
        hub = Instrumentation()
        with hub.span("outer", category="run"):
            hub.on_phase([(0, 1, 8)], 0.5)
            with hub.span("inner", category="algorithm"):
                hub.on_phase([(1, 0, 8)], 0.25)
        by_name = {s.name: s for s in hub.spans}
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["outer"].start == 0.0
        assert by_name["outer"].end == 0.75
        assert by_name["inner"].start == 0.5
        # Two synthesized phase leaves, parented to the open span.
        phases = [s for s in hub.spans if s.category == "phase"]
        assert [p.parent_id for p in phases] == [
            by_name["outer"].span_id,
            by_name["inner"].span_id,
        ]

    def test_exception_closes_span_with_error_attr(self):
        hub = Instrumentation()
        with pytest.raises(RuntimeError):
            with hub.span("boom"):
                raise RuntimeError("x")
        assert hub.spans[0].attrs["error"] == "RuntimeError"
        assert hub.current_span() is None

    def test_current_algorithm_tracks_innermost(self):
        hub = Instrumentation()
        assert hub.current_algorithm() is None
        with hub.span("transpose", category="run"):
            with hub.span("mpt", category="algorithm"):
                assert hub.current_algorithm() == "mpt"

    def test_phase_spans_can_be_disabled(self):
        hub = Instrumentation(phase_spans=False)
        hub.on_phase([(0, 1, 4)], 0.5)
        assert hub.spans == []
        assert hub.clock == 0.5


class TestNullPath:
    def test_unobserved_network_yields_shared_null(self):
        net = EnsembleNetwork(connection_machine(2))
        assert instrumentation_of(net) is NULL_INSTRUMENTATION
        # Same shared span object every time: no per-call allocation.
        a = NULL_INSTRUMENTATION.span("x", whatever=1)
        b = NULL_INSTRUMENTATION.span("y")
        assert a is b
        with a as span:
            span.annotate(ignored=True)
            span.count("ignored")

    def test_foreign_observer_keeps_null_span_path(self):
        net = EnsembleNetwork(connection_machine(2))
        net.observer = TraceRecorder()
        assert instrumentation_of(net) is NULL_INSTRUMENTATION


class TestEmissionPoints:
    """The planner/exchange/replay layers emit the documented span tree."""

    def test_planner_run_wraps_algorithm_wraps_phases(self):
        hub = Instrumentation()
        net = EnsembleNetwork(connection_machine(4))
        hub.attach(net)
        layout = pt.two_dim_cyclic(2, 2, 2, 2)
        result = transpose(net, synthetic_matrix(layout), algorithm="mpt")
        assert result.algorithm == "mpt"
        roots = hub.roots()
        assert [s.name for s in roots] == ["transpose"]
        run = roots[0]
        assert run.category == "run"
        assert run.attrs["algorithm"] == "mpt"
        tree = hub.span_tree()
        algos = [
            s for s in tree[run.span_id] if s.category == "algorithm"
        ]
        assert [a.name for a in algos] == ["mpt"]
        descendants = _descendants(tree, algos[0].span_id)
        assert any(s.category == "phase" for s in descendants)

    def test_exchange_sequence_spans(self):
        hub = Instrumentation()
        net = EnsembleNetwork(intel_ipsc(4))
        hub.attach(net)
        layout = pt.row_consecutive(4, 4, 4)
        transpose(net, synthetic_matrix(layout), algorithm="exchange")
        names = {s.category for s in hub.spans}
        assert "sequence" in names
        assert "exchange" in names

    def test_capture_with_observer_traces_the_planning_run(self):
        hub = Instrumentation()
        layout = pt.two_dim_cyclic(2, 2, 2, 2)
        _, plan = capture_transpose(
            connection_machine(4),
            synthetic_matrix(layout),
            algorithm="mpt",
            observer=hub,
        )
        assert plan.algorithm == "mpt"
        assert [s.name for s in hub.roots()] == ["transpose"]


def _descendants(tree, span_id):
    out = []
    for child in tree.get(span_id, []):
        out.append(child)
        out.extend(_descendants(tree, child.span_id))
    return out


def _block(key, size):
    from repro.machine.message import Block

    return Block(key, virtual_size=size)
