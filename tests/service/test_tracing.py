"""End-to-end request tracing: propagation, flight dumps, properties.

The tentpole invariant of the tracing layer: every completed request is
one well-formed trace tree — a single ``trace_id`` on every span it
produced, on both the model-time and wall-clock axes, confined to the
worker that executed it — and requests that end badly leave a flight
dump naming themselves.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.metrics import TransferStats
from repro.obs import spans_from_chrome_document, validate_trace
from repro.plans.batch import BatchRequest
from repro.service import (
    LoadSpec,
    ServerConfig,
    TransposeRequest,
    TransposeServer,
    run_loadgen,
)
from repro.service.request import stats_fingerprint


def request(rid=0, tenant="t0", deadline=None, **problem):
    problem.setdefault("elements", 256)
    problem.setdefault("n", 4)
    problem.setdefault("machine", "cm")
    return TransposeRequest(
        tenant=tenant,
        problem=BatchRequest(**problem),
        deadline=deadline,
        request_id=rid,
    )


class TestTracePropagation:
    def test_every_outcome_carries_a_distinct_trace_id(self):
        reqs = [request(rid, tenant=f"t{rid % 2}") for rid in range(6)]
        with TransposeServer(ServerConfig(workers=2, trace=True)) as server:
            outcomes = [
                p.result(timeout=30.0)
                for p in [server.submit(r) for r in reqs]
            ]
        ids = [o.trace_id for o in outcomes]
        assert all(ids)
        assert len(set(ids)) == len(reqs)
        assert all(i.startswith("req-") for i in ids)

    def test_outcome_dict_and_json_envelope_carry_the_trace_id(self):
        with TransposeServer(ServerConfig(workers=1, trace=True)) as server:
            outcome = server.submit(request(0)).result(timeout=30.0)
        doc = outcome.as_dict()
        assert doc["trace_id"] == outcome.trace_id != ""
        report = server.report().as_dict(with_outcomes=True)
        assert report["outcomes"][0]["trace_id"] == outcome.trace_id
        json.dumps(report)

    def test_untraced_server_leaves_no_trace_ids(self):
        with TransposeServer(ServerConfig(workers=1)) as server:
            outcome = server.submit(request(0)).result(timeout=30.0)
        assert outcome.trace_id == ""
        # An untraced worker hub keeps no span list, so the document
        # has worker tracks but no spans on them.
        tracks = spans_from_chrome_document(server.trace_document())
        assert [s for _, track in tracks for s in track] == []
        # The bounded flight ring still sees the bare service span: no
        # trace id, no wall axis, no request tree.
        records = [r for w in server.workers for r in w.flight.records()]
        spans = [r for r in records if r["kind"] == "span"]
        assert "serve" in [r["name"] for r in spans]
        assert all(r.get("trace_id") is None for r in spans)
        assert all(r.get("wall_start") is None for r in spans)
        assert all(r["name"] != "request" for r in spans)

    def test_merged_document_is_well_formed_across_workers(self):
        reqs = [request(rid, tenant=f"t{rid % 3}") for rid in range(8)]
        with TransposeServer(ServerConfig(workers=2, trace=True)) as server:
            outcomes = [
                p.result(timeout=30.0)
                for p in [server.submit(r) for r in reqs]
            ]
        doc = server.trace_document()
        tracks = spans_from_chrome_document(doc)
        assert validate_trace(tracks) == []
        spans = [s for _, track in tracks for s in track]
        seen = {s.trace_id for s in spans if s.trace_id}
        assert seen == {o.trace_id for o in outcomes}
        # Dual axis: every span in a traced serve carries both intervals.
        assert all(s.wall_start is not None for s in spans)
        # The documented stage spans appear under every request root.
        roots = [s for s in spans if s.name == "request"]
        assert len(roots) == len(reqs)
        names = {s.name for s in spans}
        assert {"admission", "queue-wait", "plan-resolve",
                "execute"} <= names

    def test_wall_axis_orders_admission_queue_execute(self):
        with TransposeServer(ServerConfig(workers=1, trace=True)) as server:
            server.submit(request(0)).result(timeout=30.0)
        (_, spans), = spans_from_chrome_document(server.trace_document())
        stage = {s.name: s for s in spans}
        assert stage["admission"].wall_end <= stage["queue-wait"].wall_start
        assert (stage["queue-wait"].wall_end
                <= stage["execute"].wall_end)
        root = stage["request"]
        for name in ("admission", "queue-wait", "plan-resolve", "execute"):
            assert stage[name].wall_start >= root.wall_start
            assert stage[name].wall_end <= root.wall_end

    def test_tracing_does_not_change_the_served_fingerprint(self):
        req = request(0)
        with TransposeServer(ServerConfig(workers=1)) as server:
            plain = server.submit(request(0)).result(timeout=30.0)
        with TransposeServer(ServerConfig(workers=1, trace=True)) as server:
            traced = server.submit(req).result(timeout=30.0)
        assert traced.fingerprint == plain.fingerprint


class TestFlightDumps:
    def test_deadline_miss_dumps_a_flight_report_naming_the_request(self):
        state = {"now": 0.0}
        config = ServerConfig(workers=1, trace=True)
        server = TransposeServer(config, clock=lambda: state["now"])
        pending = server.submit(request(5, deadline=0.5))
        state["now"] = 1.0  # expires while queued
        server.start()
        outcome = pending.result(timeout=30.0)
        server.stop()
        assert outcome.status == "deadline_missed"
        report = server.report()
        assert len(report.flight_reports) == 1
        dump = report.flight_reports[0]
        assert dump["context"]["request_id"] == 5
        assert dump["context"]["trace_id"] == outcome.trace_id
        assert dump["context"]["status"] == "deadline_missed"
        assert dump["context"]["worker"] == 0
        json.dumps(dump)  # must be artifact-serializable

    def test_fault_storm_leaves_flight_dumps_in_the_report(self):
        spec = LoadSpec(seed=11, tenants=2, requests=16, shapes=2,
                        fault_rate=0.5)
        report = run_loadgen(spec, ServerConfig(workers=2))
        dumps = report.server.flight_reports
        assert dumps, "escalated recoveries must leave flight dumps"
        for dump in dumps:
            ctx = dump["context"]
            assert {"worker", "request_id", "trace_id", "tenant",
                    "status", "resolved"} <= set(ctx)
            assert dump["records"], "the ring must not be empty"
        doc = report.as_dict()
        assert doc["server"]["flight_reports"] == dumps

    def test_clean_run_leaves_no_flight_dumps(self):
        spec = LoadSpec(seed=7, tenants=2, requests=8, shapes=1)
        report = run_loadgen(spec, ServerConfig(workers=1))
        assert report.server.flight_reports == []


class TestLoadgenSurface:
    def test_per_tenant_latency_percentiles(self):
        spec = LoadSpec(seed=7, tenants=2, requests=12, shapes=2)
        report = run_loadgen(spec, ServerConfig(workers=2))
        tenants = report.server.per_tenant()
        for tenant in ("tenant-0", "tenant-1"):
            lat = tenants[tenant]["latency_s"]
            for stage in ("queue_wait", "execute"):
                pct = lat[stage]
                assert set(pct) == {"p50", "p95", "p99", "max"}
                assert pct["p50"] <= pct["max"]

    def test_traced_loadgen_exports_one_merged_document(self):
        spec = LoadSpec(seed=13, tenants=2, requests=10, shapes=2)
        report = run_loadgen(spec, ServerConfig(workers=2, trace=True))
        assert report.trace is not None
        tracks = spans_from_chrome_document(report.trace)
        assert validate_trace(tracks) == []
        ids = {
            s.trace_id for _, spans in tracks for s in spans if s.trace_id
        }
        assert len(ids) == 10
        assert report.metrics_text.startswith("# TYPE repro_")

    def test_untraced_loadgen_has_no_trace_payload(self):
        spec = LoadSpec(seed=7, tenants=1, requests=4, shapes=1)
        report = run_loadgen(spec, ServerConfig(workers=1))
        assert report.trace is None

    def test_burn_rate_folds_into_the_slo_report(self):
        spec = LoadSpec(seed=7, tenants=2, requests=12, shapes=2)
        report = run_loadgen(
            spec, ServerConfig(workers=1, slo_objective=0.95, slo_window=10)
        )
        burn = report.server.slo()["burn"]
        assert burn["objective"] == 0.95
        assert burn["window"] == 10
        assert burn["total"] == 12
        assert burn["alert"] == "ok"


class TestBaselineStability:
    """Satellite: arming tracing must not perturb pinned baselines."""

    def test_trace_counters_zero_suppressed_until_armed(self):
        stats = TransferStats()
        assert "traced_requests" not in stats.as_dict()
        assert "trace_wall_seconds" not in stats.as_dict()
        stats.record_traced(0.5)
        doc = stats.as_dict()
        assert doc["traced_requests"] == 1
        assert doc["trace_wall_seconds"] == 0.5

    def test_trace_counters_never_move_the_fingerprint(self):
        stats = TransferStats()
        stats.record_phase(0.25)
        before = stats_fingerprint(stats)
        stats.record_traced(1.5)
        assert stats_fingerprint(stats) == before

    def test_pinned_baseline_files_carry_no_trace_counters(self):
        from pathlib import Path

        baselines = Path(__file__).parents[2] / "benchmarks" / "baselines"
        files = sorted(baselines.glob("*.json"))
        assert files, "pinned baselines must exist"
        for path in files:
            text = path.read_text()
            assert "traced_requests" not in text, path.name
            assert "trace_wall_seconds" not in text, path.name


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    tenants=st.integers(min_value=1, max_value=3),
    requests=st.integers(min_value=1, max_value=12),
    workers=st.integers(min_value=1, max_value=3),
    shapes=st.integers(min_value=1, max_value=2),
)
def test_property_traces_stay_well_formed_under_concurrent_load(
    seed, tenants, requests, workers, shapes
):
    """Any closed-loop load leaves a forest of well-formed trace trees:
    no orphans, parents contain children on both axes, one trace id per
    completed request, each confined to a single worker track."""
    spec = LoadSpec(seed=seed, tenants=tenants, requests=requests,
                    shapes=shapes)
    report = run_loadgen(spec, ServerConfig(workers=workers, trace=True))
    tracks = spans_from_chrome_document(report.trace)
    assert validate_trace(tracks) == []
    roots = [
        s for _, spans in tracks for s in spans
        if s.name == "request" and s.trace_id
    ]
    assert len(roots) == requests
    assert len({r.trace_id for r in roots}) == requests
