"""The server end to end: serving, shedding, deadlines, aggregation."""

import pytest

from repro.plans.batch import BatchRequest
from repro.service import (
    AdmissionRejectedError,
    ServerConfig,
    TransposeRequest,
    TransposeServer,
    percentile,
    solo_fingerprint,
)


def request(rid=0, tenant="t0", deadline=None, priority=1, **problem):
    problem.setdefault("elements", 256)
    problem.setdefault("n", 4)
    problem.setdefault("machine", "cm")
    return TransposeRequest(
        tenant=tenant,
        problem=BatchRequest(**problem),
        priority=priority,
        deadline=deadline,
        request_id=rid,
    )


class TestPercentile:
    def test_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 50) == 50.0
        assert percentile(values, 95) == 95.0
        assert percentile(values, 99) == 99.0
        assert percentile([], 50) == 0.0
        assert percentile([3.0], 99) == 3.0


class TestServerConfig:
    def test_from_dict_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown server config"):
            ServerConfig.from_dict({"wrokers": 3})

    def test_needs_a_worker(self):
        with pytest.raises(ValueError, match="at least one worker"):
            ServerConfig(workers=0)


class TestServing:
    def test_serves_and_matches_solo_run_bit_identically(self):
        reqs = [request(rid) for rid in range(6)]
        with TransposeServer(ServerConfig(workers=2)) as server:
            pendings = [server.submit(r) for r in reqs]
            outcomes = [p.result(timeout=30.0) for p in pendings]
        assert all(o.status == "served" for o in outcomes)
        # Compile-once/serve-many, modulo the documented benign race:
        # at most one duplicate compile per worker on a cold cache.
        assert sum(1 for o in outcomes if o.cache_hit) >= len(reqs) - 2
        solo = solo_fingerprint(reqs[0])
        assert all(o.fingerprint == solo for o in outcomes)

    def test_faulted_request_served_with_recovery(self):
        req = request(0, faults="tlinks=0-1@1-3", algorithm="mpt")
        with TransposeServer(ServerConfig(workers=1)) as server:
            outcome = server.submit(req).result(timeout=30.0)
        assert outcome.status == "served"
        assert outcome.resolved == "resume"
        assert outcome.recovery is not None
        assert outcome.recovery["recovered"]

    def test_malformed_request_raises_before_queueing(self):
        server = TransposeServer(ServerConfig(workers=1))
        with pytest.raises(ValueError, match="power of two"):
            server.submit(request(elements=100))
        assert server.report().slo()["requests"] == 0

    def test_shed_load_is_counted_per_tenant_and_reason(self):
        config = ServerConfig(workers=1, queue_capacity=2, tenant_pending=None)
        server = TransposeServer(config)  # workers never started
        server.submit(request(0, "a"))
        server.submit(request(1, "b"))
        for rid, tenant in ((2, "a"), (3, "a"), (4, "b")):
            with pytest.raises(AdmissionRejectedError):
                server.submit(request(rid, tenant))
        report = server.report()
        assert report.slo()["rejected"] == 3
        tenants = report.per_tenant()
        assert tenants["a"]["rejected_by_reason"] == {"queue_full": 2}
        assert tenants["b"]["rejected_by_reason"] == {"queue_full": 1}

    def test_expired_deadline_shed_at_dequeue(self):
        state = {"now": 0.0}
        config = ServerConfig(workers=1)
        server = TransposeServer(config, clock=lambda: state["now"])
        pending = server.submit(request(0, deadline=0.5))
        state["now"] = 1.0  # the deadline passes while queued
        server.start()
        outcome = pending.result(timeout=30.0)
        server.stop()
        assert outcome.status == "deadline_missed"
        assert "deadline" in outcome.error
        slo = server.report().slo()
        assert slo["deadline_missed"] == 1
        assert slo["deadline_miss_rate"] == 1.0


class TestAggregation:
    def test_metrics_merged_across_workers(self):
        reqs = [request(rid, tenant=f"t{rid % 2}") for rid in range(8)]
        with TransposeServer(ServerConfig(workers=3)) as server:
            pendings = [server.submit(r) for r in reqs]
            for p in pendings:
                p.result(timeout=30.0)
        merged = server.metrics()
        served = sum(
            c.value for c in merged.family("service_requests")
        )
        assert served == len(reqs)
        [hist] = merged.family("service_total_s")
        assert hist.count == len(reqs)

    def test_report_as_dict_shape(self):
        with TransposeServer(ServerConfig(workers=1)) as server:
            server.submit(request(0)).result(timeout=30.0)
        doc = server.report().as_dict(with_outcomes=True)
        assert set(doc) == {
            "workers", "wall_seconds", "slo", "tenants", "cache",
            "queue", "outcomes", "resilience",
        }
        assert doc["slo"]["served"] == 1
        assert doc["tenants"]["t0"]["admitted"] == 1
        assert len(doc["outcomes"]) == 1


class TestRetention:
    def test_untraced_workers_keep_no_span_history(self):
        def held(server) -> int:
            return sum(
                len(w.instr.spans) + len(w.instr.events)
                for w in server._all_workers()
            )

        def serve(server, rids) -> None:
            for p in [server.submit(request(rid, f"t{rid % 4}")) for rid in rids]:
                assert p.result(timeout=30.0).status == "served"

        with TransposeServer(ServerConfig(workers=2)) as server:
            serve(server, range(50))
            after_50 = held(server)
            for start in range(50, 500, 50):
                serve(server, range(start, start + 50))
            assert held(server) <= after_50
