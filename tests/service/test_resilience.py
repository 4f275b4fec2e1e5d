"""The self-healing layer: supervisor, retries, breaker, brownout."""

import threading
import time

import pytest

from repro.plans.batch import BatchRequest
from repro.service import (
    AdmissionRejectedError,
    BreakerPolicy,
    BrownoutController,
    BrownoutPolicy,
    CircuitBreaker,
    PendingResult,
    RetryBudget,
    ServeOutcome,
    ServerConfig,
    TransposeRequest,
    TransposeServer,
    WorkerCrashed,
)
from repro.service import server as server_module
from repro.service.resilience import BROWNOUT_LADDER


def request(rid=0, tenant="t0", priority=1, **problem):
    problem.setdefault("elements", 256)
    problem.setdefault("n", 4)
    problem.setdefault("machine", "cm")
    return TransposeRequest(
        tenant=tenant,
        problem=BatchRequest(**problem),
        priority=priority,
        request_id=rid,
    )


def outcome(*, wait=0.0, status="served"):
    return ServeOutcome(
        request_id=0, tenant="t0", status=status, key="k", queue_wait_s=wait
    )


class TestRetryBudget:
    def test_backoff_is_deterministic_and_exponential(self):
        budget = RetryBudget(attempts=3, backoff=0.1, factor=2.0,
                             jitter=0.5, seed=7)
        first = budget.delay(42, 1)
        assert first == budget.delay(42, 1)  # same (seed, rid, attempt)
        assert budget.delay(42, 1) != budget.delay(43, 1)
        assert budget.delay(42, 1) != budget.delay(42, 2)
        for attempt in (1, 2, 3):
            base = 0.1 * 2.0 ** (attempt - 1)
            assert base <= budget.delay(42, attempt) < base * 1.5

    def test_zero_jitter_is_pure_exponential(self):
        budget = RetryBudget(attempts=2, backoff=0.2, factor=3.0, jitter=0.0)
        assert budget.delay(1, 1) == pytest.approx(0.2)
        assert budget.delay(1, 2) == pytest.approx(0.6)

    def test_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            RetryBudget(attempts=-1)
        with pytest.raises(ValueError, match="out of range"):
            RetryBudget(factor=0.5)


class TestPendingResultIdempotency:
    def test_first_fulfill_wins(self):
        pending = PendingResult()
        winner = outcome(status="served")
        loser = outcome(status="failed")
        assert pending.fulfill(winner)
        assert not pending.fulfill(loser)
        assert pending.result(timeout=0.0) is winner

    def test_result_times_out_instead_of_blocking(self):
        with pytest.raises(TimeoutError):
            PendingResult().result(timeout=0.01)


class TestSpecParsing:
    def test_breaker_from_spec(self):
        policy = BreakerPolicy.from_spec(
            "window=8,threshold=0.75,min_volume=2,cooldown=2.5,key=tenant"
        )
        assert policy.window == 8
        assert policy.threshold == 0.75
        assert policy.min_volume == 2
        assert policy.cooldown == 2.5
        assert policy.key == "tenant"
        assert policy.probes == BreakerPolicy().probes  # default kept

    def test_brownout_from_spec_accepts_slo_alias(self):
        policy = BrownoutPolicy.from_spec("slo=0.5,hold=5,up=2,down=0.5")
        assert policy.queue_wait_slo == 0.5
        assert policy.hold == 5
        assert policy.up == 2.0

    def test_unknown_token_is_rejected_with_known_fields(self):
        with pytest.raises(ValueError, match="known:"):
            BreakerPolicy.from_spec("windw=8")
        with pytest.raises(ValueError, match="bad brownout spec value"):
            BrownoutPolicy.from_spec("hold=many")


class TestCircuitBreaker:
    def breaker(self, **overrides):
        defaults = dict(window=8, threshold=0.5, min_volume=4,
                        cooldown=1.0, probes=2, probe_interval=0.25)
        defaults.update(overrides)
        state = {"t": 0.0}
        breaker = CircuitBreaker(
            BreakerPolicy(**defaults), clock=lambda: state["t"]
        )
        return breaker, state

    def test_stays_closed_below_min_volume(self):
        breaker, _ = self.breaker()
        for _ in range(3):
            breaker.record("k", "t0", False)
        assert breaker.state("k") == "closed"
        assert breaker.allow("k", "t0")

    def test_opens_at_failure_threshold_and_blocks(self):
        breaker, state = self.breaker()
        for _ in range(4):
            breaker.record("k", "t0", False)
        assert breaker.state("k") == "open"
        assert not breaker.allow("k", "t0")
        state["t"] = 0.99
        assert not breaker.allow("k", "t0")  # still cooling down

    def test_half_open_probes_then_closes(self):
        breaker, state = self.breaker()
        for _ in range(4):
            breaker.record("k", "t0", False)
        state["t"] = 1.0
        assert breaker.allow("k", "t0")  # cooldown over -> probe 1
        assert breaker.state("k") == "half-open"
        assert not breaker.allow("k", "t0")  # one probe per interval
        breaker.record("k", "t0", True)
        state["t"] = 1.3
        assert breaker.allow("k", "t0")  # probe 2
        breaker.record("k", "t0", True)
        assert breaker.state("k") == "closed"  # window reset
        assert breaker.snapshot()["trips"] == 1

    def test_probe_failure_reopens(self):
        breaker, state = self.breaker()
        for _ in range(4):
            breaker.record("k", "t0", False)
        state["t"] = 1.0
        assert breaker.allow("k", "t0")
        breaker.record("k", "t0", False)  # the probe fails
        assert breaker.state("k") == "open"
        state["t"] = 1.5  # re-opened at 1.0: cooldown restarts
        assert not breaker.allow("k", "t0")
        state["t"] = 2.0
        assert breaker.allow("k", "t0")
        assert breaker.snapshot()["trips"] == 2

    def test_tenant_keying_isolates_tenants_not_plans(self):
        breaker, _ = self.breaker(key="tenant", min_volume=2, window=4)
        breaker.record("plan-a", "noisy", False)
        breaker.record("plan-b", "noisy", False)
        assert not breaker.allow("plan-c", "noisy")  # any plan, same tenant
        assert breaker.allow("plan-a", "quiet")

    def test_successes_keep_it_closed(self):
        breaker, _ = self.breaker()
        for _ in range(20):
            breaker.record("k", "t0", True)
        breaker.record("k", "t0", False)
        assert breaker.state("k") == "closed"
        snap = breaker.snapshot()
        assert snap["keys"]["k"]["window_observed"] == 8  # windowed


class TestBrownoutController:
    def controller(self, **overrides):
        defaults = dict(queue_wait_slo=0.1, objective=0.9, window=2,
                        up=1.0, down=0.25, hold=2, shed_priority=1)
        defaults.update(overrides)
        events = []
        ctrl = BrownoutController(
            BrownoutPolicy(**defaults), on_change=events.append
        )
        return ctrl, events

    def test_steps_up_after_hold_and_down_with_hysteresis(self):
        ctrl, events = self.controller()
        for _ in range(4):  # sustained burn: two steps up
            ctrl.observe(outcome(wait=1.0))
        assert ctrl.level == 2
        assert ctrl.actions() == ("shed-low-priority", "widen-batching")
        for _ in range(5):  # pressure clears: window flushes, then down
            ctrl.observe(outcome(wait=0.0))
        assert ctrl.level == 0
        assert events == [1, 2, 1, 0]
        assert ctrl.steps == 4

    def test_single_observation_does_not_flap(self):
        ctrl, events = self.controller(hold=3)
        ctrl.observe(outcome(wait=1.0))
        ctrl.observe(outcome(wait=1.0))
        assert ctrl.level == 0  # hold not reached
        assert events == []

    def test_admission_gate_follows_the_ladder(self):
        ctrl, _ = self.controller(shed_priority=1)
        assert ctrl.admits(0) and ctrl.admits(5)
        ctrl.level = 1  # shed-low-priority
        assert ctrl.admits(0)
        assert not ctrl.admits(1)
        ctrl.level = len(BROWNOUT_LADDER)  # reject-admission
        assert not ctrl.admits(0)

    def test_snapshot_names_the_ladder(self):
        ctrl, _ = self.controller()
        snap = ctrl.snapshot()
        assert snap["ladder"] == list(BROWNOUT_LADDER)
        assert snap["level"] == 0 and snap["actions"] == []


def resilient_config(**overrides):
    defaults = dict(workers=2, retries=2, retry_backoff=0.001,
                    supervisor_interval=0.005)
    defaults.update(overrides)
    return ServerConfig(**defaults)


class TestSupervision:
    def test_killed_worker_is_replaced_and_request_retried(self):
        def kill_first_attempt(worker, entry):
            if entry.request.request_id == 0 and entry.attempt == 0:
                raise WorkerCrashed("chaos kill")

        server = TransposeServer(resilient_config())
        server.set_chaos(kill_first_attempt)
        with server:
            result = server.submit(request(0)).result(timeout=30.0)
        assert result.status == "served"
        assert result.attempts == 2
        assert server.retired and server.retired[0].dead
        snap = server.resilience_snapshot()["supervisor"]
        assert snap["restarts"] >= 1
        assert snap["redispatches"] >= 1
        events = {e["event"] for e in server.supervisor.log}
        assert {"worker-crash", "worker-replaced", "redispatch"} <= events

    def test_hung_worker_is_detected_by_watchdog(self):
        def hang_first_attempt(worker, entry):
            if entry.attempt == 0:
                time.sleep(0.4)

        config = resilient_config(workers=1, watchdog=0.08,
                                  supervisor_interval=0.01)
        server = TransposeServer(config)
        server.set_chaos(hang_first_attempt)
        with server:
            result = server.submit(request(0)).result(timeout=30.0)
        assert result.status == "served"
        assert result.attempts == 2
        assert any(
            e["event"] == "worker-hang" for e in server.supervisor.log
        )

    def test_retry_budget_exhaustion_fails_the_request(self):
        def always_kill(worker, entry):
            if entry.request.request_id == 0:
                raise WorkerCrashed("chaos kill")

        config = resilient_config(retries=1, poison_threshold=5)
        server = TransposeServer(config)
        server.set_chaos(always_kill)
        with server:
            bad = server.submit(request(0))
            good = server.submit(request(1))
            failed = bad.result(timeout=30.0)
            served = good.result(timeout=30.0)
        assert failed.status == "failed"
        assert "retry budget exhausted" in failed.error
        assert failed.attempts == 2  # the original + one re-dispatch
        assert served.status == "served"

    def test_poison_request_is_quarantined_not_retried_forever(self):
        def poison(worker, entry):
            if entry.request.request_id == 0:
                raise WorkerCrashed("poison")

        config = resilient_config(retries=5, poison_threshold=2)
        server = TransposeServer(config)
        server.set_chaos(poison)
        with server:
            result = server.submit(request(0)).result(timeout=30.0)
        assert result.status == "poisoned"
        assert "quarantined" in result.error
        snap = server.resilience_snapshot()["supervisor"]
        assert snap["quarantined"] == 1
        poisoned = sum(
            c.value for c in server.metrics().family("service_poisoned")
        )
        assert poisoned == 1

    def test_exception_outside_request_loop_marks_worker_dead(self):
        # The satellite regression: next_batch itself raising must not
        # leave a zombie thread — the run wrapper marks the worker dead
        # and the supervisor replaces it.
        server = TransposeServer(resilient_config(workers=1))
        real = server.scheduler.next_batch
        calls = {"n": 0}

        def flaky(timeout=None):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("scheduler exploded")
            return real(timeout)

        server.scheduler.next_batch = flaky
        with server:
            result = server.submit(request(0)).result(timeout=30.0)
        assert result.status == "served"
        [dead] = server.retired
        assert dead.dead
        assert "scheduler exploded" in dead.death_error
        assert any(
            e["event"] == "worker-crash" for e in server.supervisor.log
        )


class TestStopAndDrain:
    def test_drain_timeout_resolves_outstanding_with_stopped(self):
        def slow(worker, entry):
            time.sleep(0.5)

        server = TransposeServer(
            ServerConfig(workers=1, retries=0, supervise=False)
        )
        server.set_chaos(slow)
        server.start()
        pendings = [server.submit(request(rid)) for rid in range(3)]
        assert server.drain(timeout=0.15) is False
        results = [p.result(timeout=5.0) for p in pendings]
        assert all(r.status in ("served", "stopped") for r in results)
        stopped = [r for r in results if r.status == "stopped"]
        assert stopped
        assert "ServerStoppedError" in stopped[0].error
        assert "drain timed out" in stopped[0].error
        server.stop(wait=False)

    def test_stop_never_strands_a_pending_result(self):
        server = TransposeServer(ServerConfig(workers=1, supervise=False))
        pending = server.submit(request(0))  # workers never started
        server.stop(wait=False)
        result = pending.result(timeout=1.0)
        assert result.status == "stopped"
        assert "the server stopped" in result.error
        assert server.report().slo()["stopped"] == 1

    def test_stop_is_bounded_when_an_admitted_entry_is_never_served(
        self, monkeypatch
    ):
        # A live, idle pool that lost an entry: drain() alone would wait
        # forever, so stop() must give up at its deadline.
        monkeypatch.setattr(server_module, "_STOP_TIMEOUT_S", 0.3,
                            raising=False)
        server = TransposeServer(ServerConfig(workers=1, supervise=False))
        real = server.scheduler.next_batch
        lost = []

        def lossy(timeout=None):
            batch = real(timeout)
            if batch and not lost:
                lost.extend(batch)
                return []
            return batch

        server.scheduler.next_batch = lossy
        server.start()
        pending = server.submit(request(0))
        stopper = threading.Thread(target=server.stop, daemon=True)
        stopper.start()
        stopper.join(timeout=10.0)
        assert not stopper.is_alive(), "stop() hung on a lost entry"
        assert lost
        result = pending.result(timeout=1.0)
        assert result.status == "stopped"
        assert "ServerStoppedError" in result.error

    def test_dead_pool_without_supervision_aborts_the_drain(self):
        def massacre(worker, entry):
            raise WorkerCrashed("no survivors")

        server = TransposeServer(
            ServerConfig(workers=2, retries=0, supervise=False)
        )
        server.set_chaos(massacre)
        server.start()
        # Distinct shapes -> distinct plan keys -> no batch coalescing:
        # both workers must pick up work, so both must die.
        pendings = [
            server.submit(request(rid, elements=256 << rid))
            for rid in range(4)
        ]
        assert server.drain(timeout=10.0) is False
        results = [p.result(timeout=5.0) for p in pendings]
        assert all(r.status == "stopped" for r in results)
        assert any("supervision is off" in r.error for r in results)
        server.stop(wait=False)


class TestAdmissionGates:
    def test_breaker_opens_on_failures_and_sheds_admission(self):
        def crash(worker, entry):
            raise RuntimeError("bad request bug")

        config = ServerConfig(
            workers=1, supervise=False,
            breaker="window=4,threshold=0.5,min_volume=2,cooldown=60,"
                    "key=tenant",
        )
        server = TransposeServer(config)
        server.set_chaos(crash)
        with server:
            for rid in range(2):
                result = server.submit(request(rid)).result(timeout=30.0)
                assert result.status == "failed"
            with pytest.raises(AdmissionRejectedError, match="breaker"):
                server.submit(request(9))
        snap = server.resilience_snapshot()["breaker"]
        assert snap["open"] == 1 and snap["trips"] == 1

    def test_brownout_reject_level_sheds_admission(self):
        config = ServerConfig(workers=1, brownout="slo=0.1,hold=2")
        server = TransposeServer(config)  # never started: gate only
        server.brownout.level = len(BROWNOUT_LADDER)
        with pytest.raises(AdmissionRejectedError, match="brownout"):
            server.submit(request(0))
        report = server.report()
        tenants = report.per_tenant()
        assert tenants["t0"]["rejected_by_reason"] == {"brownout": 1}
