"""Scheduler: one-time resolution, plan-key batching, result plumbing."""

import threading

import pytest

from repro.plans.batch import BatchRequest
from repro.plans.cache import plan_key
from repro.service import (
    AdmissionPolicy,
    AdmissionRejectedError,
    Scheduler,
    ServeOutcome,
    TransposeRequest,
    resolve_request,
)


def request(rid=0, tenant="t0", **problem):
    problem.setdefault("elements", 256)
    problem.setdefault("n", 4)
    return TransposeRequest(
        tenant=tenant, problem=BatchRequest(**problem), request_id=rid
    )


class TestResolveRequest:
    def test_auto_resolves_to_concrete_tier_and_stable_key(self):
        resolved = resolve_request(request())
        assert resolved.algorithm != "auto"
        expected = plan_key(
            resolved.params,
            resolved.before,
            None,
            resolved.algorithm,
        )
        assert resolved.key == expected

    def test_explicit_and_auto_share_one_key(self):
        auto = resolve_request(request())
        explicit = resolve_request(
            request(algorithm=resolve_request(request()).algorithm)
        )
        assert auto.key == explicit.key

    def test_bad_problem_raises_synchronously(self):
        with pytest.raises(ValueError, match="power of two"):
            resolve_request(request(elements=100))
        with pytest.raises(ValueError, match="unknown machine"):
            resolve_request(request(machine="vax"))

    def test_bad_fault_spec_rejected_at_resolution(self):
        with pytest.raises(ValueError):
            resolve_request(request(faults="nonsense"))


class TestScheduler:
    def test_submit_fulfill_round_trip(self):
        sched = Scheduler(AdmissionPolicy(capacity=4))
        pending = sched.submit(resolve_request(request(7)))
        assert not pending.done()
        [entry] = sched.next_batch()
        assert entry.request.request_id == 7
        assert entry.payload.algorithm != "auto"
        outcome = ServeOutcome(request_id=7, tenant="t0", status="served")
        sched.fulfill(entry, outcome)
        assert pending.done()
        assert pending.result(timeout=1.0) is outcome

    def test_rejection_creates_no_slot(self):
        sched = Scheduler(AdmissionPolicy(capacity=1))
        sched.submit(resolve_request(request(0)))
        with pytest.raises(AdmissionRejectedError):
            sched.submit(resolve_request(request(1)))
        assert len(sched._results) == 1

    def test_next_batch_groups_by_key(self):
        sched = Scheduler(max_batch=8)
        for rid in range(3):
            sched.submit(resolve_request(request(rid)))
        sched.submit(resolve_request(request(9, elements=1024)))
        batch = sched.next_batch()
        assert [e.request.request_id for e in batch] == [0, 1, 2]

    def test_result_timeout(self):
        sched = Scheduler()
        pending = sched.submit(resolve_request(request()))
        with pytest.raises(TimeoutError):
            pending.result(timeout=0.01)

    def test_entry_served_before_submit_returns_is_delivered(self):
        # A worker can pop and serve an entry the instant it is enqueued,
        # before submit() has returned; its outcome must reach the slot
        # instead of being dropped as a late result.
        sched = Scheduler()
        outcome = ServeOutcome(request_id=3, tenant="t0", status="served")
        won = []

        def worker() -> None:
            [entry] = sched.next_batch(timeout=1.0)
            won.append(sched.fulfill(entry, outcome))

        enqueue = sched.queue.submit

        def enqueue_then_yield(*args, **kwargs):
            entry = enqueue(*args, **kwargs)
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join(timeout=0.2)  # the worker runs first
            threads.append(thread)
            return entry

        threads = []
        sched.queue.submit = enqueue_then_yield
        pending = sched.submit(resolve_request(request(3)))
        threads[0].join(timeout=5.0)
        assert won == [True]
        assert pending.result(timeout=1.0) is outcome
