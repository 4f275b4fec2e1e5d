"""Worker threads: one simulated cube machine per request, one hub each.

Every worker owns a private :class:`~repro.obs.instrumentation.Instrumentation`
hub (the hub's span stack is deliberately not thread-safe, so hubs are
never shared) and builds a **fresh** :class:`~repro.machine.engine.EnsembleNetwork`
per request — simulated machines are cheap, and fresh state is what
makes served results bit-identical to solo runs.  The only shared
object on the hot path is the thread-safe
:class:`~repro.plans.cache.PlanCache`, reached with per-call
``observer=`` so cache events land in the owning worker's telemetry.

Execution is the batch layer's: the worker hands the resolved request
to :func:`repro.plans.batch.serve`, which parses a request's
:class:`~repro.machine.faults.FaultPlan` and topology afresh on every
call (never an instance shared with another machine — see
:meth:`FaultPlan.fork`) and, under a
:class:`~repro.recovery.policy.RecoveryPolicy`, recovers faulted
requests in place before falling back to the planner ladder.  Around
that one call the worker keeps only serving concerns: deadlines, the
chaos hook, spans, metrics and the :class:`ServeOutcome`.

Each request is a ``serve`` span (category ``service``) with the SLO
instruments recorded on the worker's registry:

- ``service_requests{tenant=,outcome=}`` — admitted work by final status;
- ``service_cache_hits{tenant=}`` — compile-once/serve-many hit count;
- ``service_queue_wait_s`` / ``service_execute_s`` / ``service_total_s``
  — wall-clock latency histograms;
- ``service_deadline_missed{tenant=}`` — requests shed at dequeue.

With ``trace=True`` the worker's hub runs with the wall-clock axis
armed and every dequeued request is served inside its
:class:`~repro.obs.trace.TraceContext`: a root ``request`` span
(backdated to submission on the wall axis) contains synthesized
``admission`` and ``queue-wait`` leaves, the ``plan-resolve`` /
``execute`` stages, and — via the attached network — the engine's own
phase leaves and any recovery spans, all stamped with the request's
``trace_id``.  A bounded :class:`~repro.obs.trace.FlightRecorder`
always rides on the hub; its ring is dumped into
:attr:`Worker.flight_reports` whenever a request ends badly.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import deque
from time import perf_counter

from repro.obs.instrumentation import Instrumentation
from repro.obs.trace import FlightRecorder
from repro.plans.batch import serve
from repro.plans.cache import PlanCache
from repro.service.queue import QueueEntry
from repro.service.request import ServeOutcome, stats_fingerprint
from repro.service.scheduler import ResolvedRequest, Scheduler

__all__ = ["Worker"]

#: Flight dumps retained per worker (each holds one ring snapshot).
_MAX_FLIGHT_REPORTS = 16


class Worker(threading.Thread):
    """One serving thread; drains the scheduler until it closes."""

    def __init__(
        self,
        wid: int,
        scheduler: Scheduler,
        cache: PlanCache,
        *,
        recovery=None,
        on_outcome=None,
        on_death=None,
        chaos=None,
        clock=time.monotonic,
        trace: bool = False,
        flight_capacity: int = 256,
    ) -> None:
        super().__init__(name=f"repro-serve-{wid}", daemon=True)
        self.wid = wid
        self.scheduler = scheduler
        self.cache = cache
        self.recovery = recovery
        self.on_outcome = on_outcome
        self.on_death = on_death
        #: Injection hook ``chaos(worker, entry)`` called inside the
        #: per-request try: a plain ``Exception`` fails the request, a
        #: :class:`~repro.service.resilience.WorkerCrashed` kills the
        #: worker, a ``sleep`` hangs it under the watchdog.
        self.chaos = chaos
        self.clock = clock
        self.tracing = trace
        # Supervision state.  ``dead``/``death_error`` are set by the
        # run() wrapper on any unhandled exception; ``finished`` marks a
        # run loop that returned (cleanly or not); ``abandoned`` is set
        # by the supervisor when it retires this worker — the loop
        # checks it between requests so a recovered hang stops serving
        # work that has been handed to its replacement.
        self.dead = False
        self.death_error: str | None = None
        self.finished = False
        self.abandoned = False
        self.last_beat: float | None = None
        self.executing_since: float | None = None
        self._executing: QueueEntry | None = None
        self._assigned: list[QueueEntry] = []
        self._inflight_lock = threading.Lock()
        self.flight = FlightRecorder(flight_capacity)
        self.flight_reports: deque = deque(maxlen=_MAX_FLIGHT_REPORTS)
        # Untraced, per-phase leaf spans would dominate memory on long
        # soaks, so they stay off and the hub has no wall axis — exactly
        # the seed behaviour the pinned baselines were recorded against.
        # Tracing arms both: phase leaves give the execute span its
        # engine-phase children, and the injectable clock gives every
        # span a wall interval.
        self.instr = Instrumentation(
            self.flight,
            phase_spans=trace,
            wall_clock=clock if trace else None,
        )
        self.served = 0

    # -- thread loop ---------------------------------------------------------

    def run(self) -> None:
        """Supervised outer loop: any escape marks this worker dead.

        The per-request try inside :meth:`_serve_inner` already turns
        request-level exceptions into ``"failed"`` outcomes; everything
        that still reaches here — a crash injected as a
        ``BaseException``, or a bug *outside* the per-request try such
        as ``next_batch`` raising — is a worker death, not a request
        failure.  The worker flags itself and notifies the supervisor
        instead of silently ending the thread and shrinking the pool.
        """
        try:
            self._run_loop()
        except BaseException as exc:
            self.dead = True
            self.death_error = f"{type(exc).__name__}: {exc}"
            if self.on_death is not None:
                try:
                    self.on_death(self, exc)
                except Exception:  # pragma: no cover - notify best-effort
                    pass
        finally:
            self.finished = True

    def _run_loop(self) -> None:
        while not self.abandoned:
            self.last_beat = self.clock()
            batch = self.scheduler.next_batch(timeout=0.05)
            if not batch:
                if self.scheduler.queue.closed:
                    return
                continue
            with self._inflight_lock:
                self._assigned = list(batch)
            for entry in batch:
                if self.abandoned:
                    # Retired mid-batch (e.g. a hang that came back):
                    # the rest of the batch now belongs to the
                    # replacement worker.
                    return
                with self._inflight_lock:
                    self._executing = entry
                    self.executing_since = self.clock()
                outcome = self.serve_entry(entry)
                with self._inflight_lock:
                    self._executing = None
                    self.executing_since = None
                    if entry in self._assigned:
                        self._assigned.remove(entry)
                self._deliver(entry, outcome)
            # Cleared only on a batch that completed; a crash escaping
            # mid-batch must leave the in-flight state for the
            # supervisor's take_inflight().
            with self._inflight_lock:
                self._assigned = []

    def _deliver(self, entry: QueueEntry, outcome: ServeOutcome) -> None:
        """Idempotent hand-off: only the fulfilment winner records.

        An abandoned attempt limping home after the supervisor already
        re-dispatched (or terminally resolved) the request loses the
        race and its outcome is dropped — counted, not recorded, so
        every request still resolves exactly once.
        """
        if self.scheduler.fulfill(entry, outcome):
            if self.on_outcome is not None:
                self.on_outcome(outcome)
        else:
            self.instr.metrics.counter(
                "service_late_results", tenant=outcome.tenant
            ).inc()

    def take_inflight(self) -> tuple[QueueEntry | None, list[QueueEntry]]:
        """Supervisor-side: harvest and clear this worker's live work.

        Returns ``(executing, innocent)``: the entry that was on the
        machine when the worker died or hung (``None`` if it was idle),
        and the batch-mates it had been assigned but never started —
        they are innocent of the death and are requeued without
        consuming retry budget.
        """
        with self._inflight_lock:
            executing = self._executing
            innocent = [e for e in self._assigned if e is not executing]
            self._executing = None
            self.executing_since = None
            self._assigned = []
        return executing, innocent

    # -- one request ---------------------------------------------------------

    def serve_entry(self, entry: QueueEntry) -> ServeOutcome:
        resolved = entry.payload
        assert isinstance(resolved, ResolvedRequest)
        trace = resolved.trace if self.tracing else None
        with self.instr.in_trace(trace):
            if trace is None:
                outcome = self._serve_inner(entry, resolved, traced=False)
            else:
                # Root of the request's trace tree.  On the wall axis it
                # is backdated to when the client called submit(), so the
                # admission and queue-wait leaves it contains are honest.
                submitted_wall = entry.submitted - resolved.resolve_s
                with self.instr.span(
                    "request",
                    category="request",
                    wall_start=submitted_wall,
                    tenant=trace.tenant,
                    request_id=trace.request_id,
                    priority=trace.priority,
                    worker=self.wid,
                ) as root:
                    outcome = self._serve_inner(entry, resolved, traced=True)
                    root.annotate(status=outcome.status)
                outcome.trace_id = trace.trace_id
        # A request "ended badly" when it failed outright, missed its
        # deadline, or its recovery escalated past in-place resume on
        # the documented ladder (route-around surgery or a re-plan).
        outcome.attempts = entry.attempt + 1
        if outcome.status in ("failed", "deadline_missed") or (
            outcome.resolved in ("surgery-detour", "ladder")
        ):
            self._dump_flight(outcome)
        return outcome

    def _dump_flight(self, outcome: ServeOutcome) -> None:
        """Snapshot the flight ring around a request that ended badly."""
        self.flight_reports.append(
            self.flight.dump(
                worker=self.wid,
                request_id=outcome.request_id,
                trace_id=outcome.trace_id,
                tenant=outcome.tenant,
                status=outcome.status,
                resolved=outcome.resolved,
                error=outcome.error,
            )
        )

    def _serve_inner(
        self, entry: QueueEntry, resolved: ResolvedRequest, *, traced: bool
    ) -> ServeOutcome:
        request = entry.request
        now = self.clock()
        queue_wait = max(0.0, now - entry.submitted)
        metrics = self.instr.metrics
        metrics.histogram("service_queue_wait_s").observe(queue_wait)
        if traced:
            # Stages that happened before this worker saw the request,
            # reconstructed as leaves: zero-width in model time, honest
            # wall intervals.
            self.instr.leaf(
                "admission",
                "request",
                wall_start=entry.submitted - resolved.resolve_s,
                wall_end=entry.submitted,
                resolve_s=resolved.resolve_s,
            )
            self.instr.leaf(
                "queue-wait",
                "request",
                wall_start=entry.submitted,
                wall_end=max(now, entry.submitted),
                waited_s=queue_wait,
            )

        if entry.deadline_at is not None and now > entry.deadline_at:
            metrics.counter(
                "service_deadline_missed", tenant=request.tenant
            ).inc()
            metrics.counter(
                "service_requests",
                tenant=request.tenant,
                outcome="deadline_missed",
            ).inc()
            self.instr.event(
                "deadline-missed",
                "service",
                tenant=request.tenant,
                request_id=request.request_id,
                waited=queue_wait,
            )
            return ServeOutcome(
                request_id=request.request_id,
                tenant=request.tenant,
                status="deadline_missed",
                worker=self.wid,
                queue_wait_s=queue_wait,
                total_s=queue_wait,
                key=entry.key,
                error=(
                    f"deadline {request.deadline:.3f}s exceeded after "
                    f"{queue_wait:.3f}s in queue"
                ),
            )

        started = perf_counter()
        try:
            if self.chaos is not None:
                # Inside the per-request try on purpose: an injected
                # plain Exception is a request failure; an injected
                # WorkerCrashed (a BaseException) escapes this handler
                # and takes the worker down; a sleep hangs it here
                # under the supervisor's watchdog.
                self.chaos(self, entry)
            outcome = self._execute(resolved, queue_wait, traced=traced)
        except Exception as exc:
            execute_s = perf_counter() - started
            metrics.counter(
                "service_requests", tenant=request.tenant, outcome="failed"
            ).inc()
            return ServeOutcome(
                request_id=request.request_id,
                tenant=request.tenant,
                status="failed",
                worker=self.wid,
                queue_wait_s=queue_wait,
                execute_s=execute_s,
                total_s=queue_wait + execute_s,
                key=entry.key,
                error=f"{type(exc).__name__}: {exc}",
            )
        outcome.execute_s = perf_counter() - started
        outcome.total_s = queue_wait + outcome.execute_s
        metrics.histogram("service_execute_s").observe(outcome.execute_s)
        metrics.histogram("service_total_s").observe(outcome.total_s)
        metrics.counter(
            "service_requests", tenant=request.tenant, outcome="served"
        ).inc()
        if outcome.cache_hit:
            metrics.counter(
                "service_cache_hits", tenant=request.tenant
            ).inc()
        self.served += 1
        return outcome

    def _execute(
        self, resolved: ResolvedRequest, queue_wait: float, *, traced: bool
    ) -> ServeOutcome:
        request = resolved.request
        with self.instr.span(
            "serve",
            category="service",
            tenant=request.tenant,
            request_id=request.request_id,
            worker=self.wid,
            algorithm=resolved.algorithm,
            priority=request.priority,
        ) as span:
            span.annotate(queue_wait_s=queue_wait)
            served = serve(
                resolved,
                self.cache,
                recovery=self.recovery,
                observer=self.instr,
                traced=traced,
            )
            span.annotate(cache_hit=served.cache_hit, resolved=served.resolved)
        rec = served.recovery
        return ServeOutcome(
            request_id=request.request_id,
            tenant=request.tenant,
            status="served",
            worker=self.wid,
            algorithm=served.algorithm,
            cache_hit=served.cache_hit,
            resolved=served.resolved,
            modelled_time=served.stats.time,
            queue_wait_s=queue_wait,
            # The server keeps every outcome; repeats of one problem
            # share these strings instead of holding a copy each.
            key=sys.intern(resolved.key),
            fingerprint=sys.intern(stats_fingerprint(served.stats)),
            recovery=None if rec is None else rec.as_dict(),
        )
