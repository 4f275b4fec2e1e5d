"""Resolve requests to plan keys and order them for the worker pool.

The scheduler is the seam between the admission queue and the plan
cache: every request is resolved **once, at submission** — machine
parameters, layout pair, the §9 algorithm selection, and the resulting
content address (:func:`~repro.plans.cache.plan_key`).  The content
address doubles as the *batching compatibility key*: requests resolving
to the same key replay the same :class:`~repro.plans.ir.CompiledPlan`,
so the queue hands them to a single worker back-to-back and the first
compile is amortised across the whole group (compile-once,
serve-many).

Rejections surface synchronously at :meth:`Scheduler.submit` as typed
:class:`~repro.service.request.AdmissionRejectedError`; admitted
requests return a :class:`PendingResult` the caller can wait on.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.obs.trace import TraceContext
from repro.plans.batch import ResolvedProblem
from repro.service.queue import AdmissionPolicy, AdmissionQueue, QueueEntry
from repro.service.request import ServeOutcome, TransposeRequest

__all__ = ["PendingResult", "ResolvedRequest", "Scheduler", "resolve_request"]


@dataclass(frozen=True, kw_only=True)
class ResolvedRequest(ResolvedProblem):
    """A request after one-time planning-side resolution: its problem's
    :class:`~repro.plans.batch.ResolvedProblem` plus the request
    identity the worker serves it under."""

    request: TransposeRequest
    #: Trace identity minted by the server at submission (``None`` when
    #: tracing is off); the worker opens the request's root span in it.
    trace: TraceContext | None = None
    #: Wall seconds spent in admission-time resolution — the worker
    #: backdates the trace's admission leaf by this much.
    resolve_s: float = 0.0


def resolve_request(request: TransposeRequest) -> ResolvedRequest:
    """Map a request to machine/layouts/algorithm/plan-key, validating it.

    Raises :class:`ValueError` on malformed problems (bad element
    counts, unknown layouts, machines or topologies), exactly as the
    batch layer does — both go through
    :meth:`~repro.plans.batch.BatchRequest.resolve` — and the server
    turns that into a synchronous rejection rather than a dead queue
    entry.
    """
    return ResolvedRequest(request=request, **vars(request.problem.resolve()))


class PendingResult:
    """A slot the submitting thread can wait on for the outcome.

    Fulfilment is idempotent, first writer wins: once the supervisor
    re-dispatches a request, *two* executions can race to resolve the
    same slot (the retry, and the abandoned original limping home
    late).  :meth:`fulfill` reports whether this call won, so exactly
    one side records the outcome and the loser's result is dropped.
    """

    __slots__ = ("_done", "_lock", "_outcome")

    def __init__(self) -> None:
        self._done = threading.Event()
        self._lock = threading.Lock()
        self._outcome: ServeOutcome | None = None

    def fulfill(self, outcome: ServeOutcome) -> bool:
        """Resolve the slot; ``False`` when it was already resolved."""
        with self._lock:
            if self._outcome is not None:
                return False
            self._outcome = outcome
        self._done.set()
        return True

    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: float | None = None) -> ServeOutcome:
        if not self._done.wait(timeout):
            raise TimeoutError("request outcome not available yet")
        assert self._outcome is not None
        return self._outcome


class Scheduler:
    """Admission front-end plus dequeue order for the worker pool."""

    def __init__(
        self,
        policy: AdmissionPolicy | None = None,
        *,
        max_batch: int = 4,
        clock=None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        kwargs = {} if clock is None else {"clock": clock}
        self.queue = AdmissionQueue(policy, **kwargs)
        self.max_batch = max_batch
        self._results: dict[int, tuple[PendingResult, QueueEntry]] = {}
        self._lock = threading.Lock()

    def submit(
        self, resolved: ResolvedRequest, now: float | None = None
    ) -> PendingResult:
        """Admit a resolved request; returns the waitable result slot.

        Raises :class:`AdmissionRejectedError` when a shedding gate
        fires — nothing is enqueued and no slot is created.
        """
        pending = PendingResult()
        # Enqueue and register under one lock: a worker may pop and serve
        # the entry before submit() returns, and its fulfill() must then
        # wait for the slot rather than drop the outcome as a late result.
        with self._lock:
            entry = self.queue.submit(
                resolved.request, resolved.key, now, payload=resolved
            )
            self._results[entry.seq] = (pending, entry)
        return pending

    def next_batch(self, timeout: float | None = None) -> list[QueueEntry]:
        """Worker-side: the next key-compatible batch (``[]`` on close)."""
        return self.queue.pop_batch(self.max_batch, timeout)

    def fulfill(self, entry: QueueEntry, outcome: ServeOutcome) -> bool:
        """Resolve the entry's pending slot; ``False`` when it lost.

        A ``False`` return means some earlier resolution won the slot —
        the supervisor already failed/re-dispatched the request, or an
        abandoned attempt beat this one home — and the caller must drop
        its outcome instead of recording it.
        """
        with self._lock:
            slot = self._results.pop(entry.seq, None)
        if slot is None:
            return False
        return slot[0].fulfill(outcome)

    def requeue(self, entry: QueueEntry) -> QueueEntry | None:
        """Supervisor-side: put an abandoned entry back for a retry.

        Moves the pending slot to the entry's fresh queue sequence so a
        late result from the abandoned attempt and the retry race
        idempotently for the same slot.  Returns ``None`` — and leaves
        the queue untouched — when the slot is already resolved (the
        abandoned attempt limped home first), which is not an error.
        """
        with self._lock:
            slot = self._results.pop(entry.seq, None)
            if slot is None or slot[0].done():
                return None
            self.queue.requeue(entry)  # re-keys entry.seq
            self._results[entry.seq] = slot
            return entry

    def resolve(self, entry: QueueEntry, outcome: ServeOutcome) -> bool:
        """Terminally resolve an entry without executing it.

        Supervisor-side: quarantines (poison), budget exhaustion and
        shutdown aborts land here.  Same first-wins contract as
        :meth:`fulfill`.
        """
        return self.fulfill(entry, outcome)

    def abort_all(self, make_outcome) -> list[ServeOutcome]:
        """Resolve every outstanding slot with ``make_outcome(entry)``.

        Called on drain timeout / stop so no :class:`PendingResult`
        blocks forever.  Returns the outcomes that actually won their
        slots (late results may still beat the abort, which is fine).
        """
        with self._lock:
            slots = list(self._results.values())
            self._results.clear()
        aborted: list[ServeOutcome] = []
        for pending, entry in slots:
            outcome = make_outcome(entry)
            if pending.fulfill(outcome):
                aborted.append(outcome)
        return aborted

    def outstanding(self) -> int:
        """Slots not yet resolved (queued, executing, or in backoff)."""
        with self._lock:
            return len(self._results)

    def close(self) -> None:
        self.queue.close()
