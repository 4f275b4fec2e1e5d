"""``serve_closed`` and ``serve_open``: the serving stack under load.

``serve_closed`` — why: requests are small (1.6–2.4 ms of replay), so
``service`` admission, queueing, worker hand-off and fingerprinting are
a large share of each one; two clients that each wait for their reply
are what a batch caller looks like.

``serve_open`` — why: independent arrivals are what a served deployment
sees; queueing amplifies any per-request saving, and the faulted tenth
of the traffic shares the workers with the clean rest, so a clean-path
gain bought at the recovery path's expense shows in the tail.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from time import perf_counter

from benchmarks.wall import adapter as A
from benchmarks.wall import host, mix
from benchmarks.wall.spans import NULL_TRACER
from benchmarks.wall.stats import median, percentile
from benchmarks.wall.workloads import Window, Workload, probe

CLIENTS = 2
RESULT_TIMEOUT_S = 30.0
RECOVERY = "every=4"  # ServerConfig's default policy for faulted requests
#: The open-loop latency limit and the rates the ladder tries.
SLO_P95_MS = 50.0
LADDER_RATES = (60, 120, 180, 240, 300)


def start_server(**overrides):
    """A started server with default knobs, except that the shedding
    gates are opened so no request of the benchmark is ever refused, and
    that it reads the benchmark's clock (so a due time can be handed to
    ``submit`` as the admission timestamp)."""
    config = A.ServerConfig(queue_capacity=1 << 20, tenant_pending=None, **overrides)
    return A.TransposeServer(config, clock=perf_counter).start()


def request(problem: int, request_id: int, faults: str | None = None):
    fields = dict(mix.PROBLEMS[problem])
    if faults is not None:
        fields["faults"] = faults
    return A.TransposeRequest(
        tenant=f"tenant-{request_id % mix.TENANTS}",
        problem=A.BatchRequest(**fields),
        request_id=request_id,
    )


def compile_solo(problem: int):
    """``(params, plan)`` compiled by the benchmark itself, no server."""
    resolved = A.resolve_request(request(problem, 0))
    fields = mix.PROBLEMS[problem]
    if "workload" in fields:
        plan, _ = A.build_pipeline(fields["workload"], fields["n"]).compile(resolved.params)
        return resolved.params, plan
    after = resolved.after or A.default_after_layout(resolved.before)
    _, plan = A.capture_transpose(
        resolved.params,
        A.synthetic_matrix(resolved.before),
        after,
        algorithm=resolved.algorithm,
    )
    return resolved.params, plan


def solo_replay(params, plan) -> str:
    network = A.EnsembleNetwork(params)
    A.replay_plan(plan, network)
    return A.stats_fingerprint(network.stats)


def solo_faulted(problem: int, faults: str, cache, policy) -> str:
    """Fingerprint of one faulted request recovered with no server."""
    fields = mix.PROBLEMS[problem]
    resolved = A.resolve_request(request(problem, 0))
    plan = A.FaultPlan.from_spec(fields["n"], faults)
    if "workload" in fields:
        served = A.serve_workload(
            A.build_pipeline(fields["workload"], fields["n"]),
            resolved.params, faults=plan, cache=cache, recovery=policy,
        )
    else:
        served = A.replay_degraded(
            resolved.params, resolved.before, resolved.after,
            faults=plan, algorithm="auto", cache=cache, recovery=policy,
        )
    return A.stats_fingerprint(served.stats)


class _Serving(Workload):
    """What the two serving loops share: the server, the compiled pool
    and the solo reference fingerprint of every pool entry."""

    pool_size = len(mix.PROBLEMS)

    def setup(self) -> None:
        self.solo = [compile_solo(index) for index in range(len(mix.PROBLEMS))]
        self.reference = [solo_replay(params, plan) for params, plan in self.solo]
        self.server = start_server()
        self.ids = itertools.count()
        # Each client's draws continue from one window to the next.
        self.streams = [mix.problem_stream(self.seed, i) for i in range(CLIENTS)]

    def close(self) -> None:
        self.server.stop()

    def operation(self, index: int, tracer):
        """Submit one clean request and wait for its reply."""
        problem = index % len(mix.PROBLEMS)
        pending = self.server.submit(request(problem, next(self.ids)))
        return self.judge(pending.result(RESULT_TIMEOUT_S), problem)

    def judge(self, outcome, problem: int, reference: str | None = None):
        if outcome.status != "served":
            return f"request {outcome.request_id} {outcome.status}: {outcome.error}"
        if outcome.fingerprint != (reference or self.reference[problem]):
            return f"request {outcome.request_id}: fingerprint differs from the solo run"
        return None


class ServeClosed(_Serving):
    name = "serve_closed"

    def window(self, seconds: float, tracer) -> Window:
        return closed_loop(self.server, self, tracer, seconds=seconds)

    def scaling_arm(self, per_client: int, **overrides) -> Window:
        """The same closed loop against a fresh server, cache hot, for a
        fixed number of requests per client."""
        server = start_server(**overrides)
        try:
            for problem in range(len(mix.PROBLEMS)):
                server.submit(request(problem, problem)).result(RESULT_TIMEOUT_S)
            return closed_loop(server, self, NULL_TRACER, per_client=per_client)
        finally:
            server.stop()

    def layers(self, traced, untraced, tracer, effort) -> dict:
        outcomes = traced.extra["outcomes"]
        # The floor: the same request mix replayed in-thread, no server.
        solo_times = []
        for problem in itertools.islice(mix.problem_stream(self.seed, 0), 50 * effort.reps):
            t0 = perf_counter()
            solo_replay(*self.solo[problem])
            solo_times.append(perf_counter() - t0)
        solo_s = median(solo_times)
        one = request(0, 0)
        metrics = {
            "service.submit_us": median(tracer.durations("service.submit")) * 1e6,
            "service.scheduler.resolve_request_us": probe(
                lambda: A.resolve_request(one), 50 * effort.reps
            )
            * 1e6,
            "service.queue_wait_p50_ms": median(o.queue_wait_s for o in outcomes) * 1e3,
            "service.execute_p50_ms": median(o.execute_s for o in outcomes) * 1e3,
            # Self time of the client's wait: what is left of it after the
            # server's own queue wait and execute — worker wake-up and
            # result delivery.
            "service.handoff_p50_ms": median(tracer.self_times()["service.wait"]) * 1e3,
            "service.solo_replay_ms": solo_s * 1e3,
            "service.overhead_frac": 1.0 - solo_s / median(untraced.latencies),
            "service.cache_hit_rate": sum(o.cache_hit for o in outcomes) / len(outcomes),
            "service.latency_p99_ms": percentile(untraced.latencies, 99) * 1e3,
        }
        arms = {
            workers: self.scaling_arm(effort.serve_requests, workers=workers)
            for workers in (1, 2, 4)
        }
        for workers, arm in arms.items():
            metrics[f"service.rps_w{workers}"] = arm.completed / arm.wall_s
            served = arm.extra["outcomes"]
            # Why the arms differ, by layer (see README.md).
            self.diagnostics[f"scaling_w{workers}"] = {
                "rps": arm.completed / arm.wall_s,
                "client_p50_ms": median(arm.latencies) * 1e3,
                "queue_wait_p50_ms": median(o.queue_wait_s for o in served) * 1e3,
                "execute_p50_ms": median(o.execute_s for o in served) * 1e3,
                "execute_mean_ms": sum(o.execute_s for o in served) / len(served) * 1e3,
                "cpu_ms_per_request": arm.cpu_s * 1e3 / arm.completed,
            }
        armed = self.scaling_arm(effort.serve_requests, workers=2, trace=True)
        metrics["obs.trace_overhead_frac"] = (
            median(armed.latencies) / median(arms[2].latencies) - 1.0
        )
        return metrics


def closed_loop(server, workload, tracer, *, seconds=None, per_client=None) -> Window:
    """``CLIENTS`` threads, each submitting its next request only after
    the previous reply; ends after ``seconds`` or ``per_client`` requests."""
    win = Window()
    win.extra["outcomes"] = []
    lock = threading.Lock()
    cpu0 = host.cpu_seconds()
    start = perf_counter()
    deadline = None if seconds is None else start + seconds

    def client(stream: int) -> None:
        problems = workload.streams[stream]
        latencies, outcomes, failures = [], [], []
        count = 0
        while per_client is None or count < per_client:
            t0 = perf_counter()
            if deadline is not None and t0 >= deadline and count:
                break
            problem = next(problems)
            op = stream + CLIENTS * count
            count += 1
            try:
                with tracer.span("op", op=op):
                    with tracer.span("service.submit"):
                        pending = server.submit(request(problem, op))
                    t1 = perf_counter()
                    with tracer.span("service.wait") as wait:
                        outcome = pending.result(RESULT_TIMEOUT_S)
                    if wait is not None:
                        # The server's own measurements, laid end to end
                        # inside the wait; what remains is hand-off.
                        mid = t1 + outcome.queue_wait_s
                        tracer.record("service.queue_wait", t1, mid, wait)
                        tracer.record("service.execute", mid, mid + outcome.execute_s, wait)
                elapsed = perf_counter() - t0
                failure = workload.judge(outcome, problem)
                outcomes.append(outcome)
            except Exception as exc:  # a lost request must not end the client
                failure = f"{type(exc).__name__}: {exc}"
            if failure is None:
                latencies.append(elapsed)
            else:
                failures.append(failure)
        with lock:
            win.attempted += count
            win.latencies += latencies
            win.extra["outcomes"] += outcomes
            for text in failures:
                win.fail(text)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    win.wall_s = perf_counter() - start
    win.cpu_s = host.cpu_seconds() - cpu0
    return win


class ServeOpen(_Serving):
    name = "serve_open"

    def setup(self) -> None:
        super().setup()
        self.parts = itertools.count()
        self.policy = A.RecoveryPolicy.from_spec(RECOVERY)
        self.solo_cache = A.PlanCache()

    def window(self, seconds: float, tracer) -> Window:
        return self.open_loop(mix.OPEN_RATE, seconds, tracer)

    def open_loop(self, rate: float, seconds: float, tracer) -> Window:
        """Submit a seeded Poisson schedule on time from this thread,
        whatever the server does, while one collector thread waits for
        the replies in the order they were sent.

        A request's latency is measured here, outside the server: from
        the instant it was *due* to the instant the collector held its
        reply, so a stalled generator, a full queue and a slow result
        delivery all count.  A reply that overtakes an earlier one is
        stamped when the collector reaches it (the traced run's
        ``already_done_frac`` diagnostic says how often that can be).
        The due time is also handed to ``submit`` as the admission
        timestamp, so that the server's own ``queue_wait_s`` — a
        per-layer diagnostic — starts at the same instant as the span it
        is laid into.
        """
        schedule = mix.open_schedule(self.seed, rate, seconds, next(self.parts))
        win = Window(attempted=len(schedule))
        sent: queue.SimpleQueue = queue.SimpleQueue()
        replies = []  # (op, arrival, due, outcome or None, done_at, already done?)

        def collect() -> None:
            while (item := sent.get()) is not None:
                op, arrival, due, pending = item
                overtaken = pending.done()
                try:
                    outcome = pending.result(RESULT_TIMEOUT_S)
                except TimeoutError:
                    outcome = None
                replies.append((op, arrival, due, outcome, perf_counter(), overtaken))

        collector = threading.Thread(target=collect)
        lateness = []
        submitted = 0
        cpu0 = host.cpu_seconds()
        start = perf_counter()
        collector.start()
        try:
            for op, arrival in enumerate(schedule):
                due = start + arrival.due
                delay = due - perf_counter()
                if delay > 0:
                    time.sleep(delay)
                lateness.append(max(0.0, perf_counter() - due))
                try:
                    with tracer.span("service.submit", op=op):
                        pending = self.server.submit(
                            request(arrival.problem, next(self.ids), arrival.faults), now=due
                        )
                except Exception as exc:  # a refused request must not stop the schedule
                    win.fail(f"{type(exc).__name__}: {exc}")
                    continue
                sent.put((op, arrival, due, pending))
                submitted += 1
            backlog = submitted - len(replies)
        finally:
            sent.put(None)
            collector.join()
        win.wall_s = perf_counter() - start
        win.cpu_s = host.cpu_seconds() - cpu0
        # Outside the window: every faulted request is recovered once
        # more, alone, and the server's answer compared with that.
        by_kind: dict[str, list] = {"clean": [], "fft": [], "faulted": []}
        server_total = []
        for op, arrival, due, outcome, done_at, _ in replies:
            if outcome is None:
                win.fail(f"request {op}: no reply within {RESULT_TIMEOUT_S:.0f} s")
                continue
            reference = None
            if arrival.faults is not None and outcome.status == "served":
                reference = solo_faulted(
                    arrival.problem, arrival.faults, self.solo_cache, self.policy
                )
            failure = self.judge(outcome, arrival.problem, reference)
            if failure is not None:
                win.fail(failure)
                continue
            win.latencies.append(done_at - due)
            by_kind[arrival.kind].append(done_at - due)
            server_total.append(outcome.total_s)
            if tracer.enabled:
                parent = tracer.record("op", due, done_at, op=op)
                mid = due + outcome.queue_wait_s
                tracer.record("service.queue_wait", due, mid, parent)
                tracer.record("service.execute", mid, due + outcome.total_s, parent)
        win.extra.update(
            by_kind=by_kind,
            lateness=lateness,
            backlog_end=backlog,
            server_total=server_total,
            overtaken=sum(reply[-1] for reply in replies),
        )
        return win

    def layers(self, traced, untraced, tracer, effort) -> dict:
        extra = untraced.extra
        kinds = extra["by_kind"]
        metrics = {
            "service.open.latency_p95_ms": percentile(untraced.latencies, 95) * 1e3,
            "service.open.latency_p99_ms": percentile(untraced.latencies, 99) * 1e3,
            "service.open.clean_p50_ms": median(kinds["clean"]) * 1e3,
            "service.open.faulted_p50_ms": median(kinds["faulted"]) * 1e3,
            "service.open.fft_p50_ms": median(kinds["fft"]) * 1e3,
            "service.open.gen_lateness_p99_ms": percentile(extra["lateness"], 99) * 1e3,
            "service.open.achieved_rps": untraced.completed / untraced.wall_s,
            "service.open.backlog_end": extra["backlog_end"],
        }
        # The server's own queue_wait + execute beside what the collector
        # saw; the difference is result delivery and the collector's wake-up.
        self.diagnostics["open_loop"] = {
            "client_p50_ms": median(untraced.latencies) * 1e3,
            "server_total_p50_ms": median(extra["server_total"]) * 1e3,
            "already_done_frac": extra["overtaken"] / len(untraced.latencies),
        }
        # A coarse ladder: the knee is diagnostic only.
        slo_rate = 0
        below_knee = True
        for rate in LADDER_RATES:
            step = self.open_loop(rate, effort.ladder_s, NULL_TRACER)
            p95_ms = percentile(step.latencies, 95) * 1e3
            if rate in (60, 240):
                metrics[f"service.open.p95_ms_at_{rate}"] = p95_ms
            # "No growing backlog": at most a tenth of a second of
            # arrivals still outstanding when the schedule ends.
            keeps_up = step.extra["backlog_end"] <= max(2, rate // 10)
            below_knee &= p95_ms <= SLO_P95_MS and keeps_up and not step.failed
            if below_knee:
                slo_rate = rate
        metrics["service.open.slo_rate_rps"] = slo_rate
        return metrics
