"""Seeded load generation and bit-identity spot checks for the server.

Two drive modes:

- **closed loop** (the default): one client thread per tenant submits
  its share of the workload sequentially, waiting for each outcome
  before issuing the next request — concurrency equals the tenant
  count, and offered load adapts to service rate;
- **open loop**: a single thread submits on a seeded arrival schedule
  (exponential inter-arrivals at ``rate`` requests/second) regardless
  of completions — the mode that actually drives queue depth up and
  exercises the shedding gates.

Every workload is a pure function of ``seed``: the shape pool, the
per-request problem choice, priorities, and fault assignment all come
from one seeded generator, so a soak is reproducible request-for-
request.

The **invariant check** is the serving-layer analogue of the replay
guarantee: a sample of served fault-free requests is re-run *solo*
(fresh compile, fresh machine, no cache, no concurrency) and the
:func:`~repro.service.request.stats_fingerprint` of both runs must be
bit-identical.  Any mismatch means concurrent serving corrupted a
schedule — the one thing the subsystem must never do.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from dataclasses import dataclass, replace
from typing import Mapping

from repro.machine.engine import EnsembleNetwork
from repro.obs.ops import format_prometheus
from repro.plans.batch import BatchRequest
from repro.plans.recorder import capture_transpose, synthetic_matrix
from repro.plans.replay import replay_plan
from repro.service.request import (
    AdmissionRejectedError,
    ServeOutcome,
    TransposeRequest,
    stats_fingerprint,
)
from repro.service.scheduler import resolve_request
from repro.service.server import ServerConfig, ServerReport, TransposeServer

__all__ = [
    "LoadReport",
    "LoadSpec",
    "deterministic_counters",
    "run_loadgen",
    "solo_fingerprint",
    "solo_payload_check",
]


@dataclass(frozen=True)
class LoadSpec:
    """One seeded workload description."""

    seed: int = 7
    tenants: int = 4
    requests: int = 200
    mode: str = "closed"  # or "open"
    #: Open-loop offered load (requests/second).
    rate: float = 200.0
    #: Distinct problem shapes in the pool (repeated-shape traffic is
    #: what makes compile-once/serve-many pay off).
    shapes: int = 4
    n: int = 4
    machine: str = "cm"
    #: Probability a request carries a seeded fault spec (fault storm).
    fault_rate: float = 0.0
    #: Relative deadline in seconds (None = no deadline).
    deadline: float | None = None
    priority_levels: int = 2
    #: Served fault-free requests re-run solo for bit-identity.
    verify_sample: int = 8
    #: Composite-pipeline spec (``repro.workloads`` grammar) mixed into
    #: the stream; ``None`` keeps the workload pure-transpose (the
    #: pinned service baselines rely on that default).
    workload: str | None = None
    #: Every k-th request becomes a ``workload`` pipeline request
    #: (``0`` = never; must be positive when ``workload`` is set).
    workload_every: int = 0
    #: Closed-loop client patience: how long a client waits for each
    #: outcome before giving up on it (``repro loadgen
    #: --request-timeout``).  Expiries are counted separately in the
    #: report — the request may still resolve server-side later.
    request_timeout: float = 120.0

    def __post_init__(self) -> None:
        if self.mode not in ("closed", "open"):
            raise ValueError("loadgen mode must be 'closed' or 'open'")
        if self.tenants < 1 or self.requests < 1:
            raise ValueError("loadgen needs at least one tenant and request")
        if not 0.0 <= self.fault_rate <= 1.0:
            raise ValueError("fault_rate must be within [0, 1]")
        if self.rate <= 0:
            raise ValueError("open-loop rate must be positive")
        if self.request_timeout <= 0:
            raise ValueError("request_timeout must be positive seconds")
        if self.workload_every < 0:
            raise ValueError("workload_every must be non-negative")
        if self.workload is not None and self.workload_every < 1:
            raise ValueError(
                "workload_every must be positive when a workload is set"
            )
        if self.workload is not None:
            # Surface spec typos at construction, not mid-soak.
            from repro.workloads import parse_workload

            parse_workload(self.workload)

    @classmethod
    def from_dict(cls, d: Mapping) -> "LoadSpec":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ValueError(
                f"unknown loadgen field(s): {', '.join(sorted(unknown))}"
            )
        return cls(**d)

    def as_dict(self) -> dict:
        return {f: getattr(self, f) for f in self.__dataclass_fields__}


def _shape_pool(spec: LoadSpec, rng: random.Random) -> list[BatchRequest]:
    """``spec.shapes`` distinct valid problems, all on one machine model."""
    from repro.plans.batch import resolve_problem

    layouts = ["2d", "1d-rows", "1d-cols"] if spec.n % 2 == 0 else [
        "1d-rows", "1d-cols"
    ]
    candidates = []
    for bits in range(6, 11):
        for layout in layouts:
            try:
                resolve_problem(spec.n, 1 << bits, layout)
            except ValueError:
                continue  # e.g. too few processor bits for a 1-d layout
            candidates.append(
                BatchRequest(
                    elements=1 << bits,
                    n=spec.n,
                    layout=layout,
                    machine=spec.machine,
                )
            )
    if len(candidates) < spec.shapes:
        raise ValueError(
            f"only {len(candidates)} valid shape(s) exist for n={spec.n}, "
            f"requested a pool of {spec.shapes}"
        )
    return rng.sample(candidates, spec.shapes)


def build_workload(spec: LoadSpec) -> list[TransposeRequest]:
    """The full request sequence — a pure function of the spec."""
    rng = random.Random(spec.seed)
    pool = _shape_pool(spec, rng)
    requests = []
    for rid in range(spec.requests):
        problem = rng.choice(pool)
        if spec.workload is not None and rid % spec.workload_every == 0:
            # The pool draw above still happens so the transpose
            # sub-stream is identical with and without workload mixing.
            problem = BatchRequest(
                n=spec.n, machine=spec.machine, workload=spec.workload
            )
        if spec.fault_rate and rng.random() < spec.fault_rate:
            problem = replace(
                problem,
                faults=(
                    f"seed={rng.randrange(1 << 16)},link_rate=0.03,"
                    f"transient_rate=0.4,window=4"
                ),
            )
        requests.append(
            TransposeRequest(
                tenant=f"tenant-{rid % spec.tenants}",
                problem=problem,
                priority=rng.randrange(spec.priority_levels),
                deadline=spec.deadline,
                request_id=rid,
            )
        )
    return requests


def solo_fingerprint(request: TransposeRequest) -> str:
    """Fingerprint of a solo, uncached, single-threaded serve.

    Mirrors the worker's fault-free path exactly — fresh compile, fresh
    machine, replayed schedule — so a served outcome's fingerprint must
    equal this bit-for-bit.
    """
    from repro.transpose.planner import default_after_layout

    resolved = resolve_request(request)
    if resolved.workload is not None:
        from repro.workloads import build_pipeline

        pipeline = build_pipeline(
            request.problem.workload,
            request.problem.n,
            layout=request.problem.layout,
            elements=request.problem.elements,
        )
        plan, _ = pipeline.compile(resolved.params)
        network = EnsembleNetwork(resolved.params)
        replay_plan(plan, network)
        return stats_fingerprint(network.stats)
    target = (
        resolved.after
        if resolved.after is not None
        else default_after_layout(resolved.before)
    )
    _, plan = capture_transpose(
        resolved.params,
        synthetic_matrix(resolved.before),
        target,
        algorithm=resolved.algorithm,
    )
    network = EnsembleNetwork(resolved.params)
    replay_plan(plan, network)
    return stats_fingerprint(network.stats)


def solo_payload_check(request: TransposeRequest) -> dict:
    """Transpose *real* payload bytes solo and compare them to the math.

    The fingerprint check proves the served schedule was untouched; this
    proves the data a tenant would have received is bit-exact.  The same
    problem is run solo on a concrete matrix and the gathered result
    bytes are CRC-compared against ``original.T`` — a wrong byte
    anywhere in the payload flips the digest even when the schedule
    statistics happen to agree.
    """
    import zlib

    import numpy as np

    from repro.transpose.planner import default_after_layout, transpose

    resolved = resolve_request(request)
    if resolved.workload is not None:
        from repro.workloads import build_pipeline

        pipeline = build_pipeline(
            request.problem.workload,
            request.problem.n,
            layout=request.problem.layout,
            elements=request.problem.elements,
        )
        rows, cols = pipeline.shape.rows, pipeline.shape.cols
        original = np.arange(rows * cols, dtype=np.float64).reshape(
            rows, cols
        )
        network = EnsembleNetwork(resolved.params)
        served = pipeline.execute(network, original)
        served_bytes = np.ascontiguousarray(served).tobytes()
        expected_bytes = np.ascontiguousarray(
            pipeline.reference(original)
        ).tobytes()
        served_crc = zlib.crc32(served_bytes)
        expected_crc = zlib.crc32(expected_bytes)
        return {
            "ok": served_crc == expected_crc
            and served_bytes == expected_bytes,
            "served_crc": served_crc,
            "expected_crc": expected_crc,
        }
    target = (
        resolved.after
        if resolved.after is not None
        else default_after_layout(resolved.before)
    )
    matrix = synthetic_matrix(resolved.before)
    original = matrix.to_global()
    network = EnsembleNetwork(resolved.params)
    result = transpose(network, matrix, target, algorithm=resolved.algorithm)
    served_bytes = np.ascontiguousarray(result.matrix.to_global()).tobytes()
    expected_bytes = np.ascontiguousarray(original.T).tobytes()
    served_crc = zlib.crc32(served_bytes)
    expected_crc = zlib.crc32(expected_bytes)
    return {
        "ok": served_crc == expected_crc
        and served_bytes == expected_bytes,
        "served_crc": served_crc,
        "expected_crc": expected_crc,
    }


@dataclass
class LoadReport:
    """Everything one loadgen session learned."""

    spec: LoadSpec
    server: ServerReport
    verified: int = 0
    invariant_violations: int = 0
    mismatches: list | None = None
    #: Closed-loop client waits that hit ``spec.request_timeout``.
    expired: int = 0
    #: Sampled requests re-run solo on real data with byte comparison.
    payload_checked: int = 0
    #: Merged dual-axis Perfetto trace document (None when the server
    #: ran with tracing off).  Not part of :meth:`as_dict` — the CLI
    #: writes it to its own file via ``--trace``.
    trace: dict | None = None
    #: Prometheus text snapshot of the merged worker registries, taken
    #: after the drain (``repro loadgen --metrics-out``).
    metrics_text: str = ""

    @property
    def ok(self) -> bool:
        return self.invariant_violations == 0

    def summary(self) -> str:
        slo = self.server.slo()
        lat = slo["latency_s"]["total"]
        return (
            f"{slo['requests']} request(s): {slo['served']} served, "
            f"{slo['rejected']} shed, {slo['deadline_missed']} missed "
            f"deadline, {slo['failed']} failed; cache hit rate "
            f"{slo['cache_hit_rate']:.1%}; total latency p50 "
            f"{lat['p50'] * 1e3:.1f} ms / p95 {lat['p95'] * 1e3:.1f} ms / "
            f"p99 {lat['p99'] * 1e3:.1f} ms; invariants: "
            f"{self.verified} spot-checked "
            f"({self.payload_checked} payload-byte), "
            f"{self.invariant_violations} violation(s)"
            + (
                f"; {self.expired} client wait(s) expired"
                if self.expired
                else ""
            )
        )

    def as_dict(self, *, with_outcomes: bool = False) -> dict:
        return {
            "spec": self.spec.as_dict(),
            "server": self.server.as_dict(with_outcomes=with_outcomes),
            "verification": {
                "checked": self.verified,
                "payload_checked": self.payload_checked,
                "violations": self.invariant_violations,
                "mismatches": self.mismatches or [],
                "expired": self.expired,
            },
            "ok": self.ok,
        }


def _drive_closed(
    server: TransposeServer, requests: list[TransposeRequest], spec: LoadSpec
) -> int:
    """One client thread per tenant, each waiting out its own requests.

    Returns how many waits expired client-side (``spec.request_timeout``
    elapsed with no outcome) — the request itself may still resolve
    server-side afterwards, so expiries are an independent count, not a
    server outcome.
    """
    by_tenant: dict[str, list[TransposeRequest]] = {}
    for request in requests:
        by_tenant.setdefault(request.tenant, []).append(request)
    expired = itertools.count()
    expired_total = 0

    def client(mine: list[TransposeRequest]) -> None:
        for request in mine:
            try:
                pending = server.submit(request)
            except AdmissionRejectedError:
                continue  # shed: counted by the server, move on
            try:
                pending.result(timeout=spec.request_timeout)
            except TimeoutError:
                next(expired)  # count() is GIL-atomic across clients

    threads = [
        threading.Thread(target=client, args=(mine,), daemon=True)
        for mine in by_tenant.values()
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    expired_total = next(expired)
    return expired_total


def _drive_open(
    server: TransposeServer,
    requests: list[TransposeRequest],
    spec: LoadSpec,
) -> None:
    """Submit on a seeded arrival schedule; never wait for completions."""
    rng = random.Random(spec.seed ^ 0x5EED)
    for request in requests:
        try:
            server.submit(request)
        except AdmissionRejectedError:
            pass
        time.sleep(rng.expovariate(spec.rate))


def _verify(
    spec: LoadSpec,
    requests: list[TransposeRequest],
    outcomes: list[ServeOutcome],
) -> tuple[int, int, list, int]:
    by_id = {r.request_id: r for r in requests}
    candidates = [
        o
        for o in outcomes
        if o.status == "served"
        and o.resolved == "clean"
        and not by_id[o.request_id].problem.faults
    ]
    rng = random.Random(spec.seed + 1)
    sample = (
        candidates
        if len(candidates) <= spec.verify_sample
        else rng.sample(candidates, spec.verify_sample)
    )
    mismatches = []
    payload_checked = 0
    for outcome in sample:
        expected = solo_fingerprint(by_id[outcome.request_id])
        if expected != outcome.fingerprint:
            mismatches.append(
                {
                    "kind": "fingerprint",
                    "request_id": outcome.request_id,
                    "tenant": outcome.tenant,
                    "served": outcome.fingerprint,
                    "solo": expected,
                }
            )
            continue  # schedule already wrong; payload check is moot
        # The fingerprint proved the schedule; now prove the bytes.  A
        # solo run of the same problem on real data must produce
        # exactly ``original.T`` — any silent payload damage the
        # serving stack let through would surface here.
        payload = solo_payload_check(by_id[outcome.request_id])
        payload_checked += 1
        if not payload["ok"]:
            mismatches.append(
                {
                    "kind": "payload",
                    "request_id": outcome.request_id,
                    "tenant": outcome.tenant,
                    "served": payload["served_crc"],
                    "solo": payload["expected_crc"],
                }
            )
    return len(sample), len(mismatches), mismatches, payload_checked


def run_loadgen(
    spec: LoadSpec, config: ServerConfig | None = None
) -> LoadReport:
    """Drive a server with the seeded workload and verify a sample."""
    server = TransposeServer(config)
    requests = build_workload(spec)
    expired = 0
    with server:
        if spec.mode == "closed":
            expired = _drive_closed(server, requests, spec)
        else:
            _drive_open(server, requests, spec)
        server.drain()
    report = server.report()
    verified, violations, mismatches, payload_checked = _verify(
        spec, requests, report.outcomes
    )
    return LoadReport(
        spec=spec,
        server=report,
        verified=verified,
        invariant_violations=violations,
        mismatches=mismatches,
        expired=expired,
        payload_checked=payload_checked,
        trace=server.trace_document() if server.config.trace else None,
        metrics_text=format_prometheus(server.metrics()),
    )


def deterministic_counters(
    spec: LoadSpec, config: ServerConfig | None = None
) -> dict:
    """Integer-exact serving counters for the perf-regression gate.

    Wall-clock latencies are noise, but *what happened* is not: with a
    single worker, a frozen logical clock, submission completed before
    the worker starts, and no rate gate, every counter below is a pure
    function of (spec, config) — which requests were admitted or shed,
    what was served from cache, how much modelled time the fleet
    charged.  This is what the two service baseline scenarios pin.
    """
    if config is None:
        config = ServerConfig()
    config = replace(config, workers=1, tenant_rate=None)
    server = TransposeServer(config, clock=lambda: 0.0)
    requests = build_workload(spec)
    admitted = 0
    rejected: dict[str, int] = {}
    for request in requests:
        try:
            server.submit(request)
            admitted += 1
        except AdmissionRejectedError as exc:
            rejected[exc.reason] = rejected.get(exc.reason, 0) + 1
    server.start()
    server.drain()
    server.stop()
    report = server.report()
    served = [o for o in report.outcomes if o.status == "served"]
    counters: dict = {
        "requests": len(requests),
        "admitted": admitted,
        "served": len(served),
        "failed": sum(1 for o in report.outcomes if o.status == "failed"),
        "cache_hits": sum(1 for o in served if o.cache_hit),
        "cache_misses": sum(1 for o in served if not o.cache_hit),
        "modelled_time_total": sum(o.modelled_time for o in served),
        "recovered": sum(
            1
            for o in served
            if o.resolved == "resume" or o.resolved.startswith("surgery-")
        ),
        "laddered": sum(1 for o in served if o.resolved == "ladder"),
    }
    for reason in sorted(rejected):
        counters[f"rejected_{reason}"] = rejected[reason]
    counters["rejected"] = sum(rejected.values())
    # Resilience counters are zero-suppressed: the pinned baseline
    # scenarios have no chaos, so their files stay byte-identical,
    # while a run that did restart workers or quarantine requests
    # shows it here (and the gate would flag it as a breach).
    for status in ("poisoned", "stopped"):
        count = sum(1 for o in report.outcomes if o.status == status)
        if count:
            counters[status] = count
    retried = sum(1 for o in report.outcomes if o.attempts > 1)
    if retried:
        counters["retried"] = retried
    resilience = report.resilience or {}
    supervisor = resilience.get("supervisor") or {}
    if supervisor.get("restarts"):
        counters["worker_restarts"] = supervisor["restarts"]
    if supervisor.get("quarantined"):
        counters["poison_quarantined"] = supervisor["quarantined"]
    breaker = resilience.get("breaker") or {}
    if breaker.get("trips"):
        counters["breaker_trips"] = breaker["trips"]
    brownout = resilience.get("brownout") or {}
    if brownout.get("steps"):
        counters["brownout_steps"] = brownout["steps"]
    return counters
