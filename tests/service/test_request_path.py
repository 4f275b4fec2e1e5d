"""The batch layer and the server serve a request the same way.

Both resolve a problem once and serve it through one path, so the same
request must come back with the same tier, the same ``resolved``
verdict, the same modelled time and the same recovery accounting,
whichever of the two served it.
"""

import itertools

import pytest

from repro.obs import Instrumentation
from repro.plans import PlanCache, batch
from repro.plans.batch import BatchRequest, run_batch, serve
from repro.recovery import RecoveryPolicy
from repro.service import ServerConfig, TransposeRequest, TransposeServer

CM4 = {"n": 4, "machine": "cm"}

CASES = {
    "torus-mpt-faulted": dict(
        CM4, elements=256, algorithm="mpt", topology="torus:4x4",
        faults="links=0-3,seed=3",
    ),
    "torus-auto-faulted": dict(
        CM4, elements=256, topology="torus:4x4", faults="links=0-3,seed=3"
    ),
    "cube-mpt-faulted": dict(
        CM4, elements=256, algorithm="mpt", faults="links=0-1,seed=3"
    ),
    "cube-auto-transient": dict(
        CM4, elements=256, faults="tlinks=0-1@1-3"
    ),
    "fft-clean": dict(CM4, workload="fft@16x16"),
    "fft-faulted": dict(CM4, workload="fft@16x16", faults="links=0-1"),
    "cube-clean": dict(CM4, elements=256),
}


def serve_alone(problem: BatchRequest):
    with TransposeServer(ServerConfig()) as server:
        pending = server.submit(TransposeRequest(tenant="t", problem=problem))
        outcome = pending.result(timeout=60.0)
    assert outcome.status == "served", outcome.error
    return outcome


@pytest.mark.parametrize("fields", CASES.values(), ids=list(CASES))
def test_batch_and_server_agree(fields):
    problem = BatchRequest(**fields)
    (batch,) = run_batch(
        [problem], recovery=RecoveryPolicy.from_spec("every=4")
    ).outcomes
    served = serve_alone(problem)
    assert (
        served.algorithm,
        served.resolved,
        served.modelled_time,
        served.recovery,
    ) == (batch.algorithm, batch.resolved, batch.modelled_time, batch.recovery)


def test_capability_floor_is_not_a_degradation():
    """``mpt`` on a torus resolves to the routed-universal floor at
    admission; serving that tier under faults it survives is clean."""
    served = serve_alone(BatchRequest(**CASES["torus-mpt-faulted"]))
    assert served.algorithm == "routed-universal"
    assert served.resolved == "clean"


def test_cold_unobserved_transpose_is_not_replayed(monkeypatch):
    """A batch miss keeps the capture run's stats; only hits replay."""
    replays = []
    real = batch.replay_plan
    monkeypatch.setattr(
        batch, "replay_plan", lambda *a: replays.append(1) or real(*a)
    )
    problem = BatchRequest(**CASES["cube-clean"])
    cold, warm = run_batch([problem, problem]).outcomes
    assert (cold.cache_hit, warm.cache_hit) == (False, True)
    assert len(replays) == 1
    assert cold.modelled_time == warm.modelled_time


@pytest.mark.parametrize(
    "traced, wall", [(False, True), (True, True), (True, False)]
)
def test_stage_spans_follow_the_traced_flag(traced, wall):
    """An armed wall axis alone opens no stage span; a traced serve opens
    both and records the execute span's wall time, if it has one."""
    hub = Instrumentation(
        wall_clock=itertools.count().__next__ if wall else None
    )
    served = serve(
        BatchRequest(**CASES["cube-clean"]).resolve(),
        PlanCache(),
        observer=hub,
        traced=traced,
    )
    stages = {s.name: s for s in hub.spans if s.category in ("plan", "execute")}
    doc = served.stats.as_dict()
    if not traced:
        assert stages == {}
        assert "traced_requests" not in doc
        return
    assert set(stages) == {"plan-resolve", "execute"}
    assert doc["traced_requests"] == 1
    execute = stages["execute"]
    assert doc.get("trace_wall_seconds", 0.0) == (
        execute.wall_duration if wall else 0.0
    )
