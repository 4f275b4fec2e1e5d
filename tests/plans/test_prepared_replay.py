"""Prepared replay is indistinguishable from walking the plan.

``replay_plan`` walks a plan through the engine once per machine and
then applies the recorded effect on every later clean replay.  Every
case here runs under both engines — ``reference`` (the private walk
inside the same ``replay`` span) and ``prepared`` (``replay_plan`` after
one warm call) — and must observe the same stats, holdings, hub metrics,
spans and trace timeline.  The negative cases pin when the walk still
runs, that the memo is keyed by machine, and that corrupt plans fail
the same way every time.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from functools import cache

import pytest

import repro.plans.replay as replay_module
from repro.integrity.manager import IntegrityManager
from repro.layout import partition as pt
from repro.machine.engine import EnsembleNetwork
from repro.machine.faults import FaultPlan
from repro.machine.message import Block
from repro.machine.presets import connection_machine, intel_ipsc
from repro.machine.trace import TraceRecorder
from repro.obs.instrumentation import Instrumentation
from repro.plans import CompiledPlan, capture_transpose, replay_plan, synthetic_matrix
from repro.plans.ir import PhaseOp
from repro.plans.recorder import RecordingNetwork
from repro.recovery.checkpoint import CheckpointManager
from repro.service.request import stats_fingerprint
from repro.topology.capabilities import CUBE_ALGORITHMS
from repro.workloads.spec import build_pipeline

PRESETS = {"cm": connection_machine, "ipsc": intel_ipsc}
#: Tiers that also take the paper's 1-D (all-to-all) row layout.
ROW_TIERS = ("exchange", "block-exchange", "block-sbnt")


@pytest.fixture(params=["reference", "prepared"])
def engine(request):
    return request.param


@cache
def captured(preset: str, n: int, algorithm: str, layout: str) -> CompiledPlan:
    half = n // 2
    before = (
        pt.two_dim_cyclic(half + 1, half + 1, half, half)
        if layout == "2d"
        else pt.row_consecutive(n, n, n)
    )
    _, plan = capture_transpose(
        PRESETS[preset](n), synthetic_matrix(before), algorithm=algorithm
    )
    assert plan.algorithm == algorithm
    return plan


def tier_cases():
    for preset in PRESETS:
        for n in (2, 4, 6):
            for algorithm in CUBE_ALGORITHMS:
                yield pytest.param(
                    preset, n, algorithm, "2d", id=f"{preset}-n{n}-{algorithm}"
                )
                if algorithm in ROW_TIERS:
                    yield pytest.param(
                        preset, n, algorithm, "rows",
                        id=f"{preset}-n{n}-{algorithm}-rows",
                    )


def run(engine: str, plan: CompiledPlan, network: EnsembleNetwork) -> None:
    if engine == "prepared":
        replay_plan(plan, EnsembleNetwork(network.params, topology=network.topology))
        replay_plan(plan, network)
        return
    hub = network.observer
    with hub.span(
        "replay",
        category="algorithm",
        algorithm=plan.algorithm,
        ops=len(plan.ops),
        fingerprint=plan.fingerprint[:12],
    ):
        replay_module._replay_ops(plan, network, 0, True)


def observe(engine: str, plan: CompiledPlan, params) -> tuple:
    """Everything a caller can see of one replay on a watched network."""
    network = EnsembleNetwork(params)
    trace = TraceRecorder()
    hub = Instrumentation(trace).attach(network)
    run(engine, plan, network)
    return (
        network.stats.as_dict(),
        stats_fingerprint(network.stats),
        network.holdings(),
        hub.metrics.as_dict(),
        [(s.name, s.category, s.attrs, s.start, s.end) for s in hub.spans],
        trace.render(max_phases=len(trace.events)),
    )


def assert_same(engine: str, plan: CompiledPlan, params) -> None:
    seen = observe(engine, plan, params)
    assert seen == observe("reference", plan, params)
    assert seen[0]["phases"] == plan.num_phases


@pytest.mark.parametrize("preset,n,algorithm,layout", list(tier_cases()))
def test_every_tier(engine, preset, n, algorithm, layout):
    plan = captured(preset, n, algorithm, layout)
    assert_same(engine, plan, PRESETS[preset](n))


def test_relabeled_plan(engine):
    plan = captured("ipsc", 4, "dpt", "2d").relabeled(9)
    assert_same(engine, plan, intel_ipsc(4))


@pytest.mark.parametrize("spec,n", [("fft@16x16", 4), ("transpose@13x11", 4)])
def test_pipeline_plans(engine, spec, n):
    params = connection_machine(n)
    plan, _ = build_pipeline(spec, n).compile(params)
    assert_same(engine, plan, params)


def test_round_tripped_plan(engine):
    plan = CompiledPlan.loads(captured("cm", 6, "mpt", "2d").dumps())
    assert_same(engine, plan, connection_machine(6))


def test_memo_is_outside_the_plan_value():
    plan = CompiledPlan.loads(captured("cm", 4, "mpt", "2d").dumps())
    text, fingerprint = plan.dumps(), plan.fingerprint
    replay_plan(plan, EnsembleNetwork(connection_machine(4)))
    assert plan.__dict__["_prepared"]
    assert plan == captured("cm", 4, "mpt", "2d")
    assert hash(plan) == hash(captured("cm", 4, "mpt", "2d"))
    assert (plan.dumps(), plan.fingerprint) == (text, fingerprint)
    assert "_prepared" not in plan.to_json_dict()


# -- when the walk still runs ---------------------------------------------------


@pytest.fixture
def walks(monkeypatch):
    """Networks ``_replay_ops`` walked, other than private preparations."""
    walked = []
    real = replay_module._replay_ops

    def counting(plan, network, mask, verify_sizes):
        walked.append(network)
        return real(plan, network, mask, verify_sizes)

    monkeypatch.setattr(replay_module, "_replay_ops", counting)
    return walked


def _subclass(params):
    return RecordingNetwork(params)


def _faulted(params):
    # A transient fault far past the schedule: present, never firing.
    faults = FaultPlan.from_spec(params.n, "tlinks=0-1@1000-1001")
    return EnsembleNetwork(params, faults=faults)


def _integrity(params):
    return EnsembleNetwork(params, integrity=IntegrityManager())


def _checkpointed(params):
    network = EnsembleNetwork(params)
    network.checkpoints = CheckpointManager(every=2)
    return network


def _occupied(params):
    network = EnsembleNetwork(params)
    network.place(0, Block(("stray",), virtual_size=1))
    return network


def _clocked(params):
    network = EnsembleNetwork(params)
    network.execute_local(1e-6)
    return network


@pytest.mark.parametrize(
    "make",
    [_subclass, _faulted, _integrity, _checkpointed, _occupied, _clocked],
    ids=["subclass", "faults", "integrity", "checkpoints-attr", "memory", "time"],
)
def test_ruled_out_networks_walk(walks, make):
    plan = captured("ipsc", 4, "mpt", "2d")
    params = intel_ipsc(4)
    replay_plan(plan, EnsembleNetwork(params))  # prepared and memoised
    walks.clear()
    network = make(params)
    replay_plan(plan, network)
    assert walks == [network]


def test_checkpoints_argument_walks(walks):
    plan = captured("ipsc", 4, "mpt", "2d")
    params = intel_ipsc(4)
    replay_plan(plan, EnsembleNetwork(params))
    walks.clear()
    network = EnsembleNetwork(params)
    replay_plan(plan, network, checkpoints=CheckpointManager(every=2))
    assert walks == [network]
    assert network.stats.checkpoints > 0


def test_clean_networks_apply(walks):
    plan = captured("ipsc", 4, "mpt", "2d")
    params = intel_ipsc(4)
    replay_plan(plan, EnsembleNetwork(params))
    walks.clear()
    empty_faults = EnsembleNetwork(params, faults=FaultPlan(n=4))
    for network in (EnsembleNetwork(params), empty_faults):
        replay_plan(plan, network)
    assert walks == []


def test_memo_is_keyed_by_machine():
    plan = CompiledPlan.loads(captured("ipsc", 4, "mpt", "2d").dumps())
    replay_plan(plan, EnsembleNetwork(intel_ipsc(4)))
    other = EnsembleNetwork(connection_machine(4))
    replay_plan(plan, other, check_params=False)
    reference = EnsembleNetwork(connection_machine(4))
    replay_module._replay_ops(plan, reference, 0, True)
    assert other.stats == reference.stats
    assert other.stats != EnsembleNetwork(intel_ipsc(4)).stats


# -- corrupt plans ----------------------------------------------------------


def _corrupt(plan: CompiledPlan, how: str) -> CompiledPlan:
    ops = list(plan.ops)
    index = next(i for i, op in enumerate(ops) if isinstance(op, PhaseOp))
    first, *rest = ops[index].messages
    if how == "elements":
        first = replace(first, elements=first.elements + 1)
    elif how == "non-link":
        first = replace(first, dst=first.src ^ 0b11)
    else:  # a second message carrying the first one's block
        rest.append(replace(first, dst=first.src ^ 0b10))
    ops[index] = replace(ops[index], messages=(first, *rest))
    return replace(plan, ops=tuple(ops))


@pytest.mark.parametrize("how", ["elements", "non-link", "duplicate-key"])
def test_corrupt_plans_fail_alike_and_store_nothing(how):
    plan = _corrupt(captured("ipsc", 4, "spt", "2d"), how)
    params = intel_ipsc(4)
    reference = EnsembleNetwork(params)
    with pytest.raises(Exception) as expected:
        replay_module._replay_ops(plan, reference, 0, True)
    for _ in range(2):
        network = EnsembleNetwork(params)
        with pytest.raises(type(expected.value)) as raised:
            replay_plan(plan, network)
        assert str(raised.value) == str(expected.value)
        assert network.holdings() == reference.holdings()
        assert network.stats == reference.stats
    assert not plan.__dict__.get("_prepared")


def test_concurrent_replays_agree():
    plan = CompiledPlan.loads(captured("cm", 6, "dpt", "2d").dumps())
    params = connection_machine(6)
    seen: list[set] = [set(), set()]

    def worker(out: set) -> None:
        for _ in range(50):
            network = EnsembleNetwork(params)
            replay_plan(plan, network)
            out.add(stats_fingerprint(network.stats))

    threads = [threading.Thread(target=worker, args=(out,)) for out in seen]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    reference = EnsembleNetwork(params)
    replay_module._replay_ops(plan, reference, 0, True)
    assert seen[0] == seen[1] == {stats_fingerprint(reference.stats)}
