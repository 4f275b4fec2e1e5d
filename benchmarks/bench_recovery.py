"""Recovery economics: resume-from-checkpoint vs restart-from-scratch.

A restart-based system answers a mid-run fault by throwing the whole
prefix away: every phase completed before the fault is re-executed.  The
recovery executor instead rolls back to the newest checkpoint, so a
fault costs at most ``checkpoint_every`` replayed phases no matter how
deep into the run it lands.

Two sweeps on the captured MPT plan:

(1) *fault depth* — one transient link fault whose window slides later
    and later into the schedule; restart's replay bill grows linearly
    with depth while resume's stays pinned at the cadence;
(2) *cadence* — the same mid-run fault under coarser and coarser
    checkpoint cadences, pricing the snapshot-count/replay-length trade
    documented in ``docs/recovery.md``.

Both sweeps self-verify (symbolic final-state check), and the depth
sweep asserts the headline claim: for every fault landing after the
first checkpoint interval, resume replays *strictly fewer* phases than
restart.
"""

from benchmarks.reporting import emit_table
from repro.machine import EnsembleNetwork, FaultPlan
from repro.machine.faults import FaultError
from repro.machine.presets import connection_machine
from repro.plans.batch import resolve_problem
from repro.plans.ir import IdleOp, PhaseOp
from repro.plans.recorder import RecordingNetwork, synthetic_matrix
from repro.plans.replay import replay_plan
from repro.recovery import RecoveryPolicy, execute_with_recovery
from repro.transpose.planner import default_after_layout, transpose

N = 4
ELEMENTS = 1 << 10
ALGORITHM = "mpt"
CADENCE = 2

def captured():
    params = connection_machine(N)
    before, after = resolve_problem(N, ELEMENTS, "2d")
    recorder = RecordingNetwork(params)
    result = transpose(
        recorder, synthetic_matrix(before), after, algorithm=ALGORITHM
    )
    plan = recorder.compile(
        algorithm=result.algorithm,
        before=before,
        after=after if after is not None else default_after_layout(before),
        requested=ALGORITHM,
    )
    return params, plan


def plan_phases(plan) -> int:
    return sum(1 for op in plan.ops if isinstance(op, (PhaseOp, IdleOp)))


def depth_specs(plan) -> list[str]:
    """Fault specs derived from the schedule: one transient window per
    depth (early / middle / last phase), each on a link that phase
    actually uses, plus one permanent fault for the surgery path."""
    from repro.recovery import physicalize

    usage: list[list[tuple[int, int]]] = []
    for op in physicalize(plan.ops):
        if isinstance(op, PhaseOp):
            usage.append(sorted({(m.src, m.dst) for m in op.messages}))
        elif isinstance(op, IdleOp):
            usage.append([])
    phases = [p for p, links in enumerate(usage) if links]
    targets = sorted({phases[0], phases[len(phases) // 2], phases[-1]})
    specs = []
    for p in targets:
        src, dst = usage[p][0]
        specs.append(f"tlinks={src}-{dst}@{p}-{p + 2}")
    specs.append("links=0-1")
    return specs


def restart_replay_bill(params, plan, faults) -> int:
    """Phases a restart-based executor would discard at the first fault."""
    network = EnsembleNetwork(params, faults=faults)
    try:
        replay_plan(plan, network)
    except FaultError:
        return network.phase_index  # the whole completed prefix
    return 0  # fault window never intersected the schedule


def sweep_depth():
    params, plan = captured()
    total = plan_phases(plan)
    policy = RecoveryPolicy(checkpoint_every=CADENCE)
    rows = []
    for spec in depth_specs(plan):
        faults = FaultPlan.from_spec(N, spec)
        restart = restart_replay_bill(params, plan, faults)
        outcome = execute_with_recovery(
            plan, EnsembleNetwork(params, faults=faults), policy=policy
        )
        assert outcome.verified
        rows.append(
            [
                spec,
                total,
                restart if restart else "-",
                outcome.report.replayed_phases,
                outcome.report.rollbacks,
                outcome.report.checkpoints_taken,
                outcome.report.backoff_phases,
                outcome.report.wasted_elements,
                outcome.report.resolved,
            ]
        )
    return rows


def sweep_cadence():
    params, plan = captured()
    # The deepest transient window from the depth sweep: the point where
    # cadence matters most.
    faults = FaultPlan.from_spec(N, depth_specs(plan)[-2])
    rows = []
    for every in (1, 2, 4, 8, 16):
        outcome = execute_with_recovery(
            plan,
            EnsembleNetwork(params, faults=faults),
            policy=RecoveryPolicy(checkpoint_every=every),
        )
        assert outcome.verified
        rows.append(
            [
                every,
                outcome.report.checkpoints_taken,
                outcome.report.replayed_phases,
                outcome.report.wasted_elements,
                outcome.elapsed,
            ]
        )
    return rows


def test_resume_beats_restart(benchmark):
    rows = benchmark.pedantic(sweep_depth, rounds=1, iterations=1)
    emit_table(
        "recovery_resume_vs_restart",
        "Replay bill per fault: resume-from-checkpoint vs restart "
        f"(CM {N}-cube, {ELEMENTS} elements, {ALGORITHM}, "
        f"checkpoint every {CADENCE})",
        ["fault spec", "plan phases", "restart replays", "resume replays",
         "rollbacks", "checkpoints", "backoff", "wasted elems", "resolved"],
        rows,
        notes="restart replays = completed phases a restart-based system "
        "discards at the fault ('-' = fault at phase 0, nothing to "
        "discard); resume replays are bounded by the checkpoint cadence "
        "regardless of fault depth.  For the permanent fault a restart "
        "would loop forever (same fault on every attempt; the column "
        "shows the first attempt's bill) — resume repairs the plan "
        "and finishes.",
    )
    hit = [r for r in rows if r[2] != "-" and r[4] > 0]
    assert hit, "no sweep point actually encountered its fault"
    # The headline claim: past the first checkpoint interval, resume
    # strictly beats restart.
    deep = [r for r in hit if r[2] > CADENCE]
    assert deep, "no fault landed after the first checkpoint interval"
    for row in deep:
        assert row[3] < row[2], (
            f"resume replayed {row[3]} phase(s) but restart only "
            f"{row[2]} for {row[0]}"
        )
    # And the bound itself: replays never exceed rollbacks x cadence.
    for row in hit:
        assert row[3] <= row[4] * CADENCE


def test_cadence_trades_snapshots_for_replay(benchmark):
    rows = benchmark.pedantic(sweep_cadence, rounds=1, iterations=1)
    emit_table(
        "recovery_cadence_tradeoff",
        "Checkpoint cadence vs replay length (same mid-run transient "
        f"fault, CM {N}-cube, {ELEMENTS} elements, {ALGORITHM})",
        ["every", "checkpoints", "resume replays", "wasted elems",
         "model time"],
        rows,
        notes="Finer cadence takes more snapshots and replays less; the "
        "modelled time is flat because snapshots are priced as memory "
        "copies, not communication.",
    )
    assert rows[0][2] <= rows[-1][2]  # finest cadence replays the least
    assert rows[0][1] >= rows[-1][1]  # ...by taking the most snapshots
