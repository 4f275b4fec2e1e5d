"""Recovery executor: resume on transients, surgery on permanents."""

import numpy as np
import pytest

from repro.machine import EnsembleNetwork
from repro.machine.faults import FaultPlan
from repro.machine.presets import connection_machine
from repro.plans.batch import resolve_problem
from repro.plans.ir import IdleOp, PhaseOp
from repro.plans.recorder import RecordingNetwork, synthetic_matrix
from repro.plans.replay import PlanReplayError
from repro.recovery import (
    RecoveryFailedError,
    RecoveryPolicy,
    execute_with_recovery,
    outcomes_equivalent,
)
from repro.transpose.planner import default_after_layout, transpose


def captured(n=4, elements=256, algorithm="mpt", payloads=False):
    """Capture one clean transpose as a compiled plan (+payload ledger)."""
    params = connection_machine(n)
    before, after = resolve_problem(n, elements, "2d")
    recorder = RecordingNetwork(params, record_payloads=payloads)
    result = transpose(
        recorder, synthetic_matrix(before), after, algorithm=algorithm
    )
    plan = recorder.compile(
        algorithm=result.algorithm,
        before=before,
        after=after if after is not None else default_after_layout(before),
        requested=algorithm,
    )
    return params, plan, recorder.payloads


def plan_phases(plan):
    return sum(1 for op in plan.ops if isinstance(op, (PhaseOp, IdleOp)))


TRANSIENT = "tlinks=0-1@1-3"
PERMANENT = "links=0-1"


class TestCleanRun:
    def test_clean_run_verifies_and_stays_clean(self):
        params, plan, _ = captured()
        outcome = execute_with_recovery(plan, EnsembleNetwork(params))
        assert outcome.verified
        assert outcome.report.resolved == "clean"
        assert not outcome.report.recovered
        assert outcome.report.fault_encounters == 0
        assert outcome.report.checkpoints_taken >= 1

    def test_rejects_incompatible_network(self):
        params, plan, _ = captured(n=4)
        other = EnsembleNetwork(connection_machine(3))
        with pytest.raises(PlanReplayError, match="compiled for"):
            execute_with_recovery(plan, other)


class TestTransientResume:
    def test_backoff_then_resume(self):
        params, plan, _ = captured()
        net = EnsembleNetwork(params, faults=FaultPlan.from_spec(4, TRANSIENT))
        outcome = execute_with_recovery(
            plan, net, policy=RecoveryPolicy(checkpoint_every=2)
        )
        assert outcome.verified
        assert outcome.report.resolved == "resume"
        assert outcome.report.rollbacks >= 1
        assert outcome.report.backoff_phases >= 1
        assert outcome.report.mttr and all(d > 0 for d in outcome.report.mttr)

    def test_resume_replays_strictly_fewer_phases_than_restart(self):
        params, plan, _ = captured()
        net = EnsembleNetwork(params, faults=FaultPlan.from_spec(4, TRANSIENT))
        outcome = execute_with_recovery(
            plan, net, policy=RecoveryPolicy(checkpoint_every=2)
        )
        # A restart would re-run every phase before the fault; resume
        # replays at most the checkpoint cadence.
        assert 0 < outcome.report.replayed_phases < plan_phases(plan)
        assert outcome.report.replayed_phases <= 2 * outcome.report.rollbacks

    def test_phase_clock_never_rolls_back(self):
        params, plan, _ = captured()
        net = EnsembleNetwork(params, faults=FaultPlan.from_spec(4, TRANSIENT))
        execute_with_recovery(
            plan, net, policy=RecoveryPolicy(checkpoint_every=2)
        )
        clean_net = EnsembleNetwork(params)
        execute_with_recovery(plan, clean_net)
        # Backoff and replay phases advance the clock; rollback never
        # rewinds it, so the faulted run ends later than the clean one.
        assert net.phase_index > clean_net.phase_index

    def test_backoff_budget_exhaustion(self):
        params, plan, _ = captured()
        net = EnsembleNetwork(
            params, faults=FaultPlan.from_spec(4, "tlinks=0-1@1-100")
        )
        with pytest.raises(RecoveryFailedError, match="backoff budget"):
            execute_with_recovery(
                plan,
                net,
                policy=RecoveryPolicy(
                    checkpoint_every=2, max_backoff_phases=3
                ),
            )

    def test_rollback_budget_exhaustion_carries_report(self):
        params, plan, _ = captured()
        net = EnsembleNetwork(params, faults=FaultPlan.from_spec(4, TRANSIENT))
        with pytest.raises(RecoveryFailedError, match="rollback budget") as e:
            execute_with_recovery(
                plan, net, policy=RecoveryPolicy(max_rollbacks=0)
            )
        assert e.value.report.fault_encounters == 1


class TestPermanentSurgery:
    def test_surgery_repairs_and_verifies(self):
        params, plan, _ = captured()
        net = EnsembleNetwork(params, faults=FaultPlan.from_spec(4, PERMANENT))
        outcome = execute_with_recovery(
            plan, net, policy=RecoveryPolicy(checkpoint_every=2)
        )
        assert outcome.verified
        assert outcome.report.resolved.startswith("surgery-")
        assert outcome.report.surgeries
        surgery = outcome.report.surgeries[0]
        assert surgery["strategy"] in ("detour", "relabel")
        assert surgery["added_element_hops"] > 0

    def test_surgery_disabled_fails_over(self):
        params, plan, _ = captured()
        net = EnsembleNetwork(params, faults=FaultPlan.from_spec(4, PERMANENT))
        with pytest.raises(RecoveryFailedError, match="surgery disabled"):
            execute_with_recovery(
                plan, net, policy=RecoveryPolicy(allow_surgery=False)
            )


class TestPayloadIdentity:
    def test_recovered_payloads_match_fault_free_run(self):
        params, plan, payloads = captured(payloads=True)
        policy = RecoveryPolicy(checkpoint_every=2)
        clean = execute_with_recovery(
            plan, EnsembleNetwork(params), policy=policy, payloads=payloads
        )
        for spec in (TRANSIENT, PERMANENT):
            net = EnsembleNetwork(params, faults=FaultPlan.from_spec(4, spec))
            faulted = execute_with_recovery(
                plan, net, policy=policy, payloads=payloads
            )
            assert faulted.verified
            assert faulted.report.recovered
            assert outcomes_equivalent(faulted, clean)

    def test_collected_blocks_carry_real_arrays(self):
        params, plan, payloads = captured(payloads=True)
        outcome = execute_with_recovery(
            plan, EnsembleNetwork(params), payloads=payloads
        )
        assert outcome.collected
        for _key, (_node, block) in outcome.collected.items():
            assert isinstance(block.data, np.ndarray)

    def test_element_totals_conserved_through_recovery(self):
        params, plan, payloads = captured(payloads=True)

        def totals(outcome):
            return sum(
                b.size for _, b in outcome.collected.values()
            ) + sum(size for _, size in outcome.residual.values())

        clean = execute_with_recovery(
            plan, EnsembleNetwork(params), payloads=payloads
        )
        net = EnsembleNetwork(params, faults=FaultPlan.from_spec(4, TRANSIENT))
        outcome = execute_with_recovery(
            plan,
            net,
            policy=RecoveryPolicy(checkpoint_every=2),
            payloads=payloads,
        )
        assert outcome.report.recovered
        assert totals(outcome) == totals(clean) > 0
