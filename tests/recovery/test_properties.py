"""Property: checkpoint -> fault -> rollback -> resume is lossless.

For any seeded random fault plan whose surviving topology stays
connected, a recovered run of a captured transpose plan must end
bit-identical to the fault-free run of the same plan — same blocks, same
nodes, same array contents — and conserve the element totals.  The
checkpoint cadence is drawn alongside the fault plan so the property
covers "checkpoint every phase" through "one checkpoint for the run".
"""

import functools

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.machine import EnsembleNetwork
from repro.machine.faults import FaultPlan
from repro.machine.presets import connection_machine
from repro.plans.batch import resolve_problem
from repro.plans.recorder import RecordingNetwork, synthetic_matrix
from repro.recovery import (
    RecoveryFailedError,
    RecoveryPolicy,
    execute_with_recovery,
    outcomes_equivalent,
)
from repro.transpose.planner import default_after_layout, transpose

N = 4


@functools.lru_cache(maxsize=4)
def captured(algorithm, elements):
    params = connection_machine(N)
    before, after = resolve_problem(N, elements, "2d")
    recorder = RecordingNetwork(params, record_payloads=True)
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


def totals(outcome):
    return sum(block.size for _, block in outcome.collected.values()) + sum(
        size for _, size in outcome.residual.values()
    )


@given(
    seed=st.integers(min_value=0, max_value=9999),
    algorithm=st.sampled_from(["mpt", "spt"]),
    checkpoint_every=st.integers(min_value=1, max_value=8),
    link_rate=st.floats(min_value=0.0, max_value=0.05),
    transient_rate=st.floats(min_value=0.0, max_value=0.2),
    window=st.integers(min_value=4, max_value=32),
)
@settings(max_examples=25, deadline=None)
def test_recovered_run_is_bit_identical_to_fault_free_run(
    seed, algorithm, checkpoint_every, link_rate, transient_rate, window
):
    params, plan, payloads = captured(algorithm, 256)
    faults = FaultPlan.random(
        N,
        seed=seed,
        link_rate=link_rate,
        transient_rate=transient_rate,
        window=window,
    )
    assume(faults.surviving_connected())
    policy = RecoveryPolicy(checkpoint_every=checkpoint_every)
    clean = execute_with_recovery(
        plan, EnsembleNetwork(params), policy=policy, payloads=payloads
    )
    assert clean.verified

    network = EnsembleNetwork(params, faults=faults)
    try:
        recovered = execute_with_recovery(
            plan, network, policy=policy, payloads=payloads
        )
    except RecoveryFailedError:
        # Out of the resume property's scope: the caller documented
        # fallback is the degradation ladder (soaked in test_chaos).
        assume(False)
        return

    assert recovered.verified
    assert outcomes_equivalent(recovered, clean)
    assert totals(recovered) == totals(clean) > 0
    if recovered.report.rollbacks:
        # Resume must beat restart: each rollback replays at most one
        # checkpoint interval, never the whole prefix.
        assert recovered.report.replayed_phases <= (
            recovered.report.rollbacks * checkpoint_every
        )
