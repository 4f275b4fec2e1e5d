"""Replaying a captured plan must be indistinguishable from direct execution.

The acceptance bar for the plans subsystem: for every algorithm family,
the replayed run produces a :class:`TransferStats` *equal in every
field* (times, phases, messages, start-ups, per-link loads, phase
timeline) to the run it was captured from, and leaves node memories in
the same drained state.
"""

import pytest

from repro.layout import partition as pt
from repro.machine.engine import EnsembleNetwork
from repro.machine.presets import connection_machine, intel_ipsc
from repro.plans import (
    PlanReplayError,
    capture_transpose,
    replay_plan,
    synthetic_matrix,
)

SQUARE_2D = pt.two_dim_cyclic(4, 4, 2, 2)
MIXED_2D = pt.two_dim_mixed(
    4, 4, 2, 2, rows="cyclic", cols="cyclic", col_gray=True
)

FAMILIES = [
    # (id, algorithm, params, before layout)
    ("exchange-1d", "exchange", intel_ipsc(3), pt.row_consecutive(4, 4, 3)),
    ("spt", "spt", intel_ipsc(4), SQUARE_2D),
    ("dpt", "dpt", intel_ipsc(4), SQUARE_2D),
    ("mpt-nport", "mpt", connection_machine(4), SQUARE_2D),
    ("mixed", "mixed-combined", intel_ipsc(4), MIXED_2D),
    ("router", "router", intel_ipsc(4), SQUARE_2D),
    ("routed-universal", "routed-universal", intel_ipsc(4), SQUARE_2D),
    ("block-sbnt", "block-sbnt", connection_machine(3), pt.row_consecutive(4, 4, 3)),
    ("block-exchange", "block-exchange", intel_ipsc(3), pt.row_consecutive(4, 4, 3)),
]


@pytest.mark.parametrize(
    "algorithm,params,before",
    [f[1:] for f in FAMILIES],
    ids=[f[0] for f in FAMILIES],
)
class TestReplayEquivalence:
    def test_stats_and_memories_identical(self, algorithm, params, before):
        result, plan = capture_transpose(
            params, synthetic_matrix(before), algorithm=algorithm
        )
        assert plan.algorithm == algorithm

        fresh = EnsembleNetwork(params)
        replay_plan(plan, fresh)

        # Full dataclass equality: every counter, the per-link element
        # loads and the complete phase timeline must match.
        assert fresh.stats == result.stats
        # The direct run drains node memories (invariant-checked); the
        # replay must leave the network in the same state.
        assert fresh.total_elements() == 0
        assert all(len(mem) == 0 for mem in fresh.memories)

    def test_replay_is_repeatable(self, algorithm, params, before):
        _, plan = capture_transpose(
            params, synthetic_matrix(before), algorithm=algorithm
        )
        first = EnsembleNetwork(params)
        second = EnsembleNetwork(params)
        replay_plan(plan, first)
        replay_plan(plan, second)
        assert first.stats == second.stats


class TestReplayGuards:
    def test_wrong_machine_rejected(self):
        _, plan = capture_transpose(intel_ipsc(4), synthetic_matrix(SQUARE_2D))
        with pytest.raises(PlanReplayError, match="compiled for"):
            replay_plan(plan, EnsembleNetwork(connection_machine(4)))

    def test_renamed_machine_is_compatible(self):
        params = intel_ipsc(4)
        _, plan = capture_transpose(params, synthetic_matrix(SQUARE_2D))
        renamed = EnsembleNetwork(
            type(params)(
                n=params.n,
                tau=params.tau,
                t_c=params.t_c,
                packet_capacity=params.packet_capacity,
                t_copy=params.t_copy,
                port_model=params.port_model,
                pipelined=params.pipelined,
                name="renamed",
            )
        )
        replay_plan(plan, renamed)  # same cost model, different name
        assert renamed.stats.phases == plan.num_phases

    def test_relabeled_plan_has_identical_cost(self):
        params = intel_ipsc(4)
        result, plan = capture_transpose(params, synthetic_matrix(SQUARE_2D))
        shifted = EnsembleNetwork(params)
        replay_plan(plan.relabeled(9), shifted)
        # XOR-translation is a cube automorphism: the modelled cost and
        # every aggregate counter are preserved; only link ids move.
        assert shifted.stats.time == result.stats.time
        assert shifted.stats.phases == result.stats.phases
        assert shifted.stats.startups == result.stats.startups
        assert shifted.stats.element_hops == result.stats.element_hops
        assert shifted.stats.link_elements != result.stats.link_elements
        assert sorted(shifted.stats.link_elements.values()) == sorted(
            result.stats.link_elements.values()
        )
