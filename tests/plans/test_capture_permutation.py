"""`capture_permutation`: the permute counterpart of capture_transpose.

Every §7 permutation algorithm must capture into a CompiledPlan that
replays on a fresh network with identical deterministic stats — so the
permute family rides the same cache/replay/recovery machinery as the
transposes.
"""

import numpy as np
import pytest

from repro.layout import partition as pt
from repro.machine.engine import EnsembleNetwork
from repro.machine.presets import connection_machine
from repro.plans import capture_permutation, replay_plan, synthetic_matrix

LAYOUT = pt.row_cyclic(3, 3, 3)


class TestAddressKind:
    def test_reverse_captures_named_plan(self):
        params = connection_machine(3)
        result, plan = capture_permutation(
            params, "reverse", before=LAYOUT
        )
        assert plan.algorithm == "permute-reverse"
        assert plan.comm_class == "permute"
        assert result.layout == LAYOUT

    def test_explicit_bit_permutation(self):
        params = connection_machine(3)
        perm = {d: (d + 1) % LAYOUT.m for d in range(LAYOUT.m)}
        result, plan = capture_permutation(params, perm, before=LAYOUT)
        assert plan.algorithm == "permute-address"
        assert result.local_data.shape == (1 << 3, 1 << (LAYOUT.m - 3))

    def test_explicit_matrix_payload(self):
        params = connection_machine(3)
        dm = synthetic_matrix(LAYOUT)
        result, plan = capture_permutation(params, "reverse", dm=dm)
        assert plan.algorithm == "permute-reverse"
        # Bit reversal of the address space is an involution: capturing
        # it twice round-trips the payload.
        again, _ = capture_permutation(params, "reverse", dm=result)
        assert np.array_equal(again.to_global(), dm.to_global())


class TestOtherKinds:
    def test_dims_kind(self):
        params = connection_machine(3)
        result, plan = capture_permutation(
            params, [1, 2, 0], kind="dims", before=LAYOUT
        )
        assert plan.algorithm == "permute-dims"
        assert result.shape[0] == 1 << 3

    def test_nodes_kind(self):
        params = connection_machine(3)
        pi = [(x + 1) % 8 for x in range(8)]
        dm = synthetic_matrix(LAYOUT)
        result, plan = capture_permutation(params, pi, kind="nodes", dm=dm)
        assert plan.algorithm == "permute-nodes"
        # Node x's data ends up at pi(x).
        for x in range(8):
            assert np.array_equal(result[pi[x]], dm.local_data[x])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown permutation kind"):
            capture_permutation(
                connection_machine(3), "reverse", kind="frob", before=LAYOUT
            )

    def test_missing_payload_rejected(self):
        with pytest.raises(ValueError, match="dm= or before="):
            capture_permutation(connection_machine(3), "reverse")


class TestReplayEquivalence:
    @pytest.mark.parametrize(
        "kind,permutation",
        [
            ("address", "reverse"),
            ("address", {0: 1, 1: 0, 2: 2, 3: 3, 4: 4, 5: 5}),
            ("dims", [2, 0, 1]),
            ("nodes", [7 - x for x in range(8)]),
        ],
        ids=["reverse", "address", "dims", "nodes"],
    )
    def test_replay_is_deterministic(self, kind, permutation):
        params = connection_machine(3)
        _, plan = capture_permutation(
            params, permutation, kind=kind, before=LAYOUT
        )
        first = EnsembleNetwork(params)
        second = EnsembleNetwork(params)
        replay_plan(plan, first)
        replay_plan(plan, second)
        assert first.stats == second.stats
        assert first.stats.phases == plan.num_phases
