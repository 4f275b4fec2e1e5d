"""Pipeline compilation: fusion, replay equivalence, chaining, keys."""

import numpy as np
import pytest

from repro.machine.engine import EnsembleNetwork
from repro.machine.presets import connection_machine
from repro.plans.ir import PhaseOp, RemapOp
from repro.plans.replay import replay_plan
from repro.workloads import build_pipeline, chain_plans, fuse_ops


def phase_count(plan):
    return sum(1 for op in plan.ops if isinstance(op, PhaseOp))


class TestFusion:
    def test_fused_fft_is_strictly_cheaper_than_naive(self):
        """Rule 1: composed address maps need one exchange sequence."""
        params = connection_machine(6)
        pipeline = build_pipeline("fft@64x64", 6)
        fused, _ = pipeline.compile(params)
        naive, _ = pipeline.compile(params, fuse=False)
        assert phase_count(fused) < phase_count(naive)

        fused_net = EnsembleNetwork(connection_machine(6))
        replay_plan(fused, fused_net)
        naive_net = EnsembleNetwork(connection_machine(6))
        replay_plan(naive, naive_net)
        assert fused_net.stats.time < naive_net.stats.time
        assert fused_net.stats.startups < naive_net.stats.startups

    def test_chained_pipeline_cheaper_than_solo_replays(self):
        """The ISSUE's headline: one chained compile beats back-to-back
        solo stage replays."""
        params = connection_machine(4)
        chained = build_pipeline("bitrev+transpose@16x16", 4)
        plan, _ = chained.compile(params)
        solo_phases = sum(
            phase_count(build_pipeline(spec, 4).compile(params)[0])
            for spec in ("bitrev@16x16", "transpose@16x16")
        )
        assert phase_count(plan) < solo_phases

    def test_transpose_twice_fuses_to_nothing(self):
        params = connection_machine(4)
        pipeline = build_pipeline("transpose+transpose@16x16", 4)
        plan, _ = pipeline.compile(params)
        assert phase_count(plan) == 0

    def test_gray_stage_is_a_barrier(self):
        """A Gray re-encode splits the fusible run: the fused plan still
        contains the converter's communication."""
        params = connection_machine(4)
        with_barrier = build_pipeline(
            "transpose+gray+binary+transpose@16x16", 4
        )
        plan, _ = with_barrier.compile(params)
        # The two transposes cannot cancel across the barrier.
        assert phase_count(plan) > 0

    def test_fusible_stage_after_gray_rejected(self):
        with pytest.raises(ValueError, match="binary-encoded frame"):
            build_pipeline("gray+transpose@16x16", 4)

    def test_gray_then_binary_executes(self):
        params = connection_machine(4)
        pipeline = build_pipeline("gray+binary@16x16", 4)
        plan, _ = pipeline.compile(params)
        network = EnsembleNetwork(connection_machine(4))
        replay_plan(plan, network)


class TestExecuteBitIdentity:
    @pytest.mark.parametrize(
        "spec,n",
        [
            ("pipeline:bitrev+transpose@13x11", 4),
            ("pipeline:bitrev+transpose@511x134", 4),
            ("fft@64x64", 6),
            ("dimperm:shuffle+dimperm:unshuffle@16x16", 4),
        ],
    )
    def test_execute_matches_reference(self, spec, n):
        pipeline = build_pipeline(spec, n)
        rows, cols = pipeline.shape.rows, pipeline.shape.cols
        a = np.arange(rows * cols, dtype=np.float64).reshape(rows, cols)
        network = EnsembleNetwork(connection_machine(n))
        out = pipeline.execute(network, a)
        assert np.array_equal(out, pipeline.reference(a))

    def test_unfused_execution_is_bit_identical_to_fused(self):
        pipeline = build_pipeline("fft@64x64", 6)
        a = np.arange(64 * 64, dtype=np.float64).reshape(64, 64)
        fused = pipeline.execute(EnsembleNetwork(connection_machine(6)), a)
        naive = pipeline.execute(
            EnsembleNetwork(connection_machine(6)), a, fuse=False
        )
        assert np.array_equal(fused, naive)


class TestCompileReplay:
    def test_compiled_plan_replays_with_identical_stats(self):
        params = connection_machine(6)
        pipeline = build_pipeline("fft@64x64", 6)
        plan, _ = pipeline.compile(params)
        a_stats = EnsembleNetwork(params)
        replay_plan(plan, a_stats)
        b_stats = EnsembleNetwork(params)
        replay_plan(plan, b_stats)
        assert a_stats.stats.as_dict() == b_stats.stats.as_dict()

    def test_plan_round_trips_through_json(self):
        from repro.plans.ir import CompiledPlan

        params = connection_machine(4)
        plan, _ = build_pipeline("bitrev+transpose@13x11", 4).compile(params)
        again = CompiledPlan.loads(plan.dumps())
        assert again.fingerprint == plan.fingerprint

    def test_shapes_padding_identically_share_keys(self):
        """The key is a function of the padded domain — deliberate."""
        params = connection_machine(4)
        a = build_pipeline("bitrev+transpose@13x11", 4)
        b = build_pipeline("bitrev+transpose@16x16", 4)
        assert a.key(params) == b.key(params)

    def test_different_stage_sequences_get_different_keys(self):
        params = connection_machine(4)
        a = build_pipeline("bitrev+transpose@16x16", 4)
        b = build_pipeline("transpose+bitrev@16x16", 4)
        assert a.key(params) != b.key(params)


class TestFuseOps:
    def test_adjacent_remaps_fold_by_xor(self):
        ops = (RemapOp(3), RemapOp(5), RemapOp(8))
        assert fuse_ops(ops) == (RemapOp(14),)

    def test_identity_remap_is_dropped(self):
        assert fuse_ops((RemapOp(3), RemapOp(3))) == ()
        assert fuse_ops((RemapOp(0),)) == ()

    def test_empty_phases_are_dropped(self):
        assert fuse_ops((PhaseOp(messages=()),)) == ()

    def test_remaps_do_not_fold_across_phases(self):
        from repro.plans.ir import PlanMessage

        phase = PhaseOp(
            messages=(PlanMessage(src=0, dst=1, elements=1, keys=("k",)),)
        )
        ops = (RemapOp(3), phase, RemapOp(5))
        assert fuse_ops(ops) == ops


class TestChainPlans:
    def test_chained_transposes_replay_to_identity(self):
        params = connection_machine(4)
        first, _ = build_pipeline("transpose@16x16", 4).compile(params)
        back, _ = build_pipeline("transpose@16x16", 4).compile(params)
        # transpose of a square embedded domain mirrors back, so the
        # second plan's before-layout continues the first's after.
        chained = chain_plans([first, back])
        network = EnsembleNetwork(params)
        replay_plan(chained, network)
        assert chained.comm_class == "pipeline"

    def test_relabeled_segments_fold_their_masks(self):
        """Rule 2: the COSTA-style XOR relabel costs one RemapOp, and
        stacked relabels fold."""
        params = connection_machine(4)
        plan, _ = build_pipeline("bitrev@16x16", 4).compile(params)
        twice = plan.relabeled(3).relabeled(5)
        chained = chain_plans([twice])
        remaps = [op for op in chained.ops if isinstance(op, RemapOp)]
        assert remaps == [RemapOp(6)]

    def test_self_cancelling_relabel_costs_nothing(self):
        params = connection_machine(4)
        plan, _ = build_pipeline("bitrev@16x16", 4).compile(params)
        chained = chain_plans([plan.relabeled(7).relabeled(7)])
        assert not any(isinstance(op, RemapOp) for op in chained.ops)

    def test_layout_discontinuity_rejected(self):
        params = connection_machine(4)
        square, _ = build_pipeline("bitrev@16x16", 4).compile(params)
        rect, _ = build_pipeline("bitrev@16x4", 4, layout="1d-rows").compile(
            params
        )
        with pytest.raises(ValueError):
            chain_plans([square, rect])

    def test_machine_mismatch_rejected(self):
        from repro.machine.presets import intel_ipsc

        a, _ = build_pipeline("bitrev@16x16", 4).compile(connection_machine(4))
        b, _ = build_pipeline("bitrev@16x16", 4).compile(intel_ipsc(4))
        with pytest.raises(ValueError):
            chain_plans([a, b])

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            chain_plans([])
