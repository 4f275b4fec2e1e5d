"""Property: compiled pipelines are bit-identical to numpy composition.

The ISSUE's acceptance property: for arbitrary (non-power-of-two)
shapes and arbitrary chained stage sequences, executing the compiled
pipeline on a simulated cube produces exactly the composition of the
stages' numpy references on the padded domain, extracted back to the
true extent — with and without seeded link faults in the way.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.machine.engine import EnsembleNetwork
from repro.machine.faults import FaultPlan
from repro.machine.presets import connection_machine
from repro.plans.cache import PlanCache
from repro.workloads import Pipeline, build_pipeline, serve_workload
from repro.workloads.stages import DimPermStage

STAGE_TOKENS = (
    "transpose",
    "bitrev",
    "dimperm:shuffle",
    "dimperm:unshuffle",
    "gray",
    "binary",
)

stage_lists = st.lists(
    st.sampled_from(STAGE_TOKENS), min_size=1, max_size=4
)
shapes = st.tuples(
    st.integers(min_value=1, max_value=24),
    st.integers(min_value=1, max_value=24),
)


def reference_composition(pipeline: Pipeline, a: np.ndarray) -> np.ndarray:
    """Compose the stages' numpy references on the padded domain."""
    shape = pipeline.shape
    padded = np.zeros((shape.padded_rows, shape.padded_cols), dtype=a.dtype)
    padded[: shape.rows, : shape.cols] = a
    for stage, stage_shape in zip(pipeline.stages, pipeline.shapes):
        out_p, out_q = stage.out_shape(stage_shape.p, stage_shape.q)
        padded = stage.reference(padded).reshape(1 << out_p, 1 << out_q)
    out = pipeline.out_shape
    return padded[: out.rows, : out.cols]


class TestPipelineProperty:
    @settings(max_examples=40, deadline=None)
    @given(tokens=stage_lists, shape=shapes, seed=st.integers(0, 2**16))
    def test_execute_matches_numpy_composition(self, tokens, shape, seed):
        spec = "pipeline:" + "+".join(tokens) + f"@{shape[0]}x{shape[1]}"
        try:
            pipeline = build_pipeline(spec, 4)
        except ValueError:
            assume(False)  # e.g. a fusible stage directly after "gray"
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(shape)
        out = pipeline.execute(EnsembleNetwork(connection_machine(4)), a)
        assert np.array_equal(out, reference_composition(pipeline, a))
        assert np.array_equal(out, pipeline.reference(a))

    @settings(max_examples=15, deadline=None)
    @given(
        tokens=st.lists(
            st.sampled_from(("transpose", "bitrev", "dimperm:shuffle")),
            min_size=1,
            max_size=3,
        ),
        shape=shapes,
        seed=st.integers(0, 63),
    )
    def test_faulted_serving_still_verifies(self, tokens, shape, seed):
        """Seeded link faults on the replay path: recovery must land the
        plan, and its self-verification must pass."""
        spec = "pipeline:" + "+".join(tokens) + f"@{shape[0]}x{shape[1]}"
        pipeline = build_pipeline(spec, 4)
        faults = FaultPlan.from_spec(
            4, f"seed={seed},link_rate=0.05,transient_rate=0.5,window=4"
        )
        from repro.recovery import RecoveryFailedError

        try:
            served = serve_workload(
                pipeline,
                connection_machine(4),
                faults=faults,
                cache=PlanCache(),
            )
        except RecoveryFailedError:
            # A sufficiently vicious fault draw can defeat recovery
            # (no healthy path left); that is a legitimate terminal
            # outcome, not a correctness failure.
            assume(False)
        assert served.verified is True


class TestAxisPermutations:
    """3- and 4-dimensional axis permutations named by the ISSUE."""

    @pytest.mark.parametrize(
        "axis_bits,axes",
        [
            ((2, 2, 2), (1, 2, 0)),
            ((2, 2, 2), (2, 0, 1)),
            ((2, 2, 2, 2), (3, 2, 1, 0)),
            ((1, 3, 2, 2), (2, 0, 3, 1)),
        ],
    )
    def test_axis_permutation_pipelines(self, axis_bits, axes):
        m = sum(axis_bits)
        p = m // 2
        q = m - p
        stage = DimPermStage.from_axes(axis_bits, axes)
        pipeline = build_pipeline(
            f"pipeline:{stage.token}@{1 << p}x{1 << q}", 4
        )
        a = np.arange(1 << m, dtype=np.float64).reshape(1 << p, 1 << q)
        out = pipeline.execute(EnsembleNetwork(connection_machine(4)), a)
        expected = (
            np.transpose(a.reshape([1 << b for b in axis_bits]), axes)
            .reshape(1 << p, 1 << q)
        )
        # np.transpose scatters whole bit fields; the stage's map is the
        # gather realizing it, so the flattened views must agree.
        assert np.array_equal(out.reshape(-1), expected.reshape(-1))

    def test_large_rectangular_round_trip(self):
        """The ISSUE's (511, 134) shape survives a chained pipeline."""
        pipeline = build_pipeline("pipeline:bitrev+transpose@511x134", 4)
        rng = np.random.default_rng(7)
        a = rng.standard_normal((511, 134))
        out = pipeline.execute(EnsembleNetwork(connection_machine(4)), a)
        assert out.shape == (134, 511)
        assert np.array_equal(out, pipeline.reference(a))
