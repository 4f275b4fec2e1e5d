"""The Hypercube adapter must cost nothing: bit-for-bit equivalence.

The topology abstraction's back-compat claim is that threading an
explicit ``Hypercube`` through the engine reproduces the historical
implicit-cube behaviour exactly — same ``TransferStats`` (including
per-link loads), same plan fingerprints, same cache keys, same seeded
fault streams, same serialized documents.  The pinned baseline gate
checks the same property over the full 16-scenario suite
(``python -m repro baseline check``); these tests pin the mechanism at
unit scope.
"""

import numpy as np
import pytest

from repro.layout import DistributedMatrix
from repro.layout import partition as pt
from repro.machine import EnsembleNetwork, FaultPlan
from repro.machine.presets import connection_machine, intel_ipsc
from repro.plans import capture_transpose, plan_key
from repro.plans.ir import MachineSpec
from repro.topology import Hypercube
from repro.transpose import transpose

N = 4
LAYOUT = pt.two_dim_cyclic(4, 4, 2, 2)


def _run(params, *, topology=None, faults=None, algorithm="auto"):
    A = np.arange(1 << 8, dtype=np.float64).reshape(16, 16)
    net = EnsembleNetwork(params, faults=faults, topology=topology)
    result = transpose(
        net, DistributedMatrix.from_global(A, LAYOUT), LAYOUT,
        algorithm=algorithm,
    )
    assert result.verify_against(A)
    return result


class TestExecutionEquivalence:
    @pytest.mark.parametrize("algorithm", ["auto", "spt", "router"])
    def test_stats_identical_through_explicit_adapter(self, algorithm):
        implicit = _run(connection_machine(N), algorithm=algorithm)
        explicit = _run(
            connection_machine(N),
            topology=Hypercube(N),
            algorithm=algorithm,
        )
        assert implicit.algorithm == explicit.algorithm
        assert implicit.stats == explicit.stats  # full dataclass equality

    def test_faulted_run_identical_through_explicit_adapter(self):
        faults = FaultPlan.from_spec(N, "links=0-1+6-4,seed=3")
        implicit = _run(intel_ipsc(N), faults=faults, algorithm="mpt")
        explicit = _run(
            intel_ipsc(N),
            topology=Hypercube(N),
            faults=faults,
            algorithm="mpt",
        )
        assert implicit.fallbacks == explicit.fallbacks
        assert implicit.stats == explicit.stats


class TestSeededFaultStream:
    def test_random_plan_identical_on_explicit_cube(self):
        for seed in range(8):
            implicit = FaultPlan.random(
                N, seed=seed, link_rate=0.05, transient_rate=0.1
            )
            explicit = FaultPlan.random(
                N,
                seed=seed,
                link_rate=0.05,
                transient_rate=0.1,
                topology=Hypercube(N),
            )
            assert implicit.link_faults == explicit.link_faults
            assert implicit.node_faults == explicit.node_faults


class TestPlanAndKeyStability:
    def test_machine_spec_omits_cube_topology(self):
        spec = MachineSpec.from_params(connection_machine(N))
        assert spec.topology == "cube"
        assert "topology" not in spec.as_dict()
        assert MachineSpec.from_dict(spec.as_dict()).topology == "cube"

    def test_machine_spec_keeps_non_cube_topology(self):
        spec = MachineSpec.from_params(
            connection_machine(N), topology="dragonfly:2,4"
        )
        doc = spec.as_dict()
        assert doc["topology"] == "dragonfly:2,4"
        assert MachineSpec.from_dict(doc).topology == "dragonfly:2,4"

    def test_plan_fingerprint_stable_through_adapter(self):
        params = connection_machine(N)
        A = DistributedMatrix.from_global(
            np.arange(1 << 8, dtype=np.float64).reshape(16, 16), LAYOUT
        )
        _, implicit = capture_transpose(params, A, LAYOUT, algorithm="spt")
        _, explicit = capture_transpose(
            params, A, LAYOUT, algorithm="spt", topology=Hypercube(N)
        )
        assert implicit.fingerprint == explicit.fingerprint
        assert implicit.dumps() == explicit.dumps()

    def test_plan_key_default_matches_explicit_cube(self):
        params = connection_machine(N)
        default = plan_key(params, LAYOUT, LAYOUT, "spt")
        cube = plan_key(params, LAYOUT, LAYOUT, "spt", topology="cube")
        other = plan_key(
            params, LAYOUT, LAYOUT, "spt", topology="torus:4x4"
        )
        assert default == cube
        assert other != default
