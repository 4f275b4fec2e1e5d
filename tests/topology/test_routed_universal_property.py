"""Property: routed-universal transposition is exact on every topology.

The routed-universal floor derives (source, destination, element) moves
from the layout algebra alone and ships them through minimal-path
routing, so on *any* strongly connected interconnect the gathered
result must be bit-identical to the mathematical transpose — with and
without seeded permanent link faults (the fault-tolerant router detours
or falls back to survivor-graph paths; a disconnected survivor raises
instead of mis-delivering).
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.layout import DistributedMatrix
from repro.machine import EnsembleNetwork, FaultPlan
from repro.machine.faults import DisconnectedCubeError
from repro.machine.presets import connection_machine
from repro.plans.batch import resolve_problem
from repro.topology import parse_topology

SPECS = ("torus:4x4", "dragonfly:2,4", "mesh:4x4", "torus:2x2x2x2")
N = 4  # every spec above has 16 nodes


def _transpose_on(spec: str, elements_bits: int, faults=None):
    from repro.transpose import transpose

    before, after = resolve_problem(N, 1 << elements_bits, "2d")
    A = np.arange(1 << elements_bits, dtype=np.float64).reshape(
        1 << before.p, 1 << before.q
    )
    net = EnsembleNetwork(
        connection_machine(N),
        faults=faults,
        topology=parse_topology(spec, N),
    )
    return transpose(
        net, DistributedMatrix.from_global(A, before), after
    ), A


@settings(max_examples=40, deadline=None)
@given(
    spec=st.sampled_from(SPECS),
    elements_bits=st.integers(8, 10),
)
def test_clean_routed_universal_is_exact(spec, elements_bits):
    result, A = _transpose_on(spec, elements_bits)
    assert result.algorithm == "routed-universal"
    assert result.verify_against(A)
    assert np.array_equal(result.matrix.to_global(), A.T)


@settings(max_examples=40, deadline=None)
@given(
    spec=st.sampled_from(SPECS),
    seed=st.integers(0, 200),
    link_rate=st.sampled_from([0.02, 0.05, 0.08]),
)
def test_faulted_routed_universal_is_exact(spec, seed, link_rate):
    topo = parse_topology(spec, N)
    faults = FaultPlan.random(
        N, seed=seed, link_rate=link_rate, topology=topo
    )
    assume(not faults.is_empty)
    try:
        result, A = _transpose_on(spec, 8, faults=faults)
    except DisconnectedCubeError:
        assume(False)  # faults split the graph; nothing to verify
    assert result.algorithm == "routed-universal"
    assert result.verify_against(A)
    assert np.array_equal(result.matrix.to_global(), A.T)


@pytest.mark.parametrize("spec", SPECS)
def test_named_link_fault_detours_and_stays_exact(spec):
    topo = parse_topology(spec, N)
    src, dst = next(iter(topo.directed_links()))
    faults = FaultPlan.from_spec(N, f"links={src}-{dst}", topology=topo)
    result, A = _transpose_on(spec, 8, faults=faults)
    assert result.verify_against(A)
