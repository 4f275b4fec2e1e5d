"""Integrity properties: a silent wrong matrix is impossible.

Two halves of the acceptance contract:

* **null-path soundness** — arming checksums on a corruption-free run
  changes nothing observable: the gathered matrix is bit-identical, the
  modelled time is unchanged (checksums are free under the default
  config), and no retransmit or quarantine ever fires;
* **detection totality** — under any seeded corruption plan, every
  struck delivery is either retransmitted to a verified-clean arrival
  or surfaces as a typed :class:`~repro.machine.faults.FaultError`.
  The one forbidden outcome is a transpose that *returns* wrong data.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.integrity import IntegrityManager
from repro.machine import EnsembleNetwork
from repro.machine.faults import FaultError, FaultPlan
from repro.machine.presets import connection_machine
from repro.machine.routing import RoutingStalledError
from repro.plans.batch import resolve_problem
from repro.plans.recorder import synthetic_matrix
from repro.transpose.planner import transpose

N = 4
ELEMENTS = 256


def run(algorithm, *, faults=None, integrity=None):
    params = connection_machine(N)
    before, after = resolve_problem(N, ELEMENTS, "2d")
    matrix = synthetic_matrix(before)
    original = matrix.to_global()
    network = EnsembleNetwork(params, faults=faults, integrity=integrity)
    result = transpose(network, matrix, after, algorithm=algorithm)
    return network, result, original


@settings(max_examples=15, deadline=None)
@given(
    algorithm=st.sampled_from(["mpt", "dpt", "spt", "router"]),
    fault_seed=st.integers(min_value=0, max_value=999),
    link_rate=st.floats(min_value=0.0, max_value=0.05),
)
def test_null_path_is_bit_identical(algorithm, fault_seed, link_rate):
    """Checksums on, corruption absent: nothing observable may change."""
    faults = FaultPlan.random(
        N, seed=fault_seed, link_rate=link_rate, transient_rate=0.0
    )
    plain_net, plain, original = run(algorithm, faults=faults)
    armed_net, armed, _ = run(
        algorithm, faults=faults, integrity=IntegrityManager()
    )
    assert armed.verify_against(original)
    assert np.array_equal(
        armed.matrix.to_global(), plain.matrix.to_global()
    )
    assert armed_net.stats.time == plain_net.stats.time
    assert armed_net.stats.integrity_corrupted_deliveries == 0
    assert armed_net.stats.integrity_retransmits == 0
    assert armed_net.stats.integrity_quarantined_links == 0
    assert armed_net.stats.integrity_checksum_overhead > 0


@settings(max_examples=15, deadline=None)
@given(
    algorithm=st.sampled_from(["mpt", "spt", "auto"]),
    fault_seed=st.integers(min_value=0, max_value=999),
    corrupt_rate=st.floats(min_value=0.02, max_value=0.4),
    corrupt_intensity=st.floats(min_value=0.1, max_value=1.0),
)
def test_corruption_is_never_silent(
    algorithm, fault_seed, corrupt_rate, corrupt_intensity
):
    """Every struck delivery retransmits clean or raises a typed error."""
    faults = FaultPlan.random(
        N,
        seed=fault_seed,
        link_rate=0.0,
        transient_rate=0.0,
        corrupt_rate=corrupt_rate,
        corrupt_intensity=corrupt_intensity,
    )
    try:
        network, result, original = run(algorithm, faults=faults)
    except (FaultError, RoutingStalledError):
        return  # detected, escalated, surfaced — the allowed failure
    # The transpose returned: its payload must be bit-exact, and any
    # detected corruption must be accounted for — each strike was either
    # retransmitted or escalated into a quarantine the planner absorbed.
    assert result.verify_against(original)
    stats = network.stats
    assert stats.integrity_corrupted_deliveries >= stats.integrity_retransmits
    if stats.integrity_corrupted_deliveries:
        assert (
            stats.integrity_retransmits > 0
            or stats.integrity_quarantined_links > 0
        )
