"""Integrity economics: what checksummed delivery costs, clean and corrupt.

Two sweeps on the MPT transpose:

(1) *null path* — the same clean run with integrity off, on-and-free
    (the default config: checksums cost no modelled time), and
    on-and-priced at increasing per-element checksum costs.  The
    armed-and-free column must be bit-identical in time to the unarmed
    one — that is the zero-cost-null-path guarantee the pinned perf
    baselines rely on — while the priced columns quantify what hardware
    without checksum offload would pay;
(2) *corruption intensity* — one corrupting link of rising strike rate
    across the whole run, counting detections, retransmissions and the
    retransmit surcharge (extra modelled time over the clean run).
    Every row self-verifies: the gathered matrix equals ``A.T`` exactly
    or the run surfaced a typed error — never silence.
"""

from benchmarks.reporting import emit_table, ms
from repro.integrity import IntegrityConfig, IntegrityManager
from repro.machine import EnsembleNetwork
from repro.machine.faults import CorruptionFault, FaultError, FaultPlan
from repro.machine.presets import connection_machine
from repro.plans.batch import resolve_problem
from repro.plans.recorder import synthetic_matrix
from repro.transpose.planner import transpose

N = 4
ELEMENTS = 1 << 10
ALGORITHM = "mpt"
CHECKSUM_COSTS = (0.0, 1e-7, 1e-6)
STRIKE_RATES = (0.1, 0.3, 0.6, 1.0)


def run_once(*, faults=None, integrity=None):
    params = connection_machine(N)
    before, after = resolve_problem(N, ELEMENTS, "2d")
    matrix = synthetic_matrix(before)
    original = matrix.to_global()
    network = EnsembleNetwork(params, faults=faults, integrity=integrity)
    result = transpose(network, matrix, after, algorithm=ALGORITHM)
    assert result.verify_against(original)
    return network.stats


def sweep_null_path():
    rows = []
    baseline = run_once()
    rows.append(["off", f"{ms(baseline.time):.4f}", 0, "-"])
    for cost in CHECKSUM_COSTS:
        stats = run_once(
            integrity=IntegrityManager(
                IntegrityConfig(checksum_time_per_element=cost)
            )
        )
        overhead = (stats.time - baseline.time) / baseline.time
        rows.append(
            [
                f"on @ {cost:g}s/elem",
                f"{ms(stats.time):.4f}",
                stats.integrity_checksum_overhead,
                f"{overhead:+.2%}",
            ]
        )
    return baseline, rows


def sweep_intensity():
    clean = run_once()
    rows = []
    for rate in STRIKE_RATES:
        fault = FaultPlan(
            N,
            corruption_faults=(CorruptionFault(0, 1, rate=rate, seed=9),),
        )
        network = EnsembleNetwork(connection_machine(N), faults=fault)
        before, after = resolve_problem(N, ELEMENTS, "2d")
        matrix = synthetic_matrix(before)
        original = matrix.to_global()
        try:
            result = transpose(network, matrix, after, algorithm=ALGORITHM)
            outcome = "ladder" if result.fallbacks else "clean"
            assert result.verify_against(original)
        except FaultError as exc:
            outcome = type(exc).__name__
        stats = network.stats
        rows.append(
            [
                f"{rate:.1f}",
                stats.integrity_corrupted_deliveries,
                stats.integrity_retransmits,
                stats.integrity_quarantined_links,
                f"{ms(stats.time - clean.time):+.4f}",
                outcome,
            ]
        )
    return rows


def test_null_path_is_free(benchmark):
    baseline, rows = benchmark.pedantic(
        sweep_null_path, rounds=1, iterations=1
    )
    emit_table(
        "integrity_null_path",
        f"Checksummed delivery on a clean machine (CM {N}-cube, "
        f"{ELEMENTS} elements, {ALGORITHM})",
        ["integrity", "model time (ms)", "checksummed elems", "overhead"],
        rows,
        notes="The default config prices checksums at zero, so arming "
        "integrity on a clean machine must not move the modelled time — "
        "the guarantee that keeps every pinned baseline valid.  Nonzero "
        "per-element costs model software checksumming.",
    )
    # The zero-cost row is bit-identical to the unarmed run.
    assert rows[1][1] == rows[0][1]
    # Priced rows are monotone in the configured cost.
    assert float(rows[3][1]) >= float(rows[2][1]) >= float(rows[1][1])


def test_corruption_surcharge_scales_with_intensity(benchmark):
    rows = benchmark.pedantic(sweep_intensity, rounds=1, iterations=1)
    emit_table(
        "integrity_corruption_surcharge",
        f"Detect-and-retransmit under a corrupting link (CM {N}-cube, "
        f"{ELEMENTS} elements, {ALGORITHM}, link 0->1, seed 9)",
        ["strike rate", "detected", "retransmits", "quarantined",
         "surcharge (ms)", "outcome"],
        rows,
        notes="Every detection is paid for with a retransmission or an "
        "escalation; the surcharge is the extra modelled time over the "
        "clean run.  At rate 1.0 the budget can never succeed, so the "
        "link is quarantined and the planner ladders to the terminal "
        "tier.",
    )
    assert all(r[1] >= r[2] for r in rows)  # detections >= retransmits
    assert rows[-1][3] >= 1  # full-rate corruption always quarantines
