"""Fault-tolerance overhead: what graceful degradation costs.

Two views of the fault-injection subsystem:

(1) the *fallback ladder* — for each requested strategy, kill one link
    on its schedule and compare the degraded run against the clean one;
(2) *fault density* — seeded random permanent link failures at rising
    rates, planner on ``auto``: which tier survives, and at what
    modelled cost.

Every run passes the planner's invariant checker (exact transposed
placement), so the numbers are for *correct* degraded transposes.
"""

import numpy as np

from benchmarks.reporting import emit_table, ms
from repro.layout import DistributedMatrix
from repro.layout import partition as pt
from repro.machine import EnsembleNetwork, FaultPlan
from repro.machine.faults import DisconnectedCubeError, RoutingStalledError
from repro.machine.presets import intel_ipsc
from repro.transpose import transpose
from repro.transpose.planner import schedule_links

N = 4
MATRIX_BITS = 12  # 64 x 64


def _problem():
    half = N // 2
    p = MATRIX_BITS // 2
    layout = pt.two_dim_cyclic(p, MATRIX_BITS - p, half, half)
    A = np.arange(1 << MATRIX_BITS, dtype=np.float64).reshape(
        1 << p, 1 << (MATRIX_BITS - p)
    )
    return layout, A


def _run(layout, A, plan, algorithm):
    net = EnsembleNetwork(intel_ipsc(N), faults=plan)
    result = transpose(
        net, DistributedMatrix.from_global(A, layout), layout,
        algorithm=algorithm,
    )
    assert result.verify_against(A)
    return result


def sweep_ladder():
    """Kill a link unique to each tier's schedule; measure the drop.

    The link sets nest (spt ⊆ dpt ⊆ mpt; on a 4-cube the upper two both
    cover every link), so a fault off the SPT set lets MPT/DPT degrade
    to SPT, while a fault on an SPT link (shared by all schedules)
    drops straight to the router.
    """
    layout, A = _problem()
    rows = []
    spt_links = schedule_links("spt", N)
    for tier in ("mpt", "dpt", "spt"):
        clean = _run(layout, A, None, tier)
        links = schedule_links(tier, N)
        if tier != "spt":
            links = links - spt_links
        src, dst = min(links)
        faulted = _run(layout, A, FaultPlan.single_link(N, src, dst), tier)
        rows.append(
            [
                tier,
                faulted.algorithm,
                f"{src}->{dst}",
                ms(clean.stats.time),
                ms(faulted.stats.time),
                ms(faulted.recovery_overhead),
            ]
        )
    return rows


def sweep_density():
    """Seeded random permanent link kills at rising densities."""
    layout, A = _problem()
    rows = []
    for rate in (0.0, 0.01, 0.02, 0.04, 0.08):
        for seed in (1, 2, 3):
            plan = FaultPlan.random(N, seed=seed, link_rate=rate)
            try:
                result = _run(layout, A, plan, "auto")
            except (DisconnectedCubeError, RoutingStalledError) as exc:
                rows.append(
                    [rate, seed, len(plan.link_faults), "-",
                     type(exc).__name__, "-", "-"]
                )
                continue
            rows.append(
                [
                    rate,
                    seed,
                    len(plan.link_faults),
                    result.requested,
                    result.algorithm,
                    ms(result.stats.time),
                    ms(result.recovery_overhead),
                ]
            )
    return rows


def test_fault_overhead_ladder(benchmark):
    rows = benchmark.pedantic(sweep_ladder, rounds=1, iterations=1)
    emit_table(
        "fault_overhead_ladder",
        "Fallback ladder: one dead link on each tier's schedule "
        f"(iPSC {N}-cube, {1 << MATRIX_BITS} elements, ms)",
        ["requested", "executed", "dead link", "clean", "faulted", "overhead"],
        rows,
        notes="Overhead = faulted run minus a clean run of the requested "
        "tier; it can be negative when the surviving tier is cheaper on "
        "this port model (one-port MPT serializes badly).",
    )
    for requested, executed, _, _, _, _ in rows:
        assert executed != requested  # the dead link forced a fallback


def test_fault_overhead_density(benchmark):
    rows = benchmark.pedantic(sweep_density, rounds=1, iterations=1)
    emit_table(
        "fault_overhead_density",
        "Planner degradation vs permanent link-fault density "
        f"(iPSC {N}-cube, {1 << MATRIX_BITS} elements, ms)",
        ["link rate", "seed", "faults", "requested", "executed", "time",
         "overhead"],
        rows,
        notes="auto planner; seeded FaultPlan.random; executed tier "
        "drops down the ladder as density grows, or the run aborts "
        "diagnosably once the surviving cube disconnects.",
    )
    healthy = [r for r in rows if r[0] == 0.0]
    assert all(r[3] == r[4] for r in healthy)  # no faults -> no fallback
    assert all(r[6] == 0.0 for r in healthy)
    faulted = [r for r in rows if r[0] >= 0.04 and r[4] != "-"]
    assert faulted and all(r[4] != r[3] for r in faulted)
