"""Performance-regression gate over the simulator's deterministic counters.

Every quantity the engine reports — modelled time, start-ups, element
hops, per-link peak load — is a pure function of (machine, layout,
algorithm, fault spec), so a baseline is exact: two runs of the same
scenario on the same code produce bit-identical counters, and any drift
is a real behavioural change (a cost-model edit, a schedule change, a
lost exclusivity guarantee), never noise.  That makes a tolerance of
zero meaningful; the default keeps a hair of relative slack only for
float time accumulation order.

``python -m repro baseline record`` snapshots the pinned suite into
``benchmarks/baselines/*.json``; ``baseline check`` re-runs it and fails
with a per-counter diff on any breach.  CI runs the check on every push.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable

__all__ = [
    "BaselineReport",
    "BaselineScenario",
    "CounterDiff",
    "DEFAULT_SUITE",
    "DEFAULT_TOLERANCE",
    "check_baselines",
    "record_baselines",
    "run_scenario",
]

#: Relative slack for float counters; integer counters are compared
#: exactly whenever the baseline value is integral.
DEFAULT_TOLERANCE = 1e-9

#: Counters excluded from the gate: structured (non-scalar) views.
_NON_SCALAR = ("link_elements", "phase_times")


@dataclass(frozen=True)
class BaselineScenario:
    """One pinned benchmark point.

    ``faults`` is a :meth:`~repro.machine.faults.FaultPlan.from_spec`
    string (seeded specs are deterministic); ``cached`` routes the run
    through :func:`~repro.plans.replay.replay_degraded` with a plan
    cache, exercising capture + replay instead of direct execution;
    ``recovery`` (a :meth:`~repro.recovery.policy.RecoveryPolicy.from_spec`
    string) serves the scenario resume-based — checkpoints, rollbacks
    and plan surgery are then part of the pinned counters.
    ``integrity`` forces checksummed delivery on even without corruption
    faults (direct runs only), pinning the detection machinery's
    counters on the null path; corruption specs (``clinks=…`` /
    ``corrupt_rate=…`` fault tokens) arm it automatically.
    """

    id: str
    machine: str  # "ipsc" or "cm"
    n: int
    elements: int
    layout: str = "2d"
    algorithm: str = "auto"
    faults: str | None = None
    cached: bool = False
    recovery: str | None = None
    integrity: bool = False
    #: JSON string ``{"spec": <LoadSpec dict>, "config": <ServerConfig
    #: dict>}`` — when set, the scenario pins the serving layer's
    #: deterministic counters (admission, shedding, cache, recovery)
    #: via :func:`repro.service.deterministic_counters` and every other
    #: field above except ``id`` is ignored.  A string, not a dict, so
    #: the scenario stays hashable and its description JSON-stable.
    service: str | None = None
    #: Interconnect spec (``repro.topology.parse_topology`` syntax);
    #: non-cube scenarios pin the routed-universal path per topology.
    topology: str = "cube"
    #: Composite-pipeline spec (``repro.workloads`` grammar).  When set
    #: the scenario is served through
    #: :func:`repro.workloads.serve_workload` (cached compile + replay,
    #: recovery-based when ``faults``/``recovery`` are given) and
    #: ``elements``/``algorithm`` are descriptive only.
    workload: str | None = None

    def describe(self) -> dict:
        doc = {
            "id": self.id,
            "machine": self.machine,
            "n": self.n,
            "elements": self.elements,
            "layout": self.layout,
            "algorithm": self.algorithm,
            "faults": self.faults,
            "cached": self.cached,
            "recovery": self.recovery,
            "integrity": self.integrity,
            "service": self.service,
            "topology": self.topology,
        }
        if self.workload is not None:
            # Omitted when unset so the pre-workload baseline files
            # re-record byte-identically.
            doc["workload"] = self.workload
        return doc


#: The pinned suite: one point per paper regime plus the fault-ladder
#: and plan-cache paths.  Keep this list append-only — renaming or
#: re-parameterising an entry orphans its baseline file.
DEFAULT_SUITE: tuple[BaselineScenario, ...] = (
    BaselineScenario("cm_mpt_n4", "cm", 4, 1 << 8, algorithm="mpt"),
    BaselineScenario("cm_dpt_n4", "cm", 4, 1 << 8, algorithm="dpt"),
    BaselineScenario("cm_spt_n6", "cm", 6, 1 << 12, algorithm="spt"),
    BaselineScenario("ipsc_exchange_n4", "ipsc", 4, 1 << 10,
                     layout="1d-rows", algorithm="exchange"),
    BaselineScenario("ipsc_router_n4", "ipsc", 4, 1 << 8,
                     algorithm="router"),
    BaselineScenario("cm_faulted_ladder_n4", "cm", 4, 1 << 8,
                     algorithm="mpt", faults="links=0-1+2-3,seed=3"),
    BaselineScenario("cm_cached_replay_n4", "cm", 4, 1 << 8,
                     algorithm="mpt", cached=True),
    BaselineScenario("cm_faulted_cached_n4", "cm", 4, 1 << 8,
                     algorithm="mpt", faults="links=0-1,seed=5",
                     cached=True),
    BaselineScenario("cm_recovery_transient_n4", "cm", 4, 1 << 8,
                     algorithm="mpt", faults="tlinks=0-1@1-3",
                     cached=True, recovery="every=2"),
    BaselineScenario("cm_recovery_surgery_n4", "cm", 4, 1 << 8,
                     algorithm="mpt", faults="links=0-1",
                     cached=True, recovery="every=2"),
    BaselineScenario(
        "service_multi_tenant_n4", "cm", 4, 1 << 8,
        service=json.dumps({
            "spec": {"seed": 7, "tenants": 4, "requests": 24,
                     "shapes": 3, "n": 4, "machine": "cm"},
            "config": {},
        }, sort_keys=True),
    ),
    BaselineScenario(
        "service_fault_storm_shed_n4", "cm", 4, 1 << 8,
        service=json.dumps({
            "spec": {"seed": 11, "tenants": 2, "requests": 24,
                     "shapes": 2, "n": 4, "machine": "cm",
                     "fault_rate": 0.5},
            "config": {"queue_capacity": 16, "tenant_pending": 6},
        }, sort_keys=True),
    ),
    # Integrity pair: the clean run pins the checksum machinery's null
    # path (overhead counter moves, nothing else may); the corrupt run
    # pins the full escalation — detect, retransmit, quarantine, then
    # route around the quarantined link on the terminal tier.
    BaselineScenario("integrity_clean_n4", "cm", 4, 1 << 8,
                     algorithm="mpt", integrity=True),
    BaselineScenario("integrity_corrupt_n4", "cm", 4, 1 << 8,
                     algorithm="mpt", faults="clinks=0-1@0-2,seed=3"),
    # Cross-topology pair: the routed-universal floor on a 4x4x4 torus
    # and on a faulted swapped dragonfly, pinning the topology layer's
    # routing and fault handling end to end.
    BaselineScenario("torus_n64", "cm", 6, 1 << 12,
                     topology="torus:4x4x4"),
    BaselineScenario("dragonfly_k2m4", "cm", 4, 1 << 8,
                     topology="dragonfly:2,4",
                     faults="links=0-1,seed=9"),
    # Composite-pipeline pair: the served FFT data-movement plan (fused
    # dimperm+bitrev+transpose) and a faulted rectangular pipeline
    # recovering through plan surgery — pinning the workloads subsystem
    # end to end.
    BaselineScenario("fft_pipeline_n6", "cm", 6, 1 << 12,
                     workload="fft@64x64"),
    BaselineScenario("rect_13x11", "cm", 4, 13 * 11,
                     workload="pipeline:bitrev+transpose@13x11",
                     faults="links=0-1,seed=3", recovery="every=2"),
)


def _params_for(scenario: BaselineScenario, perturb=None):
    from repro.machine.presets import connection_machine, intel_ipsc

    factory = {"ipsc": intel_ipsc, "cm": connection_machine}[scenario.machine]
    params = factory(scenario.n)
    if perturb is not None:
        params = perturb(params)
    return params


def run_scenario(
    scenario: BaselineScenario,
    *,
    perturb: Callable | None = None,
    observer=None,
) -> dict:
    """Execute one scenario and return its scalar counters.

    ``perturb`` maps :class:`~repro.machine.params.MachineParams` to a
    modified copy before the run — the hook the gate's own tests use to
    prove a cost-model change trips the check.  ``observer`` (an
    :class:`~repro.obs.instrumentation.Instrumentation` hub) is attached
    to every network the scenario creates, so a baseline run can double
    as a trace-export run.
    """
    from repro.machine.engine import EnsembleNetwork
    from repro.machine.faults import FaultPlan
    from repro.plans.batch import resolve_problem
    from repro.plans.cache import PlanCache
    from repro.plans.recorder import synthetic_matrix
    from repro.plans.replay import replay_degraded
    from repro.transpose.planner import transpose

    if scenario.service is not None:
        # Serving-layer scenario: the counters come from a frozen-clock
        # single-worker run, so perturb/observer do not apply here.
        from repro.service import (
            LoadSpec,
            ServerConfig,
            deterministic_counters,
        )

        doc = json.loads(scenario.service)
        return deterministic_counters(
            LoadSpec.from_dict(doc.get("spec", {})),
            ServerConfig.from_dict(doc.get("config", {})),
        )

    if scenario.workload is not None:
        # Composite-pipeline scenario: cached compile + one serve, the
        # same path the server's workers take.
        from repro.workloads import build_pipeline, serve_workload

        params = _params_for(scenario, perturb)
        pipeline = build_pipeline(
            scenario.workload, scenario.n, layout=scenario.layout
        )
        faults = (
            FaultPlan.from_spec(scenario.n, scenario.faults)
            if scenario.faults
            else None
        )
        recovery = None
        if scenario.recovery is not None:
            from repro.recovery import RecoveryPolicy

            recovery = RecoveryPolicy.from_spec(scenario.recovery)
        served = serve_workload(
            pipeline,
            params,
            faults=faults,
            cache=PlanCache(),
            observer=observer,
            recovery=recovery,
        )
        counters = {
            k: v
            for k, v in served.stats.as_dict().items()
            if k not in _NON_SCALAR
        }
        counters["algorithm_tier"] = served.algorithm
        if served.recovery is not None:
            counters["resolved"] = served.resolved
        return counters

    from repro.topology import parse_topology

    params = _params_for(scenario, perturb)
    topo = parse_topology(scenario.topology, scenario.n)
    on_cube = topo.name == "cube"
    before, after = resolve_problem(
        scenario.n, scenario.elements, scenario.layout
    )
    faults = (
        FaultPlan.from_spec(
            scenario.n,
            scenario.faults,
            topology=None if on_cube else topo,
        )
        if scenario.faults
        else None
    )

    if scenario.cached:
        recovery = None
        if scenario.recovery is not None:
            from repro.recovery import RecoveryPolicy

            recovery = RecoveryPolicy.from_spec(scenario.recovery)
        cache = PlanCache()
        outcome = replay_degraded(
            params,
            before,
            after,
            faults=faults
            if faults is not None
            else FaultPlan.from_spec(
                scenario.n,
                "seed=0",
                topology=None if on_cube else topo,
            ),
            algorithm=scenario.algorithm,
            cache=cache,
            observer=observer,
            recovery=recovery,
            topology=topo,
        )
        stats, algorithm = outcome.stats, outcome.algorithm
        if outcome.recovery is not None:
            resolved = outcome.recovery.resolved
        else:
            resolved = None
    else:
        integrity = None
        if scenario.integrity:
            from repro.integrity import IntegrityManager

            integrity = IntegrityManager()
        network = EnsembleNetwork(
            params, faults=faults, integrity=integrity, topology=topo
        )
        if observer is not None:
            network.observer = observer
        result = transpose(
            network,
            synthetic_matrix(before),
            after,
            algorithm=scenario.algorithm,
        )
        stats, algorithm = result.stats, result.algorithm
        resolved = None

    counters = {
        k: v
        for k, v in stats.as_dict().items()
        if k not in _NON_SCALAR
    }
    counters["algorithm_tier"] = algorithm
    if resolved is not None:
        counters["resolved"] = resolved
    return counters


@dataclass(frozen=True)
class CounterDiff:
    """One counter whose value left the baseline's tolerance band."""

    scenario: str
    counter: str
    baseline: float | str
    current: float | str

    @property
    def relative(self) -> float | None:
        if isinstance(self.baseline, str) or isinstance(self.current, str):
            return None
        denom = max(abs(self.baseline), 1e-300)
        return (self.current - self.baseline) / denom

    def describe(self) -> str:
        rel = self.relative
        drift = "" if rel is None else f" ({rel:+.3%})"
        return (
            f"{self.scenario}.{self.counter}: baseline "
            f"{self.baseline!r} -> current {self.current!r}{drift}"
        )


@dataclass
class BaselineReport:
    """Outcome of a :func:`check_baselines` pass."""

    checked: int = 0
    missing: list[str] = field(default_factory=list)
    diffs: list[CounterDiff] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.missing and not self.diffs

    def describe(self) -> str:
        if self.ok:
            return f"baseline check passed: {self.checked} scenario(s) clean"
        lines = [
            f"baseline check FAILED: {len(self.diffs)} counter breach(es), "
            f"{len(self.missing)} missing baseline(s) "
            f"across {self.checked} scenario(s)"
        ]
        lines += [f"  {d.describe()}" for d in self.diffs]
        lines += [
            f"  {sid}: no baseline recorded (run `repro baseline record`)"
            for sid in self.missing
        ]
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checked": self.checked,
            "missing": list(self.missing),
            "diffs": [
                {
                    "scenario": d.scenario,
                    "counter": d.counter,
                    "baseline": d.baseline,
                    "current": d.current,
                    "relative": d.relative,
                }
                for d in self.diffs
            ],
        }


def _baseline_path(directory: str, scenario_id: str) -> str:
    return os.path.join(directory, f"{scenario_id}.json")


def record_baselines(
    directory: str,
    suite: tuple[BaselineScenario, ...] = DEFAULT_SUITE,
    *,
    perturb: Callable | None = None,
) -> list[str]:
    """Run the suite and write one baseline document per scenario."""
    from repro import __version__

    os.makedirs(directory, exist_ok=True)
    written = []
    for scenario in suite:
        doc = {
            "scenario": scenario.describe(),
            "counters": run_scenario(scenario, perturb=perturb),
            "code_version": __version__,
        }
        path = _baseline_path(directory, scenario.id)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(path)
    return written


def _within(baseline, current, rel_tol: float) -> bool:
    if isinstance(baseline, str) or isinstance(current, str):
        return baseline == current
    if baseline == current:
        return True
    return abs(current - baseline) <= rel_tol * max(abs(baseline), 1e-300)


def check_baselines(
    directory: str,
    suite: tuple[BaselineScenario, ...] = DEFAULT_SUITE,
    *,
    rel_tol: float = DEFAULT_TOLERANCE,
    perturb: Callable | None = None,
) -> BaselineReport:
    """Re-run the suite and diff every counter against its baseline.

    A counter passes when it matches exactly or within ``rel_tol``
    relative tolerance; counters present on only one side are breaches
    (a renamed counter is a behavioural change too).
    """
    report = BaselineReport()
    for scenario in suite:
        path = _baseline_path(directory, scenario.id)
        if not os.path.exists(path):
            report.missing.append(scenario.id)
            continue
        with open(path) as fh:
            recorded = json.load(fh)["counters"]
        current = run_scenario(scenario, perturb=perturb)
        report.checked += 1
        for counter in sorted(set(recorded) | set(current)):
            if counter not in recorded:
                report.diffs.append(
                    CounterDiff(scenario.id, counter, "<absent>",
                                current[counter])
                )
            elif counter not in current:
                report.diffs.append(
                    CounterDiff(scenario.id, counter, recorded[counter],
                                "<absent>")
                )
            elif not _within(recorded[counter], current[counter], rel_tol):
                report.diffs.append(
                    CounterDiff(scenario.id, counter, recorded[counter],
                                current[counter])
                )
    return report
