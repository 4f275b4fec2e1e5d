"""The public transpose entry point: classify, pick, run, report.

:func:`transpose` is what a downstream user calls: given a distributed
matrix, a target layout and a machine, it classifies the communication
(§2), selects the algorithm the paper recommends for that class and port
model, executes it on the simulated network, and returns the transposed
matrix together with the cost accounting.

When the network carries a :class:`~repro.machine.faults.FaultPlan`, the
planner *degrades gracefully* instead of crashing: an exclusive
SPT/DPT/MPT schedule whose link set intersects the plan's faulted links
is skipped proactively (its edge-disjointness lemma no longer holds on
the surviving cube), falling down the ladder MPT → DPT → SPT → router;
a fault that still aborts a run mid-flight (possible for strategies the
planner cannot pre-check, such as the exchange family) triggers one
reactive retry on the terminal fault-tolerant tier.  Every run —
degraded or not — passes a run-level
invariant checker: element conservation, drained node memories and
exact transposed placement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.cube.paths import (
    dpt_itineraries,
    mpt_paths,
    spt_itinerary,
    transpose_hamming,
)
from repro.cube.topology import path_dims_to_nodes
from repro.layout.classify import CommClass, classify_transpose
from repro.layout.fields import Layout
from repro.layout.matrix import DistributedMatrix
from repro.machine.engine import EnsembleNetwork
from repro.machine.faults import (
    DisconnectedCubeError,
    FaultError,
    FaultPlan,
    RoutingStalledError,
)
from repro.machine.metrics import TransferStats
from repro.machine.params import PortModel
from repro.obs.instrumentation import instrumentation_of
from repro.topology import Topology
from repro.topology.capabilities import CUBE_ALGORITHMS, supported_algorithms
from repro.transpose.exchange import BufferPolicy, exchange_transpose
from repro.transpose.fallback import routed_universal_transpose
from repro.transpose.mixed import mixed_code_transpose_combined
from repro.transpose.one_dim import block_transpose
from repro.transpose.two_dim import (
    two_dim_transpose_mpt,
    two_dim_transpose_router,
    two_dim_transpose_spt,
)

__all__ = [
    "TransposeInvariantError",
    "TransposeResult",
    "check_transpose_invariants",
    "default_after_layout",
    "degrade_strategy",
    "schedule_links",
    "select_algorithm",
    "select_tier",
    "transpose",
]


class TransposeInvariantError(AssertionError):
    """A run-level invariant failed after an algorithm completed.

    Raised by :func:`check_transpose_invariants`: either elements were
    lost/duplicated, blocks were left stranded in node memories, or the
    final placement is not the exact transpose.
    """


@dataclass
class TransposeResult:
    """Outcome of a planned transpose."""

    matrix: DistributedMatrix
    stats: TransferStats
    algorithm: str
    comm_class: CommClass
    #: The strategy initially selected (or requested); equals
    #: ``algorithm`` unless the planner degraded around faults.
    requested: str = ""
    #: Tiers skipped (infeasible under the fault plan) or aborted by a
    #: mid-run fault, in the order they were considered.
    fallbacks: tuple[str, ...] = ()
    #: Modelled extra time the degradation cost: the faulted run's total
    #: time minus a clean-machine run of the requested strategy.  Zero
    #: when no degradation happened.
    recovery_overhead: float = 0.0

    def __post_init__(self) -> None:
        if not self.requested:
            self.requested = self.algorithm

    @property
    def degraded(self) -> bool:
        return bool(self.fallbacks)

    def verify_against(self, original: np.ndarray) -> bool:
        """Does the gathered result equal ``original.T``?"""
        return bool(np.array_equal(self.matrix.to_global(), original.T))


def default_after_layout(before: Layout) -> Layout:
    """The canonical target: the same field structure on ``A^T``.

    Defined for square matrices (``p == q``), where "the same scheme on
    the transposed matrix" keeps every field's bit positions: the
    dimensions that encoded row bits now encode the same-numbered column
    bits.  Rectangular matrices need an explicit target layout (or
    virtual-element squaring, Definition 2).
    """
    if before.p != before.q:
        raise ValueError(
            "a default target layout exists only for square matrices; "
            "pass `after` explicitly (or square up with virtual elements)"
        )
    return Layout(before.p, before.q, before.fields, before.name)


def check_transpose_invariants(
    network: EnsembleNetwork,
    original: np.ndarray,
    result: DistributedMatrix,
    *,
    baseline_elements: int = 0,
) -> None:
    """Assert the run-level invariants of a completed transpose.

    * **conservation** — the result holds exactly as many elements as
      the input (nothing lost to a dropped message or double pop);
    * **drained memories** — the network's node memories are back to
      their pre-run element count (no stranded in-flight blocks);
    * **placement** — gathering the result yields exactly ``original.T``.

    Raises :class:`TransposeInvariantError` naming the violated invariant.
    """
    if result.total_elements != original.size:
        raise TransposeInvariantError(
            f"element conservation violated: result holds "
            f"{result.total_elements} elements, input had {original.size}"
        )
    leftover = network.total_elements() - baseline_elements
    if leftover:
        raise TransposeInvariantError(
            f"{leftover} element(s) left stranded in node memories "
            "after the run"
        )
    if not np.array_equal(result.to_global(), original.T):
        raise TransposeInvariantError(
            "final placement is not the exact transpose of the input"
        )


# -- fault-aware strategy selection ---------------------------------------------

#: The degradation ladder for ``tr(x)`` pairwise transposes, fastest
#: (most schedule structure, most links) to slowest (no schedule at all).
_LADDER = ("mpt", "dpt", "spt", "router")


@lru_cache(maxsize=None)
def schedule_links(tier: str, n: int) -> frozenset[tuple[int, int]]:
    """Every directed link the tier's exclusive schedule traverses.

    The SPT path of a node is DPT's first itinerary, and the two DPT
    paths are MPT paths 0 and H, so ``spt ⊆ dpt ⊆ mpt`` as link sets —
    which is what makes the fallback ladder worth descending: a fault on
    an MPT-only link leaves DPT (and SPT) intact.
    """
    links: set[tuple[int, int]] = set()
    for x in range(1 << n):
        if transpose_hamming(x, n) == 0:
            continue
        if tier == "spt":
            dim_paths = [[d for d in spt_itinerary(x, n) if d is not None]]
        elif tier == "dpt":
            dim_paths = [
                [d for d in it if d is not None]
                for it in dpt_itineraries(x, n)
            ]
        elif tier == "mpt":
            dim_paths = [list(dims) for dims in mpt_paths(x, n)]
        else:
            raise ValueError(f"no link schedule for tier {tier!r}")
        for dims in dim_paths:
            nodes = path_dims_to_nodes(x, dims)
            links.update(zip(nodes, nodes[1:]))
    return frozenset(links)


def _tier_feasible(tier: str, n: int, plan: FaultPlan) -> bool:
    """Can this exclusive schedule run to completion under the plan?

    Conservative: any fault *ever* active on a scheduled link (or any
    node fault at all — every node participates in a full transpose)
    rules the tier out, because the exclusive schedules have no slack to
    wait out a transient window.
    """
    if plan.faulted_nodes_ever():
        return False
    return not (schedule_links(tier, n) & plan.faulted_links_ever())


def _degrade(
    name: str, n: int, plan: FaultPlan
) -> tuple[str, tuple[str, ...]]:
    """First feasible tier at or below ``name``; also the skipped tiers.

    The router tier is terminal: its adaptive fault tolerance needs no
    feasibility proof, so the ladder always bottoms out.
    """
    start = _LADDER.index(name)
    skipped: list[str] = []
    for tier in _LADDER[start:]:
        if tier == "router" or _tier_feasible(tier, n, plan):
            return tier, tuple(skipped)
        skipped.append(tier)
    return "router", tuple(skipped)


def degrade_strategy(
    name: str, n: int, plan: FaultPlan | None
) -> tuple[str, tuple[str, ...]]:
    """Public tier selection: ``(surviving_tier, skipped_tiers)``.

    The same proactive feasibility walk :func:`transpose` performs
    before executing, exposed so plan-replay entry points can pick the
    tier a fault plan leaves standing *without* re-planning it.  Names
    outside the MPT → DPT → SPT ladder (and empty fault plans) pass
    through unchanged.
    """
    if plan is None or plan.is_empty or name not in _LADDER[:-1]:
        return name, ()
    return _degrade(name, n, plan)


def select_algorithm(
    before: Layout,
    after: Layout,
    port_model: PortModel | str,
    topology: Topology | None = None,
) -> str:
    """The strategy ``algorithm="auto"`` resolves to (§6.1/§6.3/§9).

    Deterministic in the layout pair, port model and topology alone,
    which makes it usable as a cache-key ingredient: an ``auto`` request
    and an explicit request for the resolved name address the same plan.
    On a non-cube topology the paper's scheduled algorithms do not
    apply, so ``auto`` resolves straight to the routed-universal floor
    (see :mod:`repro.topology.capabilities`).
    """
    if topology is not None and topology.name != "cube":
        return "routed-universal"
    if isinstance(port_model, str):
        port_model = PortModel(port_model)
    n_port = port_model is PortModel.N_PORT
    info = classify_transpose(before, after)
    if info.comm_class in (CommClass.PAIRWISE, CommClass.LOCAL):
        return _pick_pairwise(before, after, n_port)
    return "block-sbnt" if n_port else "exchange"


def select_tier(
    algorithm: str,
    before: Layout,
    after: Layout,
    port_model: PortModel | str,
    topology: Topology | None = None,
) -> tuple[str, tuple[str, ...]]:
    """The tier a request runs: ``(tier, skipped)``.

    ``auto`` resolves through :func:`select_algorithm`.  A cube-only
    name on a topology that cannot run it is floored to
    ``routed-universal`` (the scheduled tiers' lemmas are cube-shaped)
    and reported in ``skipped``; a name the planner does not know
    raises :class:`ValueError`.  Fault plans play no part here — the
    degradation ladder is :func:`degrade_strategy`'s job.
    """
    if algorithm == "auto":
        return select_algorithm(before, after, port_model, topology), ()
    if algorithm in supported_algorithms(topology):
        return algorithm, ()
    if algorithm not in CUBE_ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    return "routed-universal", (algorithm,)


def _execute(
    network: EnsembleNetwork,
    name: str,
    dm: DistributedMatrix,
    after: Layout,
    policy: BufferPolicy | None,
    packet_size: int | None,
) -> DistributedMatrix:
    """Dispatch one algorithm by name (no fault awareness here)."""
    if name == "spt":
        return two_dim_transpose_spt(
            network, dm, after, packet_size=packet_size, charge_copy=True
        )
    if name == "dpt":
        from repro.transpose.two_dim import two_dim_transpose_dpt

        return two_dim_transpose_dpt(
            network, dm, after, packet_size=packet_size
        )
    if name == "mpt":
        return two_dim_transpose_mpt(network, dm, after)
    if name == "router":
        return two_dim_transpose_router(network, dm, after)
    if name == "routed-universal":
        return routed_universal_transpose(network, dm, after)
    if name == "mixed-combined":
        return mixed_code_transpose_combined(network, dm, after)
    if name == "mixed-naive":
        from repro.transpose.mixed import mixed_code_transpose_naive

        return mixed_code_transpose_naive(network, dm, after)
    if name == "exchange":
        chosen = policy or BufferPolicy(mode="threshold")
        return exchange_transpose(network, dm, after, policy=chosen)
    if name == "block-exchange":
        return block_transpose(network, dm, after, router="exchange")
    if name == "block-sbnt":
        return block_transpose(network, dm, after, router="sbnt")
    raise ValueError(f"unknown algorithm {name!r}")


def transpose(
    network: EnsembleNetwork,
    dm: DistributedMatrix,
    after: Layout | None = None,
    *,
    algorithm: str = "auto",
    policy: BufferPolicy | None = None,
    packet_size: int | None = None,
    degrade: bool = True,
) -> TransposeResult:
    """Transpose ``dm`` into layout ``after`` on the given machine.

    ``algorithm="auto"`` follows the paper's guidance:

    * pairwise communication, one-port   → step-by-step SPT (§8.2);
    * pairwise, n-port                   → MPT (Theorem 2);
    * pairwise with Gray/binary mixes the bit machinery cannot commute →
      the §6.3 combined algorithm;
    * all-to-all or mixed overlap, one-port → the exchange algorithm
      with the optimum-threshold buffering of §8.1;
    * all-to-all or mixed, n-port        → block transpose over SBnT
      routing (§5).

    Explicit names: ``"spt"``, ``"dpt"``, ``"mpt"``, ``"router"``,
    ``"exchange"``, ``"block-exchange"``, ``"block-sbnt"``,
    ``"mixed-combined"``, ``"mixed-naive"``, ``"routed-universal"``.

    With a fault plan on the network and ``degrade=True`` (the default),
    a strategy whose exclusive schedule would traverse a faulted link is
    replaced by the next feasible tier of MPT → DPT → SPT → router
    before running (so at most one strategy executes); a fault that
    still aborts a run mid-flight triggers exactly one reactive retry on
    the terminal fault-tolerant tier.  The result reports the requested
    strategy, the tiers skipped, and the modelled recovery overhead
    (faulted run time minus a clean run of the requested strategy).
    ``degrade=False`` restores fail-fast behaviour: fault errors
    propagate.
    """
    before = dm.layout
    if after is None:
        after = default_after_layout(before)
    info = classify_transpose(before, after)
    if before.n != after.n:
        raise ValueError(
            "the planner handles layouts using the full machine on both "
            "sides (|R_b| == |R_a|); for some-to-all / all-to-some cases "
            "use repro.comm.all_to_some directly with virtual elements"
        )

    topo = network.topology
    name, fallbacks = select_tier(
        algorithm, before, after, network.params.port_model, topology=topo
    )
    requested = name if algorithm == "auto" else algorithm
    caps = supported_algorithms(topo)
    if fallbacks and not degrade:
        raise ValueError(
            f"algorithm {requested!r} needs a Boolean cube; topology "
            f"{topo.spec!r} supports: {', '.join(caps)}"
        )
    plan = network.faults
    if plan is not None and plan.is_empty:
        plan = None
    if plan is not None and degrade:
        if not plan.surviving_connected():
            raise DisconnectedCubeError(
                "the surviving topology is not strongly connected; no "
                f"transpose can complete ({plan.describe()})"
            )
        if name in _LADDER[:-1]:  # mpt/dpt/spt: proactively checkable
            name, fallbacks = _degrade(name, before.n, plan)

    original = dm.to_global()
    baseline_elements = network.total_elements()
    pre_keys = [frozenset(mem.keys()) for mem in network.memories]
    instr = instrumentation_of(network)
    stats = network.stats
    pre_faults = stats.fault_events
    pre_retries = stats.retries
    pre_detours = stats.detour_hops
    pre_phases = stats.phases
    pre_hops = stats.element_hops
    with instr.span(
        "transpose",
        category="run",
        requested=requested,
        comm_class=info.comm_class.value,
    ) as run_span:
        if fallbacks:
            run_span.annotate(skipped=list(fallbacks))
            instr.event(
                "degrade",
                "planner",
                requested=requested,
                tier=name,
                skipped=list(fallbacks),
            )
        try:
            with instr.span(name, category="algorithm", algorithm=name):
                out = _execute(network, name, dm, after, policy, packet_size)
        except (FaultError, RoutingStalledError):
            if plan is None or not degrade:
                raise
            # Reactive safety net: clear in-flight blocks, rerun on the
            # terminal fault-tolerant tier.  At most one retry by design.
            # Unlike the resume-based recovery executor
            # (repro.recovery.executor), a live restart forfeits every
            # completed phase — account that honestly so restart and
            # resume are comparable in the same counters.
            for mem, keys in zip(network.memories, pre_keys):
                for key in list(mem.keys()):
                    if key not in keys:
                        mem.pop(key)
            stats.record_rollback(stats.phases - pre_phases)
            stats.record_wasted(stats.element_hops - pre_hops)
            fallbacks = (*fallbacks, name)
            terminal = (
                "router"
                if name in _LADDER and info.comm_class
                in (CommClass.PAIRWISE, CommClass.LOCAL)
                else "routed-universal"
            )
            aborted = name
            name = terminal
            instr.event(
                "degrade", "planner", requested=requested, tier=name,
                reactive=True,
            )
            if instr.enabled:
                instr.recovery(
                    "ladder", aborted=aborted, tier=name,
                    wasted_phases=stats.phases - pre_phases,
                )
            with instr.span(
                "recover", category="recovery", action="ladder",
                aborted=aborted, tier=name,
            ), instr.span(
                name, category="algorithm", algorithm=name,
                reactive_retry=True,
            ):
                out = _execute(network, name, dm, after, policy, packet_size)

        check_transpose_invariants(
            network, original, out, baseline_elements=baseline_elements
        )

        overhead = 0.0
        if name != requested and requested in caps:
            overhead = network.stats.time - _clean_run_time(
                network, requested, dm, after, policy, packet_size
            )
        run_span.annotate(
            algorithm=name,
            fallbacks=list(fallbacks),
            recovery_overhead=overhead,
            faults=stats.fault_events - pre_faults,
            retries=stats.retries - pre_retries,
            detours=stats.detour_hops - pre_detours,
        )
    return TransposeResult(
        out,
        network.stats,
        name,
        info.comm_class,
        requested=requested,
        fallbacks=fallbacks,
        recovery_overhead=overhead,
    )


def _clean_run_time(
    network: EnsembleNetwork,
    name: str,
    dm: DistributedMatrix,
    after: Layout,
    policy: BufferPolicy | None,
    packet_size: int | None,
) -> float:
    """Modelled time of the requested strategy on a fault-free machine.

    The shadow run is what prices the degradation: recovery overhead is
    the faulted run's actual time minus this baseline.
    """
    shadow = EnsembleNetwork(network.params, topology=network.topology)
    _execute(shadow, name, dm, after, policy, packet_size)
    return shadow.stats.time


def _pick_pairwise(before: Layout, after: Layout, n_port: bool) -> str:
    """Choose among the pairwise algorithms (§6.1 / §6.3)."""
    from repro.cube.paths import transpose_partner
    from repro.transpose.two_dim import pairwise_maps

    if before.n == 0:
        return "block-exchange"  # degenerates to a local rearrangement
    partner, _ = pairwise_maps(before, after)
    is_tr = before.n % 2 == 0 and all(
        int(partner[x]) == transpose_partner(x, before.n)
        for x in range(len(partner))
    )
    if is_tr:
        return "mpt" if n_port else "spt"
    # Pairwise but not tr(x): mixed Gray/binary encodings (§6.3) or a
    # combined assignment; the greedy correction router handles both.
    return "mixed-combined"
