"""Store-and-forward e-cube routing: the "routing logic" baseline.

The paper compares its scheduled transpose algorithms against simply
handing every (source, destination, data) triple to the machine's routing
logic (Fig. 14b for the iPSC, Figs. 16-18 for the Connection Machine).
The router corrects address bits in dimension order; packets that contend
for a link queue behind each other.  This module simulates that: messages
advance one hop per round when their next directed link (and, one-port,
their endpoints) are free; the engine prices each round.

The router has no global knowledge, so its schedules are generally *not*
conflict-free — which is exactly why the scheduled algorithms win on
large cubes.

When the network carries a :class:`~repro.machine.faults.FaultPlan`, the
router becomes *fault tolerant*: a transfer whose preferred (profitable)
hop is dead detours through an alternate dimension — adaptive misrouting
bounded by a hop budget — and waits out transient faults with bounded
retries.  Livelock is impossible by construction: either some transfer
advances, a stall round passes (only while transient faults can still
heal), or a diagnosable :class:`RoutingStalledError` is raised.  The
healthy-machine behaviour is bit-for-bit the oblivious e-cube baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

from repro.integrity.errors import CorruptedDeliveryError
from repro.machine.engine import EnsembleNetwork
from repro.machine.faults import (
    FaultPlan,
    NodeFailureError,
    RoutingStalledError,
)
from repro.machine.message import Message
from repro.machine.params import PortModel
from repro.obs.instrumentation import instrumentation_of
from repro.topology import Topology

__all__ = ["route_messages", "RoutedTransfer", "RoutingStalledError"]


@dataclass
class RoutedTransfer:
    """A source-to-destination transfer handled by the routing logic."""

    src: int
    dst: int
    keys: tuple[Hashable, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.keys, tuple):
            self.keys = tuple(self.keys)
        if not self.keys:
            raise ValueError("a transfer must carry at least one block")


class _Pending:
    """Mutable per-transfer routing state."""

    __slots__ = (
        "cur", "src", "dst", "keys", "hops", "blocked", "prev", "fallback"
    )

    def __init__(self, t: RoutedTransfer) -> None:
        self.cur = t.src
        self.src = t.src
        self.dst = t.dst
        self.keys = t.keys
        self.hops = 0
        self.blocked = 0  # consecutive rounds stuck behind a fault
        self.prev: int | None = None
        # Sticky last-resort mode: once greedy misrouting is exhausted
        # the transfer follows shortest paths of the *surviving* graph
        # (permanent faults and quarantined links removed) until
        # delivery, so progress is monotone and livelock impossible.
        self.fallback = False

    def describe(self) -> str:
        return (
            f"{self.keys!r}: {self.src}->{self.dst} at node {self.cur} "
            f"after {self.hops} hop(s), blocked {self.blocked} round(s)"
        )


def route_messages(
    network: EnsembleNetwork,
    transfers: Sequence[RoutedTransfer],
    *,
    ascending: bool = True,
    half_duplex: bool = True,
    max_rounds: int | None = None,
    detour_budget: int | None = None,
    retry_limit: int = 8,
) -> int:
    """Deliver all transfers via e-cube routing; returns the round count.

    Per round, a directed link carries at most one message; under the
    one-port model a node additionally sends at most one and receives at
    most one message per round — and, with ``half_duplex`` (the default),
    cannot do both: software store-and-forward routing on the iPSC fully
    occupies a node per message hop, which is a large part of why the
    scheduled algorithms beat the routing logic on big cubes (Fig. 14b).
    Scheduled exchanges, by contrast, overlap send and receive
    (bidirectional links, §2).  Hardware-pipelined routers (the
    Connection Machine preset) use the n-port model, where this does not
    apply.  Selection is FIFO over the remaining transfers, so the
    simulation is deterministic.

    Fault tolerance (active when ``network.faults`` is a non-empty
    :class:`~repro.machine.faults.FaultPlan`):

    * a transfer whose profitable hops are all dead *this round* first
      retries up to ``retry_limit`` rounds if any blockage is transient,
      then misroutes through a healthy unprofitable dimension (one hop
      away from the destination, so the detour costs two extra hops);
    * each transfer may spend at most ``detour_budget`` extra hops beyond
      its Hamming distance (default ``2 n``) on *greedy* misrouting;
      exhausting a positive budget against purely permanent blockage
      switches the transfer to shortest paths of the surviving graph
      (permanent faults and quarantined links removed), which delivers
      whenever the destination is still reachable; a zero budget forbids
      every non-minimal hop and raises :class:`RoutingStalledError`
      instead;
    * ``max_rounds`` caps the total rounds (default ``None`` = unlimited);
    * rounds in which nothing advances are *stall rounds*: the engine's
      phase clock still ticks (transient faults heal by phase index), but
      once every remaining fault is permanent a stalled round raises
      :class:`RoutingStalledError` with a per-transfer diagnosis instead
      of spinning.

    A transfer whose source or destination node is permanently dead is
    undeliverable and raises
    :class:`~repro.machine.faults.NodeFailureError` immediately.

    The routing generalizes beyond the cube through the network's
    :class:`~repro.topology.base.Topology`: "profitable" hops are the
    topology's minimal next hops (for the hypercube, exactly the
    dimension-ordered e-cube candidates), misrouting scans the remaining
    neighbours in canonical order, and the default detour budget is
    twice the topology's diameter (``2 n`` on the cube, as before).
    """
    topo: Topology = network.topology
    one_port = network.params.port_model is PortModel.ONE_PORT
    plan: FaultPlan | None = network.faults
    if plan is not None and plan.is_empty:
        plan = None
    if detour_budget is None:
        detour_budget = 2 * topo.diameter

    pending: list[_Pending] = []
    for t in transfers:
        if t.src == t.dst:
            raise ValueError(f"transfer {t.keys!r} has src == dst == {t.src}")
        if plan is not None:
            for endpoint in (t.src, t.dst):
                nf = plan.node_fault(endpoint, network.stats.phases)
                if nf is not None and nf.end is None:
                    raise NodeFailureError(
                        endpoint, network.stats.phases, nf.kind
                    )
        pending.append(_Pending(t))

    stats = network.stats
    pre_retries = stats.retries
    pre_detours = stats.detour_hops
    pre_stalls = stats.stall_phases
    rounds = 0
    known_quarantined: frozenset = frozenset()
    # dst -> {node: distance} in the surviving graph, for transfers in
    # last-resort fallback mode; recomputed when quarantine grows.
    survivor_cache: dict[int, dict[int, int]] = {}
    with instrumentation_of(network).span(
        "route", category="routing", transfers=len(pending)
    ) as route_span:
        while pending:
            if max_rounds is not None and rounds >= max_rounds:
                raise RoutingStalledError(
                    f"round cap {max_rounds} reached with "
                    f"{len(pending)} transfer(s) undelivered; first stuck: "
                    + pending[0].describe()
                )
            phase_now = network.stats.phases
            # Quarantine grows as the integrity layer convicts flaky
            # links, so the avoidance set is refreshed every round.
            quarantined = (
                network.integrity.quarantined_links()
                if network.integrity is not None
                else frozenset()
            )
            if rounds and quarantined != known_quarantined:
                # The topology changed under the transfers' feet: hops
                # spent under the stale map predict nothing, so each
                # budget re-baselines from its current position.
                # Terminates: quarantine only grows and links are
                # finite, so this happens finitely often, and between
                # changes the usual budget argument applies.
                for tr in pending:
                    tr.src = tr.cur
                    tr.hops = 0
                    tr.blocked = 0
                survivor_cache.clear()
            known_quarantined = quarantined
            used_links: set[tuple[int, int]] = set()
            busy_send: set[int] = set()
            busy_recv: set[int] = set()
            phase: list[Message] = []
            movers: list[tuple[_Pending, int]] = []
            waiting_on_fault = False
            for tr in pending:
                nxt = _next_hop(tr, topo, plan, phase_now, ascending,
                                detour_budget, retry_limit, quarantined,
                                survivor_cache)
                if nxt is None:
                    waiting_on_fault = True
                    continue
                cur = tr.cur
                if (cur, nxt) in used_links:
                    continue
                if one_port:
                    if cur in busy_send or nxt in busy_recv:
                        continue
                    if half_duplex and (cur in busy_recv or nxt in busy_send):
                        continue
                used_links.add((cur, nxt))
                busy_send.add(cur)
                busy_recv.add(nxt)
                phase.append(Message(cur, nxt, tr.keys))
                movers.append((tr, nxt))

            if phase:
                try:
                    network.execute_phase(phase)
                except CorruptedDeliveryError:
                    # The engine quarantined the offending link and
                    # aborted the phase before any block moved; the next
                    # round re-routes everything around it.  Terminates:
                    # the quarantine set strictly grows per abort and
                    # links are finite.
                    rounds += 1
                    continue
            else:
                if plan is None:  # cannot happen: first pending always advances
                    raise RoutingStalledError(
                        "router deadlock: no transfer can advance"
                    )
                if phase_now > plan.last_transient_phase():
                    raise RoutingStalledError(
                        "routing stalled: every remaining fault is permanent "
                        f"and none of {len(pending)} transfer(s) can advance; "
                        + "; ".join(tr.describe() for tr in pending[:4])
                    )
                # Stall round: let the clock tick so transient faults heal.
                network.idle_phase()
                network.stats.record_stall()
            rounds += 1

            moved = set()
            for tr, nxt in movers:
                if topo.distance(nxt, tr.dst) > topo.distance(tr.cur, tr.dst):
                    network.stats.record_detour()
                tr.prev = tr.cur
                tr.cur = nxt
                tr.hops += 1
                tr.blocked = 0
                moved.add(id(tr))
            if waiting_on_fault:
                for tr in pending:
                    if id(tr) not in moved and _is_fault_blocked(
                        tr, topo, plan, phase_now, ascending, quarantined
                    ):
                        tr.blocked += 1
                        network.stats.record_retry()
            pending = [tr for tr in pending if tr.cur != tr.dst]
        route_span.annotate(
            rounds=rounds,
            retries=stats.retries - pre_retries,
            detours=stats.detour_hops - pre_detours,
            stalls=stats.stall_phases - pre_stalls,
        )
    return rounds


def _hop_usable(
    plan: FaultPlan | None,
    cur: int,
    nxt: int,
    phase: int,
    quarantined: frozenset | set = frozenset(),
) -> tuple[bool, bool]:
    """(usable now, blocked only transiently) for the hop ``cur -> nxt``."""
    if (cur, nxt) in quarantined:
        return False, False  # quarantine is permanent: never heals
    transient = False
    if plan is not None:
        lf = plan.link_fault(cur, nxt, phase)
        if lf is not None:
            if lf.end is None:
                return False, False
            transient = True
        nf = plan.node_fault(nxt, phase)
        if nf is not None:
            if nf.end is None:
                return False, False
            transient = True
    return not transient, transient


def _is_fault_blocked(
    tr: _Pending,
    topo: Topology,
    plan: FaultPlan | None,
    phase: int,
    ascending: bool,
    quarantined: frozenset | set = frozenset(),
) -> bool:
    """Did this transfer fail to advance because of faults (vs. contention)?"""
    if plan is None and not quarantined:
        return False
    for nxt in topo.minimal_hops(tr.cur, tr.dst, ascending=ascending):
        usable, _ = _hop_usable(plan, tr.cur, nxt, phase, quarantined)
        if usable:
            return False
    return True


def _next_hop(
    tr: _Pending,
    topo: Topology,
    plan: FaultPlan | None,
    phase: int,
    ascending: bool,
    detour_budget: int,
    retry_limit: int,
    quarantined: frozenset | set = frozenset(),
    survivor_cache: dict | None = None,
) -> int | None:
    """The node this transfer should move to this round, or ``None`` to wait.

    Healthy machine: exactly the topology's first minimal hop (on the
    cube, the oblivious e-cube next hop).  Faulted machine: the first
    healthy minimal hop; failing that, bounded retries (if any blockage
    may heal) and then adaptive misrouting through a healthy
    non-minimal neighbour within the hop budget.  Skips the node we
    just came from while any alternative exists, so a misrouted
    transfer resolves the blocked link from its detour position instead
    of ping-ponging.
    """
    cur, dst = tr.cur, tr.dst
    if tr.fallback:
        return _survivor_hop(tr, topo, plan, phase, quarantined,
                             survivor_cache)
    hops = topo.minimal_hops(cur, dst, ascending=ascending)
    if plan is None and not quarantined:
        return hops[0]

    backtrack: int | None = None
    any_transient = False
    for nxt in hops:
        usable, transient = _hop_usable(plan, cur, nxt, phase, quarantined)
        any_transient = any_transient or transient
        if not usable:
            continue
        if nxt == tr.prev:
            backtrack = nxt if backtrack is None else backtrack
            continue
        return nxt
    if backtrack is not None:
        return backtrack

    # Every minimal hop is faulted right now.
    if any_transient and tr.blocked < retry_limit:
        return None  # bounded retry: wait for the fault to heal

    # Adaptive misrouting: a non-minimal hop costs at most two extra
    # hops overall (one out, one back on course), so it must fit in the
    # remaining budget.  On the cube every non-minimal hop costs
    # exactly two; on other topologies a lateral hop may cost less, so
    # two is a safe bound.
    extra_used = tr.hops + topo.distance(cur, dst) - topo.distance(tr.src, dst)
    if extra_used + 2 <= detour_budget:
        minimal = set(hops)
        backtrack = None
        for nxt in topo.neighbors(cur):
            if nxt in minimal:
                continue
            usable, _ = _hop_usable(plan, cur, nxt, phase, quarantined)
            if not usable:
                continue
            if nxt == tr.prev:
                backtrack = nxt if backtrack is None else backtrack
                continue
            return nxt
        if backtrack is not None:
            return backtrack

    if any_transient:
        return None  # out of budget or fully walled in, but it may heal
    # Permanent faults walled off every minimal hop and greedy
    # misrouting is out of budget: switch to surviving-graph shortest
    # paths for the rest of this transfer's journey.  Never reached on
    # runs the greedy strategy completes, so their schedules (and the
    # pinned baselines) are untouched.  A zero budget explicitly
    # forbids every non-minimal hop, so it forbids the fallback too.
    if detour_budget <= 0:
        raise RoutingStalledError(
            "routing stalled: no healthy hop within the detour budget "
            f"({detour_budget} extra hops) for transfer " + tr.describe()
        )
    tr.fallback = True
    return _survivor_hop(tr, topo, plan, phase, quarantined, survivor_cache)


def _survivor_distances(
    topo: Topology,
    plan: FaultPlan | None,
    quarantined: frozenset | set,
    dst: int,
) -> dict[int, int]:
    """Hop distance to ``dst`` through surviving resources only.

    The surviving graph drops quarantined links, permanently faulted
    links and permanently dead nodes (transient faults heal, so they
    stay).  BFS runs from ``dst`` over link *reversals*, giving the
    forward distance node -> dst for every node that can still reach it.
    """
    dead_links = set(quarantined)
    dead_nodes: set[int] = set()
    if plan is not None:
        dead_links.update(
            (f.src, f.dst) for f in plan.link_faults if f.end is None
        )
        dead_nodes.update(
            f.node for f in plan.node_faults if f.end is None
        )
    dist = {dst: 0}
    frontier = [dst]
    while frontier:
        nxt_frontier: list[int] = []
        for v in frontier:
            for u in topo.neighbors(v):
                if u in dist or u in dead_nodes:
                    continue
                if not topo.has_link(u, v) or (u, v) in dead_links:
                    continue
                dist[u] = dist[v] + 1
                nxt_frontier.append(u)
        frontier = nxt_frontier
    return dist


def _survivor_hop(
    tr: _Pending,
    topo: Topology,
    plan: FaultPlan | None,
    phase: int,
    quarantined: frozenset | set,
    survivor_cache: dict | None,
) -> int | None:
    """Next hop along a surviving-graph shortest path, or ``None`` to wait.

    Every candidate hop is free of permanent faults by construction, so
    a blocked round here can only be transient and waiting always
    terminates; each taken hop strictly decreases the surviving
    distance, so delivery needs at most ``num_nodes`` further moves.
    """
    if survivor_cache is None:
        survivor_cache = {}
    dist = survivor_cache.get(tr.dst)
    if dist is None:
        dist = _survivor_distances(topo, plan, quarantined, tr.dst)
        survivor_cache[tr.dst] = dist
    here = dist.get(tr.cur)
    if here is None:
        raise RoutingStalledError(
            "routing stalled: the surviving topology cannot carry "
            "transfer " + tr.describe()
        )
    for nxt in topo.neighbors(tr.cur):
        if dist.get(nxt) != here - 1:
            continue
        usable, _ = _hop_usable(plan, tr.cur, nxt, phase, quarantined)
        if usable:
            return nxt
    return None  # every shortest surviving hop is transiently blocked
