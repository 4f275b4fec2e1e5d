"""Execution statistics collected by the simulator.

:class:`TransferStats` is a plain record of the paper's counters: one
attribute per field — ``time``, ``startups``, ``element_hops``, … —
plus the per-directed-link element loads (``link_elements``) and the
per-phase durations (``phase_times``).  The engine's hot path adds to
the attributes directly; ``as_dict``/``from_dict`` give its JSON form
and ``merge`` composes runs sequentially.
"""

from __future__ import annotations

__all__ = ["TransferStats"]

#: Scalar counter fields, in canonical (summary/merge) order.
_COUNTER_FIELDS = (
    "time",
    "comm_time",
    "copy_time",
    "phases",
    "messages",
    "startups",
    "element_hops",
    "copied_elements",
    "link_fault_events",
    "node_fault_events",
    "retries",
    "detour_hops",
    "stall_phases",
    "plan_hits",
    "plan_misses",
    "plan_evictions",
    "checkpoints",
    "rollbacks",
    "replayed_phases",
    "wasted_elements",
    "integrity_corrupted_deliveries",
    "integrity_retransmits",
    "integrity_quarantined_links",
    "integrity_checksum_overhead",
    "traced_requests",
    "trace_wall_seconds",
)

#: Counters omitted from :meth:`TransferStats.as_dict` while zero.  The
#: integrity counters joined after the first pinned baselines were
#: recorded, and the tracing counters after that; suppressing their zero
#: values keeps every pre-existing baseline document and clean-run stats
#: fingerprint byte-identical (``from_dict`` already defaults absent
#: names to zero).  The tracing counters only ever move on hubs with an
#: armed wall clock, which no baseline scenario has.
_ZERO_SUPPRESSED = (
    "integrity_corrupted_deliveries",
    "integrity_retransmits",
    "integrity_quarantined_links",
    "integrity_checksum_overhead",
    "traced_requests",
    "trace_wall_seconds",
)


class TransferStats:
    """Accumulated costs of a simulated run.

    ``time`` is the modelled wall-clock time; the remaining counters
    support the paper's style of analysis (number of start-ups, element
    transfers, communication phases, link utilization).
    """

    __slots__ = _COUNTER_FIELDS + ("link_elements", "phase_times")

    def __init__(self) -> None:
        for name in _COUNTER_FIELDS:
            setattr(self, name, 0)
        #: (src, dst) -> elements carried over that directed link.
        self.link_elements: dict[tuple[int, int], int] = {}
        #: Per-phase durations, in execution order.
        self.phase_times: list[float] = []

    # -- recording (the engine's hot path) ----------------------------------

    def record_phase(self, duration: float) -> None:
        self.phases += 1
        self.phase_times.append(duration)
        self.time += duration
        self.comm_time += duration

    def record_message(
        self, src: int, dst: int, elements: int, packets: int
    ) -> None:
        self.messages += 1
        self.startups += packets
        self.element_hops += elements
        links = self.link_elements
        links[src, dst] = links.get((src, dst), 0) + elements

    def record_copy(self, elements: int, duration: float) -> None:
        self.copied_elements += elements
        self.copy_time += duration
        self.time += duration

    def record_fault(self, *, node: bool) -> None:
        """A delivery hit a faulted node (``node=True``) or link."""
        if node:
            self.node_fault_events += 1
        else:
            self.link_fault_events += 1

    def record_retry(self) -> None:
        """A routed transfer waited a round for a transient fault to heal."""
        self.retries += 1

    def record_detour(self) -> None:
        """A routed transfer misrouted one hop around a faulted resource."""
        self.detour_hops += 1

    def record_stall(self) -> None:
        """A routing round in which no transfer could advance."""
        self.stall_phases += 1

    def record_checkpoint(self) -> None:
        """A consistent snapshot of the node memories was retained."""
        self.checkpoints += 1

    def record_rollback(self, replayed_phases: int = 0) -> None:
        """Execution rolled back to a checkpoint; ``replayed_phases`` is
        the number of communication phases the resume must re-execute."""
        if replayed_phases < 0:
            raise ValueError("cannot replay a negative number of phases")
        self.rollbacks += 1
        self.replayed_phases += replayed_phases

    def record_wasted(self, elements: int) -> None:
        """Element-hops whose work was discarded by a rollback or restart."""
        if elements < 0:
            raise ValueError("cannot waste a negative number of elements")
        self.wasted_elements += elements

    def record_corrupted_delivery(self) -> None:
        """A delivery failed end-to-end checksum verification."""
        self.integrity_corrupted_deliveries += 1

    def record_retransmit(self) -> None:
        """A corrupted message was retransmitted over its link."""
        self.integrity_retransmits += 1

    def record_quarantine(self) -> None:
        """A flaky link was quarantined (dead from the next phase on)."""
        self.integrity_quarantined_links += 1

    def record_checksum_overhead(self, elements: int) -> None:
        """Elements checksummed at send time (including retransmissions)."""
        if elements < 0:
            raise ValueError("cannot checksum a negative element count")
        self.integrity_checksum_overhead += elements

    def record_traced(self, wall_seconds: float = 0.0) -> None:
        """A request served under an armed trace context.

        ``wall_seconds`` is the request's measured wall-clock execute
        time; both counters stay zero (and suppressed from
        :meth:`as_dict`) on untraced runs, so arming tracing never
        perturbs the pinned baselines.
        """
        if wall_seconds < 0:
            raise ValueError("wall_seconds cannot be negative")
        self.traced_requests += 1
        self.trace_wall_seconds += wall_seconds

    def record_plan_event(self, kind: str) -> None:
        """A plan-cache lookup outcome: ``hit``, ``miss`` or ``eviction``."""
        if kind == "hit":
            self.plan_hits += 1
        elif kind == "miss":
            self.plan_misses += 1
        elif kind == "eviction":
            self.plan_evictions += 1
        else:
            raise ValueError(f"unknown plan-cache event {kind!r}")

    # -- derived counters ---------------------------------------------------

    @property
    def max_link_elements(self) -> int:
        """The heaviest directed link's element load."""
        return max(self.link_elements.values(), default=0)

    @property
    def fault_events(self) -> int:
        """Total fault encounters (link + node) observed by the engine."""
        return self.link_fault_events + self.node_fault_events

    # -- composition ---------------------------------------------------------

    def merge(self, other: "TransferStats") -> None:
        """Fold another stats object into this one (sequential composition)."""
        for name in _COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        links = self.link_elements
        for link, load in other.link_elements.items():
            links[link] = links.get(link, 0) + load
        self.phase_times.extend(other.phase_times)

    def summary(self) -> str:
        text = (
            f"time={self.time * 1e3:.3f} ms (comm {self.comm_time * 1e3:.3f}, "
            f"copy {self.copy_time * 1e3:.3f}) phases={self.phases} "
            f"messages={self.messages} startups={self.startups} "
            f"element_hops={self.element_hops}"
        )
        if self.fault_events or self.retries or self.detour_hops:
            text += (
                f" faults={self.fault_events} retries={self.retries} "
                f"detours={self.detour_hops} stalls={self.stall_phases}"
            )
        if self.plan_hits or self.plan_misses or self.plan_evictions:
            text += (
                f" plan_hits={self.plan_hits} plan_misses={self.plan_misses} "
                f"plan_evictions={self.plan_evictions}"
            )
        if self.checkpoints or self.rollbacks:
            text += (
                f" checkpoints={self.checkpoints} rollbacks={self.rollbacks} "
                f"replayed_phases={self.replayed_phases} "
                f"wasted_elements={self.wasted_elements}"
            )
        if self.integrity_corrupted_deliveries or self.integrity_retransmits:
            text += (
                f" corrupted={self.integrity_corrupted_deliveries} "
                f"retransmits={self.integrity_retransmits} "
                f"quarantined={self.integrity_quarantined_links}"
            )
        return text

    def as_dict(self) -> dict:
        """Machine-readable counters (JSON-safe: link keys stringified)."""
        doc = {
            name: getattr(self, name)
            for name in _COUNTER_FIELDS
            if name not in _ZERO_SUPPRESSED or getattr(self, name)
        }
        doc["max_link_elements"] = self.max_link_elements
        doc["link_elements"] = {
            f"{src}->{dst}": load
            for (src, dst), load in sorted(self.link_elements.items())
        }
        doc["phase_times"] = list(self.phase_times)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "TransferStats":
        """Rebuild stats from :meth:`as_dict` output (JSON round-trip)."""
        stats = cls()
        for name in _COUNTER_FIELDS:
            setattr(stats, name, doc.get(name, 0))
        for key, load in doc.get("link_elements", {}).items():
            src, _, dst = key.partition("->")
            stats.link_elements[int(src), int(dst)] = load
        stats.phase_times.extend(doc.get("phase_times", ()))
        return stats

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TransferStats):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:
        return f"TransferStats({self.summary()})"

