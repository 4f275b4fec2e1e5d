"""Execution tracing: record what a schedule actually did, phase by phase.

Attach a :class:`TraceRecorder` to an :class:`~repro.machine.engine.EnsembleNetwork`
(``net.observer = TraceRecorder()``) and every communication phase and
local charge is logged with its messages, sizes and duration.  The
renderer prints a per-phase timeline — which dimension carried what,
when — the view one needs when a schedule's cost surprises.

The recorder also works as a sink under an
:class:`~repro.obs.instrumentation.Instrumentation` hub, which forwards
the same engine events while additionally building spans and metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cube.topology import dimension_of_edge

__all__ = ["PhaseEvent", "TraceRecorder"]


@dataclass(frozen=True)
class PhaseEvent:
    """One recorded engine event.

    ``transfers`` holds real cube-edge movements only; purely local
    events (kind ``"local"``) carry an empty transfer tuple and report
    their touched element count through ``elements`` instead — no
    synthetic self-loop entries.
    """

    index: int
    kind: str  # "comm", "local", "fault", "cache" or "recovery"
    duration: float
    transfers: tuple[tuple[int, int, int], ...]  # (src, dst, elements)
    detail: str = ""  # fault: "link"/"node"@phase; cache: event + key prefix
    elements: int = 0  # local events: elements touched off-network

    @property
    def total_elements(self) -> int:
        return self.elements + sum(t[2] for t in self.transfers)

    @property
    def dimensions(self) -> tuple[int, ...]:
        """Cube dimensions active in this phase, sorted.

        Guarded against degenerate entries: a transfer must cross a real
        cube edge to contribute, so local events (no transfers) yield
        ``()`` instead of tripping ``dimension_of_edge`` on a self-loop.
        """
        return tuple(
            sorted(
                {
                    dimension_of_edge(s, d)
                    for s, d, _ in self.transfers
                    if s != d
                }
            )
        )


@dataclass
class TraceRecorder:
    """Collects :class:`PhaseEvent`s; set as ``network.observer``."""

    events: list[PhaseEvent] = field(default_factory=list)

    # -- observer protocol (called by the engine) ---------------------------

    def on_phase(
        self, transfers: list[tuple[int, int, int]], duration: float
    ) -> None:
        self.events.append(
            PhaseEvent(len(self.events), "comm", duration, tuple(transfers))
        )

    def on_local(self, elements: int, duration: float) -> None:
        self.events.append(
            PhaseEvent(
                len(self.events), "local", duration, (), elements=elements
            )
        )

    def on_fault(self, src: int, dst: int, phase: int, kind: str) -> None:
        """A delivery hit a faulted resource (kind is "link" or "node")."""
        self.events.append(
            PhaseEvent(
                len(self.events),
                "fault",
                0.0,
                ((src, dst, 0),),
                detail=f"{kind}@phase{phase}",
            )
        )

    def on_cache(self, key: str, event: str) -> None:
        """A plan-cache lookup outcome ("hit", "miss" or "eviction")."""
        self.events.append(
            PhaseEvent(
                len(self.events),
                "cache",
                0.0,
                (),
                detail=f"{event}:{key[:12]}",
            )
        )

    def on_recovery(self, action: str, attrs: dict) -> None:
        """A recovery action ("backoff", "surgery" or "ladder")."""
        detail = action
        extra = ",".join(
            f"{k}={attrs[k]}"
            for k in ("phase", "wait", "strategy", "tier")
            if k in attrs
        )
        if extra:
            detail = f"{action}:{extra}"
        self.events.append(
            PhaseEvent(len(self.events), "recovery", 0.0, (), detail=detail)
        )

    # -- queries -------------------------------------------------------------

    @property
    def comm_events(self) -> list[PhaseEvent]:
        return [e for e in self.events if e.kind == "comm"]

    @property
    def fault_events(self) -> list[PhaseEvent]:
        return [e for e in self.events if e.kind == "fault"]

    @property
    def cache_events(self) -> list[PhaseEvent]:
        return [e for e in self.events if e.kind == "cache"]

    @property
    def recovery_events(self) -> list[PhaseEvent]:
        return [e for e in self.events if e.kind == "recovery"]

    def busiest_phase(self) -> PhaseEvent:
        if not self.events:
            raise ValueError("no events recorded")
        return max(self.events, key=lambda e: e.duration)

    def dimension_histogram(self) -> dict[int, int]:
        """Element volume carried per cube dimension over the whole run."""
        hist: dict[int, int] = {}
        for e in self.comm_events:
            for s, d, size in e.transfers:
                dim = dimension_of_edge(s, d)
                hist[dim] = hist.get(dim, 0) + size
        return hist

    def totals(self) -> dict[str, dict]:
        """Per-kind aggregates over *all* events (truncation-proof)."""
        out: dict[str, dict] = {}
        for e in self.events:
            agg = out.setdefault(
                e.kind, {"events": 0, "elements": 0, "duration": 0.0}
            )
            agg["events"] += 1
            agg["elements"] += e.total_elements
            agg["duration"] += e.duration
        return out

    def render(self, *, max_phases: int = 40) -> str:
        """A fixed-width per-phase timeline with whole-run totals.

        The footer sums every recorded event, so a truncated timeline
        (``... N more``) still summarizes the complete run.
        """
        lines = [
            f"{'phase':>5}  {'kind':5}  {'dims':>12}  {'msgs':>5}  "
            f"{'elements':>9}  {'duration':>10}"
        ]
        for e in self.events[:max_phases]:
            dims = ",".join(map(str, e.dimensions)) if e.kind == "comm" else "-"
            lines.append(
                f"{e.index:>5}  {e.kind:5}  {dims:>12}  "
                f"{len(e.transfers):>5}  {e.total_elements:>9}  "
                f"{e.duration:>10.4g}"
            )
        if len(self.events) > max_phases:
            lines.append(f"... {len(self.events) - max_phases} more")
        totals = self.totals()
        summary = "  ".join(
            f"{kind}: {agg['events']} event(s), {agg['elements']} elements, "
            f"{agg['duration']:.4g} s"
            for kind, agg in sorted(totals.items())
        )
        lines.append(f"total  {summary}" if summary else "total  (no events)")
        return "\n".join(lines)
