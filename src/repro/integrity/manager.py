"""The ARQ delivery path: checksum, verify, retransmit, quarantine.

One :class:`IntegrityManager` per :class:`~repro.machine.engine.EnsembleNetwork`
arms end-to-end checksums: every message is checksummed at send time and
verified at delivery inside ``execute_phase``.  A delivery struck by an
active :class:`~repro.machine.faults.CorruptionFault` fails verification
(the damage model is checksum-visible by construction) and is
retransmitted — each retransmission re-occupies the link, so the phase
pays for it under the machine's cost model — up to
:attr:`IntegrityConfig.retransmit_budget` times.  A delivery that stays
damaged through the whole budget quarantines the link and raises
:class:`~repro.integrity.errors.CorruptedDeliveryError`; a link that
accumulates :attr:`IntegrityConfig.quarantine_after` detected corruptions
is quarantined even if every individual delivery eventually got through.

Quarantined links are permanently dead from the next phase on: the
engine refuses to schedule over them
(:class:`~repro.integrity.errors.LinkQuarantinedError`), the
fault-tolerant router detours around them, and recovery's plan surgery
treats them exactly like permanent link faults — the escalation ladder
is *retransmit → route around → re-plan*.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.integrity.checksum import block_checksum, damaged_checksum
from repro.integrity.errors import CorruptedDeliveryError, LinkQuarantinedError
from repro.integrity.scoreboard import LinkScoreboard
from repro.machine.faults import CorruptionFault
from repro.machine.message import Block, Message
from repro.machine.metrics import TransferStats

__all__ = ["IntegrityConfig", "IntegrityManager"]


@dataclass(frozen=True)
class IntegrityConfig:
    """Knobs for the detect-and-retransmit path."""

    #: Retransmissions allowed per message delivery before escalating.
    retransmit_budget: int = 3
    #: Detected corruptions on one link before it is quarantined outright
    #: (even when every delivery eventually succeeded — a repeat offender
    #: is routed around rather than trusted again).
    quarantine_after: int = 4
    #: Modelled seconds charged per element for checksum computation,
    #: per transmission.  The default keeps checksums free under the
    #: cost model so pinned timing baselines hold.
    checksum_time_per_element: float = 0.0

    def __post_init__(self) -> None:
        if self.retransmit_budget < 0:
            raise ValueError("retransmit budget must be non-negative")
        if self.quarantine_after < 1:
            raise ValueError("quarantine threshold must be at least 1")
        if self.checksum_time_per_element < 0:
            raise ValueError("checksum time must be non-negative")


class IntegrityManager:
    """Per-network integrity state: scoreboard plus quarantine set."""

    def __init__(self, config: IntegrityConfig | None = None) -> None:
        self.config = config if config is not None else IntegrityConfig()
        self.scoreboard = LinkScoreboard()
        self._quarantined: set[tuple[int, int]] = set()

    # -- quarantine queries ---------------------------------------------------

    @property
    def has_quarantined(self) -> bool:
        return bool(self._quarantined)

    def is_quarantined(self, src: int, dst: int) -> bool:
        return (src, dst) in self._quarantined

    def quarantined_links(self) -> frozenset[tuple[int, int]]:
        return frozenset(self._quarantined)

    def check_link(self, src: int, dst: int, phase: int) -> None:
        """Raise if ``src->dst`` is quarantined (engine pre-movement gate)."""
        if (src, dst) in self._quarantined:
            raise LinkQuarantinedError(src, dst, phase)

    # -- the delivery path ----------------------------------------------------

    def deliver(
        self,
        msg: Message,
        blocks: list[Block],
        elements: int,
        cost: float,
        fault: CorruptionFault | None,
        phase: int,
        stats: TransferStats,
    ) -> float:
        """Checksummed delivery of one message; returns the extra link cost.

        The returned cost (retransmissions re-occupying the link, plus
        any configured checksum compute time) is folded into the phase's
        per-link load *before* the duration is computed, so integrity
        overhead is priced under the same model as the payload itself.
        Raises :class:`CorruptedDeliveryError` — after quarantining the
        link — when the retransmit budget is exhausted; the phase aborts
        before any block moves, so memories stay untouched.
        """
        cfg = self.config
        board = self.scoreboard
        link = (msg.src, msg.dst)
        stats.record_checksum_overhead(elements)
        checksum_cost = cfg.checksum_time_per_element * elements
        extra = checksum_cost
        if fault is None:
            board.record_delivery(link)
            return extra
        attempt = 0
        while fault.strikes(phase, attempt):
            # Detection: the damaged payload's checksum must differ from
            # the send-side one.  The damage model guarantees it; verify
            # anyway so a future damage-model bug fails loudly here
            # instead of shipping corrupt data.
            victim = blocks[fault.damage_seed(phase, attempt) % len(blocks)]
            if damaged_checksum(victim, fault, phase, attempt) == (
                block_checksum(victim)
            ):  # pragma: no cover - unreachable by construction
                raise AssertionError(
                    "corruption damage model produced a checksum-invisible "
                    f"change on link {msg.src}->{msg.dst} at phase {phase}"
                )
            stats.record_corrupted_delivery()
            board.record_corruption(link)
            if attempt >= cfg.retransmit_budget:
                self._quarantine(link, stats)
                raise CorruptedDeliveryError(
                    msg.src, msg.dst, phase, attempts=attempt + 1
                )
            attempt += 1
            board.record_retransmit(link)
            stats.record_retransmit()
            stats.record_checksum_overhead(elements)
            extra += cost + checksum_cost
        board.record_delivery(link)
        if (
            link not in self._quarantined
            and board.corruptions(link) >= cfg.quarantine_after
        ):
            # Repeat offender: delivered this time, but dead from the
            # next phase on.
            self._quarantine(link, stats)
        return extra

    def _quarantine(
        self, link: tuple[int, int], stats: TransferStats
    ) -> None:
        if link not in self._quarantined:
            self._quarantined.add(link)
            self.scoreboard.mark_quarantined(link)
            stats.record_quarantine()

    # -- reporting ------------------------------------------------------------

    def as_dict(self) -> dict:
        return {
            "config": {
                "retransmit_budget": self.config.retransmit_budget,
                "quarantine_after": self.config.quarantine_after,
            },
            "quarantined": [
                f"{src}->{dst}" for src, dst in sorted(self._quarantined)
            ],
            "links": self.scoreboard.as_dict(),
        }
