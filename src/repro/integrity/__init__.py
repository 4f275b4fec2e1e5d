"""End-to-end data integrity: checksums, retransmit, link quarantine.

Fail-stop faults (:mod:`repro.machine.faults`) announce themselves; a
*silent* fault delivers damaged bytes and says nothing.  This package
closes that hole end to end:

* :mod:`repro.integrity.checksum` — per-block CRC-32 checksums bound to
  block keys, the seeded checksum-visible damage model, and the memory
  digest that seals checkpoints;
* :mod:`repro.integrity.manager` — the ARQ delivery path armed inside
  ``EnsembleNetwork.execute_phase``: checksum at send, verify at delivery,
  retransmit within a bounded budget (each retransmission re-occupies
  the link and is priced by the cost model), then quarantine the link
  and escalate with a typed error;
* :mod:`repro.integrity.scoreboard` — per-link health counters backing
  the quarantine decision and the integrity reports;
* :mod:`repro.integrity.errors` — the typed escalations, all
  ``FaultError`` subclasses with permanent kind so the planner ladder,
  the fault-tolerant router and ``execute_with_recovery`` absorb
  detected corruption with their existing fail-stop control flow.

The escalation ladder is **retransmit → route around → re-plan**: a
transient strike is absorbed by a retransmission, a flaky link is
quarantined and detoured like a permanently dead one, and an
unrecoverable corrupted delivery surfaces as a typed error — never a
silently wrong matrix.  With no corruption faults and no manager armed,
the engine's delivery path is untouched: the null path stays zero-cost
and pinned baselines hold.
"""

from repro.integrity.checksum import (
    block_checksum,
    damaged_checksum,
    memories_digest,
)
from repro.integrity.errors import (
    CorruptedCheckpointError,
    CorruptedDeliveryError,
    LinkQuarantinedError,
)
from repro.integrity.manager import IntegrityConfig, IntegrityManager
from repro.integrity.scoreboard import LinkHealth, LinkScoreboard

__all__ = [
    "CorruptedCheckpointError",
    "CorruptedDeliveryError",
    "IntegrityConfig",
    "IntegrityManager",
    "LinkHealth",
    "LinkQuarantinedError",
    "LinkScoreboard",
    "block_checksum",
    "damaged_checksum",
    "memories_digest",
]
