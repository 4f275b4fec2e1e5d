"""TransferStats as a plain record: round-trips and merge algebra."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.metrics import (
    _COUNTER_FIELDS,
    _ZERO_SUPPRESSED,
    TransferStats,
)


def _sample_stats() -> TransferStats:
    s = TransferStats()
    s.record_phase(0.25)
    s.record_phase(0.5)
    s.record_message(0, 1, 32, 2)
    s.record_message(1, 3, 16, 1)
    s.record_copy(8, 0.125)
    s.record_fault(node=False)
    s.record_retry()
    s.record_plan_event("hit")
    return s


class TestAsDict:
    def test_includes_links_and_phase_times(self):
        doc = _sample_stats().as_dict()
        assert doc["link_elements"] == {"0->1": 32, "1->3": 16}
        assert doc["phase_times"] == [0.25, 0.5]
        assert doc["max_link_elements"] == 32
        for name in _COUNTER_FIELDS:
            if name in _ZERO_SUPPRESSED:
                continue
            assert name in doc

    def test_integrity_counters_are_zero_suppressed(self):
        """Zero integrity counters stay out of documents and baselines.

        Every pinned baseline and fingerprint predates the integrity
        subsystem; suppressing the zero case keeps them byte-stable
        while still surfacing the counters the moment they move.
        """
        quiet = _sample_stats().as_dict()
        assert not any(name in quiet for name in _ZERO_SUPPRESSED)
        active = _sample_stats()
        active.record_corrupted_delivery()
        active.record_retransmit()
        doc = active.as_dict()
        assert doc["integrity_corrupted_deliveries"] == 1
        assert doc["integrity_retransmits"] == 1
        restored = TransferStats.from_dict(json.loads(json.dumps(doc)))
        assert restored == active

    def test_json_round_trip(self):
        """as_dict -> json -> from_dict reproduces the stats exactly."""
        original = _sample_stats()
        doc = json.loads(json.dumps(original.as_dict()))
        restored = TransferStats.from_dict(doc)
        assert restored == original
        assert restored.link_elements == {(0, 1): 32, (1, 3): 16}
        assert restored.phase_times == [0.25, 0.5]
        assert restored.startups == original.startups

    def test_from_dict_tolerates_missing_optional_keys(self):
        restored = TransferStats.from_dict({"time": 1.0})
        assert restored.time == 1.0
        assert restored.link_elements == {}
        assert restored.phase_times == []


# -- merge algebra (property-based) ------------------------------------------
#
# Durations are dyadic rationals so float addition is exact and the
# associativity property is an equality, not an approximation.

_DURATIONS = st.integers(0, 64).map(lambda k: k / 8)


@st.composite
def transfer_stats(draw):
    s = TransferStats()
    for _ in range(draw(st.integers(0, 4))):
        s.record_phase(draw(_DURATIONS))
    for _ in range(draw(st.integers(0, 6))):
        s.record_message(
            draw(st.integers(0, 7)),
            draw(st.integers(0, 7)),
            draw(st.integers(1, 64)),
            draw(st.integers(1, 4)),
        )
    for _ in range(draw(st.integers(0, 2))):
        s.record_copy(draw(st.integers(0, 32)), draw(_DURATIONS))
    for _ in range(draw(st.integers(0, 2))):
        s.record_fault(node=draw(st.booleans()))
    return s


def _copy(stats: TransferStats) -> TransferStats:
    return TransferStats.from_dict(stats.as_dict())


class TestMergeProperties:
    @settings(max_examples=60, deadline=None)
    @given(transfer_stats(), transfer_stats(), transfer_stats())
    def test_merge_is_associative(self, a, b, c):
        left = _copy(a)
        left.merge(b)
        left.merge(c)

        bc = _copy(b)
        bc.merge(c)
        right = _copy(a)
        right.merge(bc)

        assert left == right

    @settings(max_examples=60, deadline=None)
    @given(transfer_stats(), transfer_stats())
    def test_merge_agrees_with_counterwise_addition(self, a, b):
        merged = _copy(a)
        merged.merge(b)

        for name in _COUNTER_FIELDS:
            assert getattr(merged, name) == getattr(a, name) + getattr(
                b, name
            ), name

        expected_links = dict(a.link_elements)
        for link, load in b.link_elements.items():
            expected_links[link] = expected_links.get(link, 0) + load
        assert merged.link_elements == expected_links
        assert merged.phase_times == a.phase_times + b.phase_times
        assert merged.max_link_elements == max(
            [a.max_link_elements, *expected_links.values()], default=0
        )
