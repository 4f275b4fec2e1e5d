"""A labelled metrics registry: counters, gauges and histograms.

The registry is the single store every subsystem writes its counters
into.  An *instrument* is identified by a name plus a frozen label set
(``counter("faults", kind="link")`` and ``counter("faults", kind="node")``
are two series of one family), mirroring the Prometheus/OpenMetrics data
model the observability docs describe.  Instruments are memoized: asking
for the same ``(name, labels)`` twice returns the same object, so hot
paths bind an instrument once and call ``inc``/``observe`` on it with no
per-event allocation or lookup beyond a dict hit.

Subsystems add instruments here instead of growing hand-merged fields,
and everything shows up uniformly in ``registry.as_dict()`` /
``registry.collect()``.  The simulator's own per-run counters are a
separate plain record, :class:`~repro.machine.metrics.TransferStats`.
"""

from __future__ import annotations

from typing import Iterator

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "format_labels",
]


def format_labels(labels: tuple[tuple[str, object], ...]) -> str:
    """Render a frozen label set as ``{k=v,...}`` (empty string if none)."""
    if not labels:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"


class Counter:
    """A monotonically increasing numeric series (floats or ints)."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: tuple[tuple[str, object], ...]):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount=1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def sample(self):
        return self.value

    def __repr__(self) -> str:
        return f"Counter({self.name}{format_labels(self.labels)}={self.value})"


class Gauge:
    """A point-in-time value (set freely; ``update_max`` keeps the peak)."""

    __slots__ = ("name", "labels", "value")

    kind = "gauge"

    def __init__(self, name: str, labels: tuple[tuple[str, object], ...]):
        self.name = name
        self.labels = labels
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def update_max(self, value) -> None:
        if value > self.value:
            self.value = value

    def sample(self):
        return self.value

    def __repr__(self) -> str:
        return f"Gauge({self.name}{format_labels(self.labels)}={self.value})"


class Histogram:
    """A series of observations kept as running count/sum/min/max.

    Only the four aggregates are stored, so a long-lived histogram (a
    serving worker's per-request durations) stays constant-size.
    """

    __slots__ = ("name", "labels", "count", "total", "min", "max")

    kind = "histogram"

    def __init__(self, name: str, labels: tuple[tuple[str, object], ...]):
        self.name = name
        self.labels = labels
        self.count = 0
        self.total = 0.0
        self.min = self.max = 0

    def observe(self, value) -> None:
        self._fold(1, value, value, value)

    def _fold(self, count: int, total, low, high) -> None:
        if not count:
            return
        if not self.count or low < self.min:
            self.min = low
        if not self.count or high > self.max:
            self.max = high
        self.count += count
        self.total += total

    def sample(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
        }

    def __repr__(self) -> str:
        return (
            f"Histogram({self.name}{format_labels(self.labels)} "
            f"count={self.count} sum={self.total})"
        )


class MetricsRegistry:
    """Memoizing factory and store for labelled instruments.

    ``counter``/``gauge``/``histogram`` create on first use and return
    the existing instrument afterwards; a name maps to exactly one
    instrument kind (mixing kinds under one name raises).
    """

    __slots__ = ("_instruments",)

    def __init__(self) -> None:
        self._instruments: dict[tuple[str, tuple], object] = {}

    # -- instrument factories ----------------------------------------------

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get(Histogram, name, labels)

    def _get(self, cls, name: str, labels: dict):
        key = (name, tuple(sorted(labels.items())))
        inst = self._instruments.get(key)
        if inst is None:
            inst = cls(name, key[1])
            self._instruments[key] = inst
        elif type(inst) is not cls:
            raise TypeError(
                f"metric {name!r} already registered as {inst.kind}, "
                f"requested {cls.kind}"
            )
        return inst

    # -- introspection ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return any(key[0] == name for key in self._instruments)

    def collect(self) -> Iterator[tuple[str, dict, str, object]]:
        """Yield ``(name, labels_dict, kind, sample)`` for every series."""
        for (name, labels), inst in sorted(
            self._instruments.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))
        ):
            yield name, dict(labels), inst.kind, inst.sample()

    def family(self, name: str) -> list:
        """Every instrument registered under ``name`` (any label set)."""
        return [
            inst for (n, _), inst in self._instruments.items() if n == name
        ]

    def as_dict(self) -> dict:
        """JSON-safe dump: ``name{labels}`` -> sample, grouped by kind."""
        out: dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        for name, labels, kind, sample in self.collect():
            series = name + format_labels(tuple(sorted(labels.items())))
            out[kind + "s"][series] = sample
        return out

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in: counters add, gauges keep the max,
        histograms fold their count/sum/min/max."""
        for (name, labels), inst in other._instruments.items():
            mine = self._get(type(inst), name, dict(labels))
            if isinstance(inst, Counter):
                mine.inc(inst.value)
            elif isinstance(inst, Gauge):
                mine.update_max(inst.value)
            else:
                mine._fold(inst.count, inst.total, inst.min, inst.max)
