"""Benchmark-side spans: one record per call into a layer.

The program under test is not instrumented; the workloads wrap each
call into a layer's public function in ``tracer.span(name)``.  Spans are
kept in memory and written out once, when the traced run ends.  With
:data:`NULL_TRACER` the same workload code runs untraced.
"""

from __future__ import annotations

import itertools
import json
import threading
from time import perf_counter


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op")

    def __init__(self, id, name, start, end, parent, op):
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
        }


class _OpenSpan:
    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer, span):
        self._tracer = tracer
        self._span = span

    def __enter__(self):
        self._tracer._stack().append(self._span)
        self._span.start = perf_counter()
        return self._span

    def __exit__(self, *exc):
        self._span.end = perf_counter()
        self._tracer._stack().pop()
        return False


class Tracer:
    """Collects spans; the open-span stack is per thread."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()  # next() is atomic; len(spans) is not
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, op=None) -> _OpenSpan:
        """Context manager timing one call; nests under the open span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(
            next(self._ids),
            name,
            0.0,
            0.0,
            None if parent is None else parent.id,
            op if op is not None or parent is None else parent.op,
        )
        self.spans.append(span)
        return _OpenSpan(self, span)

    def record(self, name, start, end, parent: Span | None = None, op=None) -> Span:
        """Add a span whose interval was measured elsewhere (for example
        the queue wait a server reports for a request)."""
        if parent is not None:
            op = parent.op
        span = Span(
            next(self._ids), name, start, end, None if parent is None else parent.id, op
        )
        self.spans.append(span)
        return span

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def self_times(self) -> dict[str, list[float]]:
        """Per span name, each span's duration minus the part of its
        interval that its child spans cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append((s.start, s.end))
        out: dict[str, list[float]] = {}
        for s in self.spans:
            covered = covered_length(children.get(s.id, ()), s.start, s.end)
            out.setdefault(s.name, []).append(s.duration - covered)
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": [s.as_dict() for s in self.spans]}, fh)


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    edge = lo
    for start, end in sorted(intervals):
        start = max(start, edge)
        end = min(end, hi)
        if end > start:
            total += end - start
            edge = end
    return total


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


class _NullTracer:
    """Tracing off: ``span`` costs one attribute lookup and a no-op
    context manager, nothing is stored."""

    enabled = False
    _span = _NullSpan()

    def span(self, name: str, op=None) -> _NullSpan:
        return self._span

    def record(self, name, start, end, parent=None, op=None) -> None:
        return None


NULL_TRACER = _NullTracer()
