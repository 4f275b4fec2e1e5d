"""Observability: span tracing, labelled metrics, exporters, baselines.

The telemetry layer of the simulator (see ``docs/observability.md``):

* :mod:`repro.obs.metrics` — the labelled counter/gauge/histogram
  registry (histograms keep count/sum/min/max, not raw observations);
* :mod:`repro.obs.spans` — hierarchical spans and instant events on the
  model-time axis;
* :mod:`repro.obs.instrumentation` — the hub that multiplexes engine,
  router, planner, plan-cache and replay emissions to any number of
  sinks (zero cost when unattached);
* :mod:`repro.obs.export` — Chrome trace-event JSON (Perfetto /
  ``chrome://tracing``) and JSONL exporters (thread-safe: worker hubs
  may share one sink);
* :mod:`repro.obs.trace` — request-scoped distributed tracing:
  :class:`TraceContext` propagation, the per-worker
  :class:`FlightRecorder` ring, merged multi-worker dual-axis trace
  export and the trace well-formedness checker;
* :mod:`repro.obs.ops` — the live operational surface: Prometheus text
  exposition, the ``/metrics`` HTTP exporter, SLO burn-rate tracking
  and the ``repro top`` dashboard renderer;
* :mod:`repro.obs.baseline` — the perf-regression gate behind
  ``python -m repro baseline record|check``.
"""

from repro.obs.export import ChromeTraceSink, JsonlSink
from repro.obs.instrumentation import (
    NULL_INSTRUMENTATION,
    Instrumentation,
    NullInstrumentation,
    instrumentation_of,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.ops import (
    BurnRateTracker,
    MetricsExporter,
    format_prometheus,
    render_top,
)
from repro.obs.spans import Event, Span
from repro.obs.trace import (
    FlightRecorder,
    TraceContext,
    merged_trace_document,
    spans_from_chrome_document,
    validate_trace,
)

__all__ = [
    "BurnRateTracker",
    "ChromeTraceSink",
    "Counter",
    "Event",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "Instrumentation",
    "JsonlSink",
    "MetricsExporter",
    "MetricsRegistry",
    "NULL_INSTRUMENTATION",
    "NullInstrumentation",
    "Span",
    "TraceContext",
    "format_prometheus",
    "instrumentation_of",
    "merged_trace_document",
    "render_top",
    "spans_from_chrome_document",
    "validate_trace",
]
