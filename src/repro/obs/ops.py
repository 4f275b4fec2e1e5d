"""The live operational surface: exposition, burn rate, and `repro top`.

Everything the serving stack shows an operator while it runs lives
here (``docs/observability.md`` §6):

* :func:`format_prometheus` renders a merged
  :class:`~repro.obs.metrics.MetricsRegistry` in the Prometheus text
  exposition format, so the same instruments the baseline gate pins are
  scrapeable;
* :class:`MetricsExporter` serves that text over HTTP
  (``repro serve --metrics-port`` / ``repro loadgen --metrics-port``);
* :class:`BurnRateTracker` turns an availability objective into a
  burn-rate signal with warn/page thresholds, folded into the server's
  SLO report.  It is count-windowed, not wall-windowed, so the signal
  is deterministic under the frozen clocks the test-suite runs with;
* :func:`render_top` draws the ``repro top`` ASCII dashboard from a
  server report.
"""

from __future__ import annotations

import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "BurnRateTracker",
    "MetricsExporter",
    "format_prometheus",
    "render_top",
]

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")


def _metric_name(name: str) -> str:
    return "repro_" + _NAME_OK.sub("_", name)


def _label_value(value) -> str:
    text = str(value)
    text = text.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    return f'"{text}"'


def _labels(labels: dict, extra: dict | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    body = ",".join(
        f"{_NAME_OK.sub('_', k)}={_label_value(v)}"
        for k, v in sorted(merged.items())
    )
    return "{" + body + "}"


def format_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format (version 0.0.4).

    Counters and gauges map directly; a histogram — which keeps running
    count/sum/min/max, not buckets — is exposed as its ``_count`` /
    ``_sum`` series plus ``_min`` / ``_max`` gauges, which is what the
    dashboards in the docs plot.
    """
    families: dict[str, tuple[str, list[str]]] = {}
    for name, labels, kind, sample in registry.collect():
        if kind == "histogram":
            base = _metric_name(name)
            for suffix, fam_kind, value in (
                ("_count", "counter", sample["count"]),
                ("_sum", "counter", sample["sum"]),
                ("_min", "gauge", sample["min"]),
                ("_max", "gauge", sample["max"]),
            ):
                fam = families.setdefault(base + suffix, (fam_kind, []))
                fam[1].append(f"{base}{suffix}{_labels(labels)} {value}")
        else:
            base = _metric_name(name)
            fam = families.setdefault(base, (kind, []))
            fam[1].append(f"{base}{_labels(labels)} {sample}")
    lines: list[str] = []
    for base in sorted(families):
        kind, series = families[base]
        lines.append(f"# TYPE {base} {kind}")
        lines.extend(series)
    return "\n".join(lines) + "\n" if lines else ""


class MetricsExporter:
    """A background HTTP server exposing ``GET /metrics``.

    ``source`` is a zero-argument callable returning the registry to
    render on each scrape — typically ``server.metrics``, so every
    scrape sees a fresh merge of the worker registries.  Port 0 binds
    an ephemeral port; :meth:`start` returns the bound port.
    """

    def __init__(self, source, *, port: int = 0, host: str = "127.0.0.1"):
        self._source = source
        self._host = host
        self._port = port
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        if self._httpd is None:
            return self._port
        return self._httpd.server_address[1]

    def start(self) -> int:
        if self._httpd is not None:
            return self.port
        source = self._source

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 - http.server API
                if self.path.rstrip("/") not in ("", "/metrics"):
                    self.send_error(404)
                    return
                body = format_prometheus(source()).encode()
                self.send_response(200)
                self.send_header(
                    "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
                )
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):  # keep scrapes off stderr
                pass

        self._httpd = ThreadingHTTPServer((self._host, self._port), Handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-metrics-exporter",
            daemon=True,
        )
        self._thread.start()
        return self.port

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join()
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "MetricsExporter":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


class BurnRateTracker:
    """Error-budget burn over a sliding window of recent requests.

    ``objective`` is the availability target (0.999 = at most one bad
    request per thousand).  A request is *bad* when it fails or misses
    its deadline.  The burn rate is the windowed bad fraction divided
    by the error budget ``1 - objective`` — burn 1.0 spends the budget
    exactly; sustained burn above ``warn``/``page`` trips the matching
    alert, mirroring multi-window burn-rate alerting practice.

    The window is the last ``window`` *requests*, not seconds, so the
    tracker gives identical answers under the deterministic frozen-clock
    scenarios and under a live soak.
    """

    def __init__(
        self,
        objective: float = 0.99,
        *,
        window: int = 100,
        warn: float = 1.0,
        page: float = 10.0,
    ) -> None:
        if not 0.0 < objective < 1.0:
            raise ValueError("objective must be in (0, 1)")
        if window < 1:
            raise ValueError("window must be at least 1")
        self.objective = objective
        self.window = window
        self.warn = warn
        self.page = page
        self._recent: list[bool] = []
        self.total = 0
        self.bad_total = 0
        self._lock = threading.Lock()

    def record(self, ok: bool) -> None:
        with self._lock:
            self.total += 1
            if not ok:
                self.bad_total += 1
            self._recent.append(not ok)
            if len(self._recent) > self.window:
                del self._recent[: len(self._recent) - self.window]

    def record_outcome(self, outcome) -> None:
        """Record a :class:`~repro.service.request.ServeOutcome`."""
        self.record(outcome.status == "served")

    @property
    def burn_rate(self) -> float:
        with self._lock:
            if not self._recent:
                return 0.0
            bad_rate = sum(self._recent) / len(self._recent)
        return bad_rate / (1.0 - self.objective)

    @property
    def alert(self) -> str:
        """``"ok"``, ``"warn"`` or ``"page"`` for the current burn."""
        burn = self.burn_rate
        if burn >= self.page:
            return "page"
        if burn >= self.warn:
            return "warn"
        return "ok"

    def snapshot(self) -> dict:
        burn = self.burn_rate
        with self._lock:
            observed = len(self._recent)
            bad = sum(self._recent)
        return {
            "objective": self.objective,
            "window": self.window,
            "observed": observed,
            "bad_in_window": bad,
            "bad_total": self.bad_total,
            "total": self.total,
            "burn_rate": burn,
            "alert": (
                "page" if burn >= self.page
                else "warn" if burn >= self.warn
                else "ok"
            ),
            "thresholds": {"warn": self.warn, "page": self.page},
        }


# -- the `repro top` dashboard ----------------------------------------------

_CLEAR = "\x1b[2J\x1b[H"


def _bar(fraction: float, width: int = 20) -> str:
    fraction = max(0.0, min(1.0, fraction))
    filled = round(fraction * width)
    return "#" * filled + "." * (width - filled)


def render_top(
    report: dict, *, title: str = "repro top", clear: bool = False
) -> str:
    """One frame of the ``repro top`` dashboard.

    ``report`` is a :meth:`~repro.service.server.ServerReport.as_dict`
    document (the ``slo`` block optionally carrying the burn tracker's
    snapshot under ``"burn"``).  Returns plain ASCII; with ``clear``
    the frame is prefixed with the ANSI home/clear sequence so
    successive frames repaint in place during a soak.
    """
    slo = report.get("slo", {})
    queue = report.get("queue", {})
    lat = slo.get("latency_s", {})
    burn = slo.get("burn")
    lines = [
        f"{title} | workers {report.get('workers', '?')} | "
        f"wall {report.get('wall_seconds', 0.0):.2f}s",
        "-" * 72,
        (
            f"requests {slo.get('requests', 0):>6}   "
            f"admitted {slo.get('admitted', 0):>6}   "
            f"served {slo.get('served', 0):>6}   "
            f"rejected {slo.get('rejected', 0):>6}"
        ),
        (
            f"failed   {slo.get('failed', 0):>6}   "
            f"missed   {slo.get('deadline_missed', 0):>6}   "
            f"hit-rate {slo.get('cache_hit_rate', 0.0):>6.1%}   "
            f"thruput {slo.get('throughput_rps', 0.0):>7.1f}/s"
        ),
    ]
    depth = queue.get("depth", 0)
    capacity = queue.get("capacity") or 1
    lines.append(
        f"queue    [{_bar(depth / capacity)}] {depth}/{queue.get('capacity', '?')}"
    )
    if burn:
        lines.append(
            f"slo burn [{_bar(burn['burn_rate'] / max(burn['thresholds']['page'], 1e-9))}] "
            f"{burn['burn_rate']:.2f}x budget "
            f"(objective {burn['objective']:.3f}) -> {burn['alert'].upper()}"
        )
    if lat:
        lines.append("-" * 72)
        lines.append(
            f"{'latency (model s)':<20} {'p50':>10} {'p95':>10} "
            f"{'p99':>10} {'max':>10}"
        )
        for stage in ("total", "queue_wait", "execute"):
            pct = lat.get(stage)
            if not pct:
                continue
            lines.append(
                f"  {stage:<18} {pct['p50']:>10.4f} {pct['p95']:>10.4f} "
                f"{pct['p99']:>10.4f} {pct['max']:>10.4f}"
            )
    tenants = report.get("tenants", {})
    if tenants:
        lines.append("-" * 72)
        lines.append(
            f"{'tenant':<12} {'admitted':>8} {'served':>8} "
            f"{'missed':>8} {'failed':>8} {'rejected':>8}"
        )
        for name, t in tenants.items():
            lines.append(
                f"{name:<12} {t.get('admitted', 0):>8} {t.get('served', 0):>8} "
                f"{t.get('deadline_missed', 0):>8} {t.get('failed', 0):>8} "
                f"{t.get('rejected', 0):>8}"
            )
    frame = "\n".join(lines) + "\n"
    return (_CLEAR + frame) if clear else frame
