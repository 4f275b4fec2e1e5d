"""The seven workloads, one module each (the two serving loops share one).

A workload builds its fixtures in :meth:`Workload.setup`, runs one
untimed pass over its operation pool in :meth:`Workload.warmup`, and
then measures in :meth:`Workload.window`.  The same ``window`` code runs
traced and untraced: the tracer argument is either a
:class:`~benchmarks.wall.spans.Tracer` or ``NULL_TRACER``.
:meth:`Workload.layers` turns the traced window plus extra calls into
single public functions into the per-layer metrics of that workload.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from time import perf_counter

from benchmarks.wall import host
from benchmarks.wall.spans import NULL_TRACER
from benchmarks.wall.stats import median

#: name -> (module under this package, class name).  The order is the
#: order ``run`` and ``trace`` execute them in.
REGISTRY = {
    "replay_hit": ("replay_hit", "ReplayHit"),
    "compile_miss": ("compile_miss", "CompileMiss"),
    "payload_move": ("payload_move", "PayloadMove"),
    "recover_faulted": ("recover_faulted", "RecoverFaulted"),
    "serve_closed": ("serve", "ServeClosed"),
    "serve_open": ("serve", "ServeOpen"),
    "cli_cold": ("cli_cold", "CliCold"),
}


def create(name: str, seed: int) -> "Workload":
    """Import the workload's module (and with it, for all but
    ``cli_cold``, the program under test) and build the workload."""
    module, cls = REGISTRY[name]
    mod = importlib.import_module(f"{__name__}.{module}")
    return getattr(mod, cls)(seed)


@dataclass(frozen=True)
class Effort:
    """How much work the per-layer probes spend."""

    #: Repetitions of a probe that costs at most ~100 ms.
    reps: int
    #: Repetitions of an n=10 probe (~1 s each).
    big_reps: int
    #: Requests per client in each server-scaling arm.
    serve_requests: int
    #: Seconds per step of the open-loop rate ladder.
    ladder_s: float


FULL = Effort(reps=10, big_reps=3, serve_requests=400, ladder_s=2.5)
QUICK = Effort(reps=2, big_reps=1, serve_requests=80, ladder_s=0.8)


def probe(fn, reps: int, prepare=None) -> float:
    """Median wall seconds of ``reps`` calls of ``fn``.

    With ``prepare``, each call is ``fn(prepare())`` and only ``fn`` is
    timed — for probes that need a fresh network per call.
    """
    times = []
    for _ in range(reps):
        args = () if prepare is None else (prepare(),)
        t0 = perf_counter()
        fn(*args)
        times.append(perf_counter() - t0)
    return median(times)


def span_median(tracer, name: str) -> float:
    """Median duration (seconds) of the traced spans called ``name``."""
    return median(tracer.durations(name))


@dataclass
class Window:
    """What one measuring window observed."""

    #: Per-operation wall time in seconds, correct operations only.
    latencies: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: First few failure descriptions, for the report.
    errors: list = field(default_factory=list)
    #: Workload-specific observations the per-layer metrics read.
    extra: dict = field(default_factory=dict)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


class Workload:
    """Base class; subclasses set ``name`` and fill in the four steps."""

    name = ""
    #: Distinct operations ``operation(index)`` cycles through.
    pool_size = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: Observations :meth:`layers` wants in the trace report that
        #: are not per-layer metrics (JSON-safe).
        self.diagnostics: dict = {}

    def setup(self) -> None:
        raise NotImplementedError

    def operation(self, index: int, tracer) -> str | None:
        """One operation; ``None`` when its result was correct, else a
        one-line description of what was wrong."""
        raise NotImplementedError

    def warmup(self) -> None:
        """One untimed pass over the operation pool; a wrong result here
        aborts the run before anything is measured."""
        for index in range(self.pool_size):
            problem = self.operation(index, NULL_TRACER)
            if problem is not None:
                raise RuntimeError(f"{self.name} warm-up: {problem}")

    def layers(self, traced: Window, untraced: Window, tracer, effort: Effort) -> dict:
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`setup` started (servers, temp dirs)."""

    def window(self, seconds: float, tracer) -> Window:
        """Run ``operation(index, tracer)`` back to back for ``seconds``
        (the serving workloads override this with their own loops).

        An operation's wall time covers the calls into the program
        *and* the correctness check; the checks are a few string or
        array comparisons.
        """
        win = Window()
        cpu0 = host.cpu_seconds()
        start = perf_counter()
        deadline = start + seconds
        index = 0
        while True:
            t0 = perf_counter()
            if t0 >= deadline and index:
                break
            try:
                with tracer.span("op", op=index):
                    problem = self.operation(index, tracer)
            except Exception as exc:  # the loop must outlive a failing op
                problem = f"{type(exc).__name__}: {exc}"
            t1 = perf_counter()
            win.attempted += 1
            if problem is None:
                win.latencies.append(t1 - t0)
            else:
                win.fail(problem)
            index += 1
        win.wall_s = perf_counter() - start
        win.cpu_s = host.cpu_seconds() - cpu0
        return win
