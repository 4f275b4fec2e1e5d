"""Host-side measurements: calibration kernels, CPU time and peak memory."""

from __future__ import annotations

import resource
from time import perf_counter

#: A workload whose calibration kernels drift by more than this between
#: the start and the end of its run is marked ``noisy``.  Of 39 pairs of
#: calibrations a second apart on the quiet host the larger drift of the
#: two kernels was 1.5 % (median), 4.4 % (nine in ten) and 6.3 % (most),
#: so ordinary jitter stays below the limit.
DRIFT_LIMIT = 0.10

_PY_LOOP = 200_000
#: 4096 float64 — the block size ``payload_move`` hands to numpy — and
#: small enough to stay in cache: an 8 MB array drifted by 10-25 % between
#: back-to-back calibrations on memory traffic from outside this machine,
#: and freeing it raised glibc's mmap threshold for the workload measured
#: next (``payload_move`` ran 40 % faster after it than in a fresh process).
_NP_SIZE = 1 << 12
_NP_CALLS = 256
_CALIB_REPS = 20


def _py_kernel() -> int:
    total = 0
    for i in range(_PY_LOOP):
        total += i * i & 0xFF
    return total


def calibrate() -> dict[str, float]:
    """Best-of-twenty wall time (ms) of a fixed pure-Python loop and a
    fixed numpy kernel: how fast this host runs right now.  Reported
    beside the gated metrics, never folded into them."""
    import numpy as np

    data = np.arange(_NP_SIZE, dtype=np.float64)
    py = np_ = float("inf")
    for _ in range(_CALIB_REPS):
        t0 = perf_counter()
        _py_kernel()
        t1 = perf_counter()
        for _ in range(_NP_CALLS):
            float(np.sqrt(data * data + 1.0).sum())
        t2 = perf_counter()
        py = min(py, t1 - t0)
        np_ = min(np_, t2 - t1)
    return {"host.calib_py_ms": py * 1e3, "host.calib_np_ms": np_ * 1e3}


def drifted(before: dict[str, float], after: dict[str, float]) -> bool:
    return any(
        abs(after[name] / before[name] - 1.0) > DRIFT_LIMIT for name in before
    )


def cpu_seconds() -> float:
    """User + system CPU of this process and of the children it has
    reaped (``cli_cold``'s operations are child processes)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Largest resident set (MB) of this process or of any child it has
    reaped — for ``cli_cold`` the child is the program itself."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports kilobytes
