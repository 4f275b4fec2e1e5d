"""Start workload processes and assemble what they report."""

from __future__ import annotations

import json
import subprocess
import sys
import time

from benchmarks.wall import spec
from benchmarks.wall.paths import ROOT
from benchmarks.wall.stats import median

#: Fresh set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3
CHILD_TIMEOUT_S = 170.0


class RunFailed(RuntimeError):
    """A workload process exited non-zero or reported nothing usable."""


def spawn(workload: str, seed: int, seconds: float, *flags: str) -> dict:
    """Run one workload process to its end; returns the JSON it printed."""
    command = [
        sys.executable, "-m", "benchmarks.wall.child",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--t0", repr(time.time()), *flags,
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{workload}: no result within {CHILD_TIMEOUT_S:.0f} s") from exc
    if done.returncode != 0:
        raise RunFailed(
            f"{workload}: workload process exited {done.returncode}\n{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def one_run(workload: str, seed: int, seconds: float, trace: bool, quick: bool = False) -> dict:
    """One measurement of one workload.

    Untraced: every end-to-end metric, ``setup_s`` being the median over
    ``SETUP_REPS`` fresh processes (one with ``quick``).  Traced: every
    per-layer metric.  The result carries ``metrics`` as
    ``{name: {"value", "unit"}}`` plus the counts and diagnostics the
    workload process reported.
    """
    if trace:
        doc = spawn(workload, seed, seconds, "--trace", "1", *(["--quick"] if quick else []))
        table = spec.per_layer()
    else:
        setups = [
            spawn(workload, seed, 0)["metrics"]["setup_s"]
            for _ in range(0 if quick else SETUP_REPS - 1)
        ]
        doc = spawn(workload, seed, seconds)
        setups.append(doc["metrics"]["setup_s"])
        doc["metrics"]["setup_s"] = median(setups)
        doc["setup_samples"] = setups
        table = spec.end_to_end()
    try:
        doc["metrics"] = spec.with_units(doc["metrics"], table)
    except ValueError as exc:
        raise RunFailed(f"{workload}: {exc}; errors: {doc.get('errors')}") from exc
    doc["workload"] = workload
    doc["seed"] = seed
    doc["error_rate"] = doc["failed"] / doc["attempted"]
    return doc
