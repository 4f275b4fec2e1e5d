"""``cli_cold``: one cold ``python -m repro run --json`` per operation.

Why: every CLI user pays interpreter start, ``import repro`` and the
argument parser on every invocation; no other workload can show an
import-time change, and nothing in the other six should move when one
lands except ``setup_s``.  The invocation is fixed, so ``--seed`` has
nothing to vary here.  This module does not import the program.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from benchmarks.wall import expected
from benchmarks.wall.paths import ROOT, SRC, require_source
from benchmarks.wall.stats import median
from benchmarks.wall.workloads import Workload, probe

RUN = ("-m", "repro", "run", "-n", "6", "--elements", "4096", "--machine", "cm", "--json")
TIMEOUT_S = 60.0

#: Printed by a bare ``import repro`` child: seconds, repro.* module
#: count, whether http.server came along.
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); import {module}; "
    "print(time.perf_counter() - t, "
    "sum(m == 'repro' or m.startswith('repro.') for m in sys.modules), "
    "int('http.server' in sys.modules))"
)


def python(*args: str) -> str:
    """Run the interpreter with the program on its path; returns stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"python {' '.join(args[:3])} exited {done.returncode}: "
                           f"{done.stderr.strip()[-200:]}")
    return done.stdout


class CliCold(Workload):
    name = "cli_cold"

    def setup(self) -> None:
        require_source()

    def operation(self, index: int, tracer):
        with tracer.span("cli.subprocess"):
            output = python(*RUN)
        with tracer.span("cli.parse_envelope"):
            envelope = json.loads(output)
        result = envelope["result"]
        if envelope["command"] != "run" or result["verified"] is not True:
            return "the run envelope is not a verified run"
        observed = expected.counters(result["stats"])
        observed["algorithm"] = result["algorithm"]
        return expected.mismatch(self.name, "cm-n6-2^12-auto", observed)

    def layers(self, traced, untraced, tracer, effort) -> dict:
        def import_probe(module: str):
            fields = python("-c", IMPORT_PROBE.format(module=module)).split()
            return float(fields[0]), int(fields[1]), int(fields[2])

        imports = [import_probe("repro") for _ in range(effort.reps)]
        import_s = median(i[0] for i in imports)
        numpy_s = median(import_probe("numpy")[0] for _ in range(effort.reps))
        startup_s = probe(lambda: python("-c", "pass"), effort.reps)
        run_s = probe(lambda: python(*RUN), effort.reps)
        return {
            "python.startup_s": startup_s,
            "numpy.import_s": numpy_s,
            "repro.import_s": import_s,
            "cli.run_self_s": run_s - startup_s - import_s,
            "repro.import_modules": imports[0][1],
            "repro.imports_http_server": imports[0][2],
        }
