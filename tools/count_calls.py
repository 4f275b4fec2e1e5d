#!/usr/bin/env python
"""Count Python calls per clean cache-hit replay, under cProfile.

Builds the ``replay_hit`` benchmark problem through ``repro`` directly
(Connection Machine preset, n=8, 2^14 elements, 2-D cyclic, ``mpt``),
warms up once, then profiles operations of the same shape as the
benchmark's: a fresh :class:`~repro.machine.engine.EnsembleNetwork`,
:func:`~repro.plans.replay.replay_plan` and
:func:`~repro.service.request.stats_fingerprint`.  Prints the call count
per operation, which unlike wall time does not depend on the host:

    python tools/count_calls.py
"""

from __future__ import annotations

import cProfile
import pstats
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.layout import partition  # noqa: E402
from repro.machine.engine import EnsembleNetwork  # noqa: E402
from repro.machine.presets import connection_machine  # noqa: E402
from repro.plans import capture_transpose, replay_plan, synthetic_matrix  # noqa: E402
from repro.service.request import stats_fingerprint  # noqa: E402


OPS = 3  # profiled operations; the count is deterministic


def operation(params, plan) -> str:
    network = EnsembleNetwork(params)
    replay_plan(plan, network)
    return stats_fingerprint(network.stats)


def main() -> int:
    params = connection_machine(8)
    before = partition.two_dim_cyclic(7, 7, 4, 4)
    _, plan = capture_transpose(params, synthetic_matrix(before), algorithm="mpt")
    reference = operation(params, plan)  # warm-up
    profiler = cProfile.Profile()
    for _ in range(OPS):
        profiler.enable()
        fingerprint = operation(params, plan)
        profiler.disable()
        if fingerprint != reference:
            print("replayed statistics differ from the warm-up run", file=sys.stderr)
            return 1
    calls = pstats.Stats(profiler).total_calls / OPS
    print(f"{calls:.0f} calls per operation ({plan.num_messages} messages)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
