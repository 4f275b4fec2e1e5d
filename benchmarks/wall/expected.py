"""The correctness oracle: modelled counters pinned in ``expected.json``.

A simulator speed-up must leave every simulated statistic identical, so
each fixed problem of ``replay_hit``, ``compile_miss``,
``recover_faulted`` and ``cli_cold`` is compared with the values
recorded when the benchmark was defined.
"""

from __future__ import annotations

import json
from functools import cache

from benchmarks.wall.paths import HERE


#: The modelled counters pinned for every fixed problem.
PINNED_COUNTERS = (
    "time",
    "phases",
    "messages",
    "startups",
    "element_hops",
    "max_link_elements",
)


def counters(stats) -> dict:
    """The pinned subset of a ``TransferStats`` or of its JSON dict."""
    if isinstance(stats, dict):
        return {name: stats[name] for name in PINNED_COUNTERS}
    return {name: getattr(stats, name) for name in PINNED_COUNTERS}


@cache
def _pinned() -> dict:
    with open(HERE / "expected.json") as fh:
        return json.load(fh)


def mismatch(workload: str, problem: str, observed: dict) -> str | None:
    """``None`` when ``observed`` equals the pinned values of
    ``workload``/``problem``, else a one-line description."""
    pinned = _pinned()[workload][problem]
    wrong = [
        f"{name}={observed.get(name)!r} (pinned {value!r})"
        for name, value in pinned.items()
        if observed.get(name) != value
    ]
    if wrong:
        return f"{workload}/{problem}: " + ", ".join(wrong)
    return None
