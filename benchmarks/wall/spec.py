"""Metric and workload names, read from ``BENCHMARK.json`` (the one place
they are defined)."""

from __future__ import annotations

import json
from functools import cache

from benchmarks.wall.paths import ROOT

#: Reported by ``run`` and judged by ``compare`` beside the metrics of
#: ``BENCHMARK.json``, which cannot list it: it is 0 on a healthy run and
#: its bound is absolute (any rise is a regression), not a share.
ERROR_RATE = {"name": "error_rate", "unit": "fraction", "better": "lower", "bound": 0.0}


@cache
def benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def workloads() -> list[str]:
    return [w["name"] for w in benchmark()["workloads"]]


def end_to_end() -> dict[str, dict]:
    return {m["name"]: m for m in benchmark()["end_to_end"]}


def per_layer() -> dict[str, dict]:
    return {m["name"]: m for m in benchmark()["per_layer"]}


def run_seconds() -> int:
    return benchmark()["run_seconds"]


def with_units(values: dict[str, float], table: dict[str, dict]) -> dict:
    """``{name: {"value", "unit"}}``; the names must be exactly ``table``'s."""
    if set(values) != set(table):
        missing = sorted(set(table) - set(values))
        extra = sorted(set(values) - set(table))
        raise ValueError(f"metric names differ: missing {missing}, unexpected {extra}")
    return {
        name: {"value": values[name], "unit": table[name]["unit"]} for name in table
    }
