"""BENCHMARK.json against the benchmark contract and against the code."""

import re

from benchmarks.wall import spec
from benchmarks.wall.workloads import REGISTRY

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_top_level_keys_and_limits():
    doc = spec.benchmark()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}
    assert doc["paths"] == ["benchmarks/wall"]
    assert doc["command"][0] == "python3" and doc["command"][1].startswith("benchmarks/wall/")
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128


def test_names_units_and_bounds_are_well_formed():
    doc = spec.benchmark()
    names = []
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))


def test_setup_s_is_listed_with_the_largest_bound():
    metrics = spec.end_to_end()
    setup = metrics["setup_s"]
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in metrics.values())


def test_workloads_are_exactly_the_registered_ones():
    assert spec.workloads() == list(REGISTRY)
    per_layer = spec.per_layer()
    for name in REGISTRY:
        assert f"bench.trace_overhead_frac.{name}" in per_layer
