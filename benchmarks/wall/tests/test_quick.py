"""End to end in ``--quick`` mode: every workload runs, is correct, and
emits exactly the metric names ``BENCHMARK.json`` lists (slow: ~1 min)."""

import json
import subprocess
import sys

from benchmarks.wall import spec
from benchmarks.wall.paths import OUT, ROOT


def wall(*args):
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.wall", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )


def test_quick_run_emits_every_end_to_end_metric(tmp_path):
    out = tmp_path / "run.json"
    done = wall("run", "--quick", "--seed", "5", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    doc = json.loads(out.read_text())
    assert list(doc["workloads"]) == spec.workloads()
    for name, result in doc["workloads"].items():
        assert set(result["metrics"]) == set(spec.end_to_end()), name
        assert result["error_rate"] == 0 and result["attempted"] >= 1, name
        assert all(m["value"] > 0 for m in result["metrics"].values()), name
    for metric in (*spec.end_to_end(), "error_rate", "host.calib_py_ms"):
        assert metric in done.stdout
    same = wall("compare", str(out), str(out))
    assert same.returncode == 0 and "regressed" not in same.stdout


def test_quick_trace_emits_every_per_layer_metric():
    done = subprocess.run(
        [sys.executable, "benchmarks/wall/run.py", "--workload", "recover_faulted",
         "--seed", "5", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0
    assert set(doc["metrics"]) == set(spec.per_layer())
    for name, entry in doc["metrics"].items():
        assert entry["unit"] == spec.per_layer()[name]["unit"]
    spans = json.loads((OUT / "trace_recover_faulted.json").read_text())["spans"]
    assert {"op", "recovery.execute.mixed", "machine.faults.fork"} <= {s["name"] for s in spans}
