import pytest

from benchmarks.wall import compare, spec


#: A change half as large again as the widest bound.
BEYOND = 1.5 * max(m["bound"] for m in spec.end_to_end().values())


def doc(p50, throughput, error_rate=0.0, noisy=False):
    metrics = {name: {"value": 1.0, "unit": m["unit"]} for name, m in spec.end_to_end().items()}
    metrics["latency_p50_ms"]["value"] = p50
    metrics["throughput_ops_s"]["value"] = throughput
    return {"seconds": 10, "workloads": {"replay_hit": {"metrics": metrics,
                                                        "error_rate": error_rate,
                                                        "noisy": noisy}}}


def verdicts(base, new):
    table = compare.rows(base, new)
    return {row["metric"]: row["verdict"] for row in table}, compare.exit_code(table)


def test_within_bound_is_ok_in_either_direction():
    slower = 1 + 0.9 * spec.end_to_end()["latency_p50_ms"]["bound"]
    fewer = 1 - 0.9 * spec.end_to_end()["throughput_ops_s"]["bound"]
    got, code = verdicts(doc(100, 10), doc(100 * slower, 10 * fewer))
    assert set(got.values()) == {"ok"} and code == 0
    got, code = verdicts(doc(100, 10), doc(50, 20))
    assert set(got.values()) == {"ok"} and code == 0


def test_beyond_bound_regresses_by_the_metrics_direction():
    got, code = verdicts(doc(100, 10), doc(100, 10 * (1 - BEYOND)))  # higher is better
    assert got["throughput_ops_s"] == "regressed" and got["latency_p50_ms"] == "ok"
    assert code == 1
    got, code = verdicts(doc(100, 10), doc(100 * (1 + BEYOND), 10))  # lower is better
    assert got["latency_p50_ms"] == "regressed" and code == 1


def test_noisy_host_makes_a_regression_unresolved():
    got, code = verdicts(doc(100, 10), doc(100 * (1 + BEYOND), 10, noisy=True))
    assert got["latency_p50_ms"] == "unresolved" and code == 2


def test_any_rise_in_error_rate_regresses():
    got, code = verdicts(doc(100, 10), doc(100, 10, error_rate=0.001))
    assert got["error_rate"] == "regressed" and code == 1
    assert "B/A" in compare.render(compare.rows(doc(100, 10), doc(100, 10)))


def test_a_workload_that_crashed_in_the_new_set_regresses():
    crashed = {"seconds": 10, "workloads": {}}
    got, code = verdicts(doc(100, 10), crashed)
    assert got == {"(no result in B)": "regressed"} and code == 1
    got, code = verdicts(crashed, doc(100, 10))
    assert got == {"(no result in A)": "unresolved"} and code == 2
    assert "(no result in B)" in compare.render(compare.rows(doc(100, 10), crashed))


def test_sets_of_different_run_lengths_are_refused():
    quick = doc(100, 10)
    quick["seconds"] = 1.0
    with pytest.raises(ValueError, match="run lengths differ"):
        compare.rows(doc(100, 10), quick)
