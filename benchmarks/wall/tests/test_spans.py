import json

from benchmarks.wall.spans import NULL_TRACER, Tracer, covered_length


def test_covered_length_merges_overlap_and_clips():
    assert covered_length([], 0, 10) == 0
    assert covered_length([(1, 3), (2, 5)], 0, 10) == 4
    assert covered_length([(-5, 2), (8, 20)], 0, 10) == 4
    assert covered_length([(4, 4)], 0, 10) == 0


def test_self_time_is_duration_minus_child_cover():
    tracer = Tracer()
    parent = tracer.record("op", 0.0, 10.0, op=3)
    tracer.record("a", 1.0, 4.0, parent)
    inner = tracer.record("b", 3.0, 6.0, parent)  # overlaps a by 1
    tracer.record("c", 3.5, 4.5, inner)
    own = tracer.self_times()
    assert own["op"] == [5.0]  # 10 - |[1, 6]|
    assert own["a"] == [3.0]
    assert own["b"] == [2.0]
    assert own["c"] == [1.0]
    assert {s.op for s in tracer.spans} == {3}


def test_live_spans_nest_and_share_the_operation_id(tmp_path):
    tracer = Tracer()
    with tracer.span("op", op=9) as op:
        with tracer.span("layer") as layer:
            pass
    assert layer.parent == op.id and layer.op == 9 and op.parent is None
    assert op.start <= layer.start <= layer.end <= op.end
    assert tracer.durations("layer") == [layer.duration]
    tracer.dump(tmp_path / "t.json")
    spans = json.loads((tmp_path / "t.json").read_text())["spans"]
    assert [s["name"] for s in spans] == ["op", "layer"]
    assert set(spans[0]) == {"id", "name", "start", "end", "parent", "op"}


def test_null_tracer_records_nothing():
    with NULL_TRACER.span("op", op=1) as span:
        assert span is None
    assert NULL_TRACER.record("x", 0, 1) is None
    assert not NULL_TRACER.enabled
