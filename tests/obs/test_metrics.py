"""The labelled metrics registry: memoization, kinds, dumps, merge."""

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    format_labels,
)


class TestInstruments:
    def test_counter_increments_and_rejects_decrease(self):
        c = Counter("x", ())
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_set_and_update_max(self):
        g = Gauge("x", ())
        g.set(7)
        g.update_max(3)
        assert g.value == 7
        g.update_max(11)
        assert g.value == 11

    def test_histogram_keeps_running_aggregates(self):
        h = Histogram("x", ())
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        assert (h.count, h.total, h.min, h.max) == (3, 6.0, 1.0, 3.0)
        assert h.sample() == {"count": 3, "sum": 6.0, "min": 1.0, "max": 3.0}
        assert not hasattr(h, "values")

    def test_histogram_all_negative_series(self):
        h = Histogram("x", ())
        for v in (-2.0, -0.5, -4.0):
            h.observe(v)
        assert h.sample() == {"count": 3, "sum": -6.5, "min": -4.0, "max": -0.5}

    def test_empty_histogram_sample(self):
        assert Histogram("x", ()).sample() == {
            "count": 0, "sum": 0.0, "min": 0, "max": 0,
        }


class TestRegistry:
    def test_same_name_and_labels_memoize(self):
        reg = MetricsRegistry()
        a = reg.counter("faults", kind="link")
        b = reg.counter("faults", kind="link")
        assert a is b
        assert len(reg) == 1

    def test_label_order_is_canonical(self):
        reg = MetricsRegistry()
        a = reg.counter("x", src=1, dst=2)
        b = reg.counter("x", dst=2, src=1)
        assert a is b

    def test_distinct_labels_are_distinct_series(self):
        reg = MetricsRegistry()
        link = reg.counter("faults", kind="link")
        node = reg.counter("faults", kind="node")
        assert link is not node
        assert len(reg.family("faults")) == 2

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="already registered as counter"):
            reg.gauge("x")

    def test_contains_and_collect(self):
        reg = MetricsRegistry()
        reg.counter("hops").inc(3)
        reg.gauge("peak").set(9)
        assert "hops" in reg
        assert "nope" not in reg
        rows = list(reg.collect())
        assert ("hops", {}, "counter", 3) in rows
        assert ("peak", {}, "gauge", 9) in rows

    def test_as_dict_groups_by_kind_with_label_suffix(self):
        reg = MetricsRegistry()
        reg.counter("faults", kind="link").inc(2)
        reg.histogram("dur").observe(0.5)
        doc = reg.as_dict()
        assert doc["counters"] == {"faults{kind=link}": 2}
        assert doc["histograms"]["dur"]["count"] == 1

    def test_format_labels(self):
        assert format_labels(()) == ""
        assert format_labels((("a", 1), ("b", "x"))) == "{a=1,b=x}"

    def test_merge_adds_maxes_and_folds_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n").inc(2)
        b.counter("n").inc(5)
        a.gauge("peak").set(10)
        b.gauge("peak").set(4)
        b.histogram("dur").observe(1.5)
        a.merge(b)
        assert a.counter("n").value == 7
        assert a.gauge("peak").value == 10
        assert a.histogram("dur").sample() == {
            "count": 1, "sum": 1.5, "min": 1.5, "max": 1.5,
        }

    def test_merge_folds_negative_and_empty_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for v in (-3.0, -1.0):
            a.histogram("dur").observe(v)
        b.histogram("dur")  # registered, never observed
        b.histogram("idle")
        a.merge(b)
        assert a.histogram("dur").sample() == {
            "count": 2, "sum": -4.0, "min": -3.0, "max": -1.0,
        }
        assert a.histogram("idle").sample() == {
            "count": 0, "sum": 0.0, "min": 0, "max": 0,
        }
        empty = MetricsRegistry()
        empty.merge(a)
        assert empty.histogram("dur").sample() == a.histogram("dur").sample()
        b.histogram("dur").observe(-5.0)
        a.merge(b)
        assert a.histogram("dur").sample() == {
            "count": 3, "sum": -9.0, "min": -5.0, "max": -1.0,
        }
