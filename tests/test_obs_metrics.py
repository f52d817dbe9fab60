"""Tests for the metrics instruments and registry."""

import pytest

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_inc_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")
        counter.inc()
        counter.inc(2.5)
        assert registry.counter("hits").value == 3.5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_labeled_series_are_independent(self):
        registry = MetricsRegistry()
        registry.counter("verbs", op="write").inc(3)
        registry.counter("verbs", op="read").inc(1)
        assert registry.counter("verbs", op="write").value == 3
        assert registry.counter("verbs", op="read").value == 1
        assert len(registry.series("verbs")) == 2


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value == 13


class TestHistogram:
    def test_exact_aggregates(self):
        hist = Histogram("h")
        for value in (5.0, 1.0, 3.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.sum == 9.0
        assert hist.min == 1.0
        assert hist.max == 5.0
        assert hist.mean == 3.0

    def test_percentiles(self):
        hist = Histogram("h")
        for value in range(1, 101):  # 1..100
            hist.observe(value)
        assert hist.percentile(50) == 50
        assert hist.percentile(90) == 90
        assert hist.percentile(99) == 99
        assert hist.percentile(100) == 100
        assert hist.percentile(0) == 1

    def test_summary_block(self):
        hist = Histogram("h")
        for value in range(1000):
            hist.observe(value)
        summary = hist.summary()
        assert summary["count"] == 1000
        assert summary["p50"] <= summary["p90"] <= summary["p99"]
        assert summary["max"] == 999

    def test_empty_summary(self):
        assert Histogram("h").summary()["count"] == 0
        assert Histogram("h").percentile(50) == 0.0

    def test_decimation_bounds_memory_but_keeps_exact_aggregates(self):
        hist = Histogram("h", max_samples=64)
        n = 100_000
        for value in range(n):
            hist.observe(value)
        assert hist.count == n
        assert hist.sum == sum(range(n))
        assert hist.max == n - 1
        assert len(hist.samples()) < 64
        # Percentiles stay sane estimates from the decimated reservoir.
        assert abs(hist.percentile(50) - n / 2) < n * 0.1

    def test_decimation_is_deterministic(self):
        a, b = Histogram("a", max_samples=32), Histogram("b", max_samples=32)
        for value in range(5000):
            a.observe(value)
            b.observe(value)
        assert a.samples() == b.samples()

    def test_bad_percentile_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h").percentile(101)


class TestRegistry:
    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_get_never_creates(self):
        registry = MetricsRegistry()
        assert registry.get("nope") is None
        assert len(registry) == 0

    def test_snapshot_shapes(self):
        registry = MetricsRegistry()
        registry.counter("c", k="v").inc(2)
        registry.gauge("g").set(7)
        registry.histogram("h").observe(1.5)
        rows = {row["name"]: row for row in registry.snapshot()}
        assert rows["c"]["type"] == "counter"
        assert rows["c"]["value"] == 2
        assert rows["c"]["labels"] == {"k": "v"}
        assert rows["g"]["value"] == 7
        assert rows["h"]["count"] == 1
        assert rows["h"]["samples"] == [1.5]

    def test_iteration_is_sorted_and_stable(self):
        registry = MetricsRegistry()
        registry.counter("b")
        registry.counter("a", z="1")
        registry.counter("a", a="1")
        names = [(m.name, m.labels) for m in registry]
        assert names == sorted(names)


def _reference_items(registry):
    """The order every read used to compute: a fresh sort per call."""
    return sorted(registry._metrics.items())


class TestRegistryOrder:
    """The cached series order must equal a sort taken on every read."""

    @staticmethod
    def _assert_matches_reference(registry):
        items = _reference_items(registry)
        assert list(registry) == [metric for _key, metric in items]
        for name in {key[0] for key, _metric in items} | {"absent"}:
            assert registry.series(name) == [
                metric for key, metric in items if key[0] == name
            ]

    def test_interleaved_create_drop_clear(self):
        registry = MetricsRegistry()
        self._assert_matches_reference(registry)
        registry.counter("b", t="2")
        registry.gauge("a")
        self._assert_matches_reference(registry)
        registry.counter("b", t="1")
        registry.histogram("c", t="1", epoch="0")
        registry.counter("a.x", t="1")
        self._assert_matches_reference(registry)
        registry.counter("b", t="1")  # existing series: order unchanged
        self._assert_matches_reference(registry)
        assert registry.drop("nope") == 0
        self._assert_matches_reference(registry)
        assert registry.drop(t="1") == 3
        self._assert_matches_reference(registry)
        registry.counter("a", t="0")
        self._assert_matches_reference(registry)
        registry.clear()
        self._assert_matches_reference(registry)
        assert list(registry) == []
        registry.gauge("z")
        registry.counter("y", k="v")
        self._assert_matches_reference(registry)

    def test_series_created_between_iterations(self):
        registry = MetricsRegistry()
        registry.counter("m", k="b")
        first = list(registry)
        registry.counter("m", k="a")
        self._assert_matches_reference(registry)
        assert len(list(registry)) == len(first) + 1
        assert [m.labels for m in registry.series("m")] == [
            (("k", "a"),), (("k", "b"),),
        ]

    def test_creating_mid_iteration_keeps_the_started_order(self):
        registry = MetricsRegistry()
        registry.counter("a")
        registry.counter("c")
        seen = []
        for metric in registry:
            seen.append(metric.name)
            registry.counter("b")  # created while the walk is open
        assert seen == ["a", "c"]
        assert [m.name for m in registry] == ["a", "b", "c"]
