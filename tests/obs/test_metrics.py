"""Metric primitives: counters, gauges, time-weighted series, merging."""

import pytest

from repro.obs import (
    NULL_METRICS,
    ChannelUsage,
    MetricsRegistry,
    TimeSeries,
    format_snapshot,
    merge_snapshots,
    metric_name,
    resolve_metrics,
)


class TestPrimitives:
    def test_counter_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("events")
        counter.inc()
        counter.inc(5)
        assert counter.value == 6
        assert registry.counter("events") is counter

    def test_gauge_tracks_running_max(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(10)
        gauge.set(3)
        assert gauge.value == 3
        assert gauge.max_value == 10

    def test_timeseries_mean_is_time_weighted(self):
        series = TimeSeries("depth")
        series.observe(0.0, 10.0)
        series.observe(9.0, 0.0)  # level 10 held for 9 s
        series.observe(10.0, 0.0)  # level 0 held for 1 s
        assert series.elapsed == pytest.approx(10.0)
        # 9 s at 10 and 1 s at 0 average 9, not 5 (arithmetic mean).
        assert series.mean() == pytest.approx(9.0)
        assert series.max_value == 10.0

    def test_timeseries_clock_restart_opens_a_new_segment(self):
        series = TimeSeries("depth")
        series.observe(0.0, 2.0)
        series.observe(1.0, 0.0)  # level 2 held for 1 s
        series.observe(0.0, 4.0)  # a new clock: nothing integrated
        series.observe(3.0, 0.0)  # level 4 held for 3 s
        assert series.elapsed == pytest.approx(4.0)
        assert series.mean() == pytest.approx(14.0 / 4.0)
        assert series.mean() <= series.max_value

    def test_timeseries_ring_buffer_counts_dropped(self):
        series = TimeSeries("depth", capacity=4)
        for i in range(10):
            series.observe(float(i), float(i))
        assert len(series.samples) == 4
        assert series.dropped == 6
        # Summary statistics stay exact despite eviction.
        assert series.max_value == 9.0

    def test_channel_usage_utilization(self):
        usage = ChannelUsage("link/a-b", capacity=100.0)
        usage.account(0.0, 1.0, 50.0, 1)
        usage.account(1.0, 1.0, 100.0, 3)
        assert usage.bytes == pytest.approx(150.0)
        assert usage.busy_seconds == pytest.approx(2.0)
        assert usage.achieved_rate == pytest.approx(75.0)
        assert usage.utilization == pytest.approx(0.75)
        assert usage.max_concurrent_flows == 3

    def test_metric_name_flattens_tuples(self):
        assert metric_name(("sdma", 0, "out")) == "sdma/0/out"
        assert metric_name("plain") == "plain"


class TestRegistry:
    def test_disabled_registry_is_falsy(self):
        assert not NULL_METRICS
        assert not MetricsRegistry(enabled=False)
        assert MetricsRegistry()

    def test_resolve_metrics_coercions(self):
        assert resolve_metrics(None) is NULL_METRICS
        assert resolve_metrics(False) is NULL_METRICS
        fresh = resolve_metrics(True)
        assert fresh.enabled and fresh is not NULL_METRICS
        own = MetricsRegistry()
        assert resolve_metrics(own) is own

    def test_snapshot_is_json_able(self):
        import json

        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.gauge("b").set(2.0)
        registry.timeseries("c").observe(0.0, 1.0)
        registry.channel(("link", "x-y", "fwd"), 100.0).account(0.0, 1.0, 50.0, 1)
        snapshot = registry.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert snapshot["counters"]["a"] == 1
        assert snapshot["channels"]["link/x-y/fwd"]["utilization"] == 0.5

    def test_format_snapshot_renders_channels(self):
        registry = MetricsRegistry()
        registry.counter("events").inc(3)
        registry.channel("link/a", 100e9).account(0.0, 1.0, 50e9, 2)
        text = format_snapshot(registry.snapshot())
        assert "events" in text
        assert "link/a" in text
        assert "50.0% of peak" in text

    def test_format_snapshot_empty(self):
        assert format_snapshot({}) == "no metrics recorded"


class TestMergeSnapshots:
    def _snapshot(self, *, counter=1, byte_count=100.0, busy=1.0):
        registry = MetricsRegistry()
        registry.counter("events").inc(counter)
        registry.gauge("depth").set(float(counter))
        registry.timeseries("level").observe(0.0, 1.0)
        usage = registry.channel("ch", 200.0)
        usage.flows += 1  # the flow network counts boardings at transfer()
        usage.account(0.0, busy, byte_count / busy, 1)
        return registry.snapshot()

    def test_none_base_starts_accumulator(self):
        snap = self._snapshot()
        merged = merge_snapshots(None, snap)
        assert merged["counters"]["events"] == 1

    def test_counters_and_channel_totals_add(self):
        merged = merge_snapshots(
            self._snapshot(counter=1, byte_count=100.0),
            self._snapshot(counter=2, byte_count=300.0),
        )
        assert merged["counters"]["events"] == 3
        channel = merged["channels"]["ch"]
        assert channel["bytes"] == pytest.approx(400.0)
        assert channel["busy_seconds"] == pytest.approx(2.0)
        assert channel["flows"] == 2
        # Utilization is recomputed from merged totals, not averaged.
        assert channel["achieved_rate"] == pytest.approx(200.0)
        assert channel["utilization"] == pytest.approx(1.0)

    def test_gauges_take_max(self):
        merged = merge_snapshots(
            self._snapshot(counter=5), self._snapshot(counter=2)
        )
        assert merged["gauges"]["depth"]["max"] == 5.0
