"""Tests for the metrics registry: series, snapshots, exposition, merge."""

from __future__ import annotations

import json

import pytest

from repro.telemetry import METRICS_SCHEMA_VERSION, MetricsRegistry


class TestCounters:
    def test_inc_accumulates_per_label_set(self):
        registry = MetricsRegistry()
        registry.inc("repro_packets_sent_total", 100, target="l2cap")
        registry.inc("repro_packets_sent_total", 50, target="l2cap")
        registry.inc("repro_packets_sent_total", 7, target="sdp")
        snapshot = registry.snapshot()
        rows = snapshot["counters"]["repro_packets_sent_total"]
        assert rows == [
            {"labels": {"target": "l2cap"}, "value": 150},
            {"labels": {"target": "sdp"}, "value": 7},
        ]

    def test_counters_cannot_decrease(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="cannot decrease"):
            registry.inc("repro_campaigns_total", -1)

    def test_label_order_does_not_fork_series(self):
        registry = MetricsRegistry()
        registry.inc("m", 1, a="x", b="y")
        registry.inc("m", 1, b="y", a="x")
        (row,) = registry.snapshot()["counters"]["m"]
        assert row["value"] == 2


class TestGauges:
    def test_set_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.set_gauge("repro_fleet_wall_seconds", 1.5)
        registry.set_gauge("repro_fleet_wall_seconds", 2.5)
        (row,) = registry.snapshot()["gauges"]["repro_fleet_wall_seconds"]
        assert row["value"] == 2.5


class TestHistograms:
    def test_observations_land_in_correct_buckets(self):
        registry = MetricsRegistry()
        for value in (0.01, 0.2, 0.2, 99.0):
            registry.observe("lat", value, buckets=(0.1, 0.5, 1.0))
        (row,) = registry.snapshot()["histograms"]["lat"]
        assert row["buckets"] == [[0.1, 1], [0.5, 2], [1.0, 0], ["+Inf", 1]]
        assert row["count"] == 4
        assert row["sum"] == pytest.approx(99.41)

    def test_bucket_layout_fixed_by_first_observation(self):
        registry = MetricsRegistry()
        registry.observe("lat", 0.3, buckets=(0.1, 1.0))
        registry.observe("lat", 0.7)  # later calls may omit the layout
        (row,) = registry.snapshot()["histograms"]["lat"]
        assert [upper for upper, _ in row["buckets"]] == [0.1, 1.0, "+Inf"]
        assert row["count"] == 2


class TestSnapshot:
    def test_snapshot_is_versioned_and_json_safe(self):
        registry = MetricsRegistry()
        registry.inc("c", 1)
        registry.set_gauge("g", 0.5)
        registry.observe("h", 0.2)
        snapshot = registry.snapshot()
        assert snapshot["schema"] == METRICS_SCHEMA_VERSION
        json.loads(registry.to_json())  # round-trips

    def test_to_json_is_deterministic(self):
        def build():
            registry = MetricsRegistry()
            registry.inc("c", 3, target="l2cap")
            registry.inc("c", 1, target="sdp")
            registry.set_gauge("g", 7, worker="2")
            return registry.to_json()

        assert build() == build()


class TestPrometheus:
    def test_counter_and_gauge_exposition(self):
        registry = MetricsRegistry()
        registry.inc("repro_campaigns_total", 4, target="l2cap")
        registry.set_gauge("repro_merged_states", 12, target="l2cap")
        text = registry.to_prometheus()
        assert "# TYPE repro_campaigns_total counter" in text
        assert 'repro_campaigns_total{target="l2cap"} 4' in text
        assert "# TYPE repro_merged_states gauge" in text
        assert 'repro_merged_states{target="l2cap"} 12' in text
        assert text.endswith("\n")

    def test_histogram_exposition_is_cumulative(self):
        registry = MetricsRegistry()
        for value in (0.05, 0.2, 9.0):
            registry.observe("repro_shard_seconds", value, buckets=(0.1, 1.0))
        text = registry.to_prometheus()
        assert 'repro_shard_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_shard_seconds_bucket{le="1"} 2' in text
        assert 'repro_shard_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_shard_seconds_count 3" in text

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.inc("c", 1, path='we"ird\\path\nx')
        line = registry.to_prometheus().splitlines()[1]
        assert line == 'c{path="we\\"ird\\\\path\\nx"} 1'
