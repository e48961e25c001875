"""Tests for the metrics registry: counters, gauges, histograms, merging."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.obs import (
    DEFAULT_LATENCY_BOUNDS,
    MetricsRegistry,
    log_scale_bounds,
    merge_snapshots,
    percentile_from_buckets,
    relabel_snapshot,
)


class TestLogScaleBounds:
    def test_geometric_progression(self):
        bounds = log_scale_bounds(start=1e-6, factor=2.0, count=5)
        assert bounds == (1e-6, 2e-6, 4e-6, 8e-6, 16e-6)

    def test_default_spans_microseconds_to_minutes(self):
        assert DEFAULT_LATENCY_BOUNDS[0] == 1e-6
        assert DEFAULT_LATENCY_BOUNDS[-1] > 60.0
        assert len(DEFAULT_LATENCY_BOUNDS) == 28

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            log_scale_bounds(start=0.0)
        with pytest.raises(ConfigurationError):
            log_scale_bounds(factor=1.0)
        with pytest.raises(ConfigurationError):
            log_scale_bounds(count=0)


class TestCounter:
    def test_inc_accumulates(self):
        counter = MetricsRegistry().counter("c_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("c_total")
        with pytest.raises(ConfigurationError):
            counter.inc(-1.0)


class TestGauge:
    def test_set_and_inc(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(5.0)
        gauge.inc(-2.0)
        assert gauge.value == 3.0


class TestHistogramBuckets:
    def test_boundary_sample_lands_in_its_bound_bucket(self):
        # bisect_left: a sample exactly on a bound belongs to that
        # bound's bucket (le semantics: value <= bound).
        hist = MetricsRegistry().histogram("h", bounds=(1.0, 2.0, 4.0))
        hist.observe(1.0)
        hist.observe(2.0)
        hist.observe(4.0)
        assert hist.counts == [1, 1, 1, 0]

    def test_overflow_goes_to_inf_bucket(self):
        hist = MetricsRegistry().histogram("h", bounds=(1.0, 2.0))
        hist.observe(100.0)
        assert hist.counts == [0, 0, 1]

    def test_sum_and_count_track_observations(self):
        hist = MetricsRegistry().histogram("h", bounds=(1.0,))
        hist.observe(0.5)
        hist.observe(3.0)
        assert hist.count == 2
        assert hist.sum == pytest.approx(3.5)

    def test_non_increasing_bounds_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.histogram("h", bounds=(2.0, 1.0))
        with pytest.raises(ConfigurationError):
            registry.histogram("h2", bounds=())


class TestRegistry:
    def test_same_name_and_labels_returns_same_child(self):
        registry = MetricsRegistry()
        first = registry.counter("c_total", labels={"op": "put"})
        second = registry.counter("c_total", labels={"op": "put"})
        assert first is second

    def test_different_labels_are_distinct_series(self):
        registry = MetricsRegistry()
        put = registry.counter("c_total", labels={"op": "put"})
        get = registry.counter("c_total", labels={"op": "get"})
        assert put is not get

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("series")
        with pytest.raises(ConfigurationError):
            registry.gauge("series")

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.counter("bad-name")
        with pytest.raises(ConfigurationError):
            registry.counter("ok_total", labels={"bad-label": "x"})

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c_total", help="a counter").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h_seconds", bounds=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        assert [c["value"] for c in snap["counters"]] == [2]
        assert snap["counters"][0]["help"] == "a counter"
        assert [g["value"] for g in snap["gauges"]] == [1.5]
        hist = snap["histograms"][0]
        assert hist["bounds"] == [1.0]
        assert hist["counts"] == [1, 0]
        assert hist["count"] == 1


class TestPercentileFromBuckets:
    def test_reports_upper_bound_of_rank_bucket(self):
        bounds = (1.0, 2.0, 4.0)
        counts = (5, 3, 2, 0)
        assert percentile_from_buckets(bounds, counts, 50.0) == 1.0
        assert percentile_from_buckets(bounds, counts, 90.0) == 4.0

    def test_overflow_bucket_yields_inf(self):
        assert percentile_from_buckets((1.0,), (0, 1), 99.0) == math.inf

    def test_zero_samples_raise(self):
        with pytest.raises(ConfigurationError):
            percentile_from_buckets((1.0,), (0, 0), 50.0)

    @given(
        st.lists(
            st.floats(1e-6, 100.0, allow_nan=False),
            min_size=1,
            max_size=300,
        ),
        st.floats(0.0, 100.0),
    )
    def test_error_bounded_by_bucket_factor(self, samples, q):
        # The estimate never under-reports the exact conservative
        # percentile, and for in-range samples it overshoots by at most
        # one bucket factor (2x with the default log-scale bounds).
        bounds = log_scale_bounds(start=1e-6, factor=2.0, count=28)
        hist = MetricsRegistry().histogram("h", bounds=bounds)
        for sample in samples:
            hist.observe(sample)
        estimate = percentile_from_buckets(bounds, hist.counts, q)
        rank = max(1, math.ceil(q / 100.0 * len(samples)))
        exact = sorted(samples)[rank - 1]
        assert estimate >= exact
        assert estimate <= exact * 2.0


def _snap(registry):
    return registry.snapshot()


def _series(snapshot, section, name):
    return [e for e in snapshot[section] if e["name"] == name]


class TestMergeSnapshots:
    def _registry(self, counter_value, histogram_samples, gauge_value):
        registry = MetricsRegistry()
        registry.counter("writes_total").inc(counter_value)
        registry.gauge("fill").set(gauge_value)
        hist = registry.histogram("lat_seconds", bounds=(1.0, 2.0, 4.0))
        for sample in histogram_samples:
            hist.observe(sample)
        return registry

    def test_counters_sum_and_gauges_take_max(self):
        a = self._registry(2, [], 0.25)
        b = self._registry(3, [], 0.75)
        merged = merge_snapshots([_snap(a), _snap(b)])
        assert _series(merged, "counters", "writes_total")[0]["value"] == 5
        assert _series(merged, "gauges", "fill")[0]["value"] == 0.75

    def test_histograms_merge_bucket_by_bucket(self):
        a = self._registry(0, [0.5, 1.5], 0.0)
        b = self._registry(0, [3.0, 100.0], 0.0)
        merged = merge_snapshots([_snap(a), _snap(b)])
        hist = _series(merged, "histograms", "lat_seconds")[0]
        assert hist["counts"] == [1, 1, 1, 1]
        assert hist["count"] == 4
        assert hist["sum"] == pytest.approx(105.0)

    def test_merge_is_associative(self):
        snaps = [
            _snap(self._registry(1, [0.5], 0.1)),
            _snap(self._registry(2, [1.5, 3.0], 0.9)),
            _snap(self._registry(4, [9.0], 0.5)),
        ]
        left = merge_snapshots(
            [merge_snapshots(snaps[:2]), snaps[2]]
        )
        right = merge_snapshots(
            [snaps[0], merge_snapshots(snaps[1:])]
        )

        def normalise(snapshot):
            return {
                section: sorted(
                    entries,
                    key=lambda e: (e["name"], sorted(e["labels"].items())),
                )
                for section, entries in snapshot.items()
            }

        assert normalise(left) == normalise(right)

    def test_mismatched_bounds_refuse_to_merge(self):
        registry = MetricsRegistry()
        registry.histogram("lat_seconds", bounds=(1.0, 2.0)).observe(0.5)
        other = MetricsRegistry()
        other.histogram("lat_seconds", bounds=(1.0, 3.0)).observe(0.5)
        with pytest.raises(ConfigurationError):
            merge_snapshots([registry.snapshot(), other.snapshot()])

    def test_relabel_keeps_series_apart(self):
        a = self._registry(2, [0.5], 0.0)
        b = self._registry(3, [0.5], 0.0)
        merged = merge_snapshots(
            [
                relabel_snapshot(_snap(a), {"shard": "0"}),
                relabel_snapshot(_snap(b), {"shard": "1"}),
            ]
        )
        series = _series(merged, "counters", "writes_total")
        assert {s["labels"]["shard"]: s["value"] for s in series} == {
            "0": 2,
            "1": 3,
        }
