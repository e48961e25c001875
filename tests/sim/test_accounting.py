"""Accounting invariants of the simulator: everything must add up.

These tests cross-check independent traces of the same run against each
other — I/O activity versus the merge log and flush volume, component
entry counts versus the keyspace bound, force events versus completions —
catching any future drift between the simulator's bookkeeping paths.
"""

import numpy as np
import pytest

from repro.harness import ExperimentSpec, build_tree
from repro.workloads import ClosedArrivals, ConstantArrivals


@pytest.fixture(scope="module")
def closed_run():
    spec = ExperimentSpec.tiering(scale=512.0)
    tree = build_tree(spec, ClosedArrivals(), testing=True)
    result = tree.run(2400.0)
    return spec, tree, result


class TestIoAccounting:
    def test_io_activity_covers_merge_outputs(self, closed_run):
        spec, tree, result = closed_run
        merge_bytes = sum(record.output_bytes for record in result.merge_log)
        # io_activity = flush bytes + merge write bytes; it must be at
        # least the completed merges' outputs
        assert result.io_activity.total() >= merge_bytes * 0.999

    def test_io_activity_bounded_by_bandwidth(self, closed_run):
        spec, tree, result = closed_run
        rates = result.io_activity.rate_values(until=result.duration)
        assert rates.max() <= spec.config.bandwidth_bytes_per_s * 1.001

    def test_merge_log_times_ordered(self, closed_run):
        _, _, result = closed_run
        for record in result.merge_log:
            assert record.started_at <= record.completed_at
        completions = [record.completed_at for record in result.merge_log]
        assert completions == sorted(completions)

    def test_merge_outputs_never_exceed_inputs(self, closed_run):
        _, _, result = closed_run
        for record in result.merge_log:
            assert record.output_bytes <= record.input_bytes * 1.001
            assert record.level0_inputs <= record.input_count


class TestComponentAccounting:
    def test_component_series_matches_final_state(self, closed_run):
        _, tree, result = closed_run
        final_series = result.components.points()[-1].value
        live = sum(len(v) for v in tree.levels_view().values())
        assert final_series == live

    def test_every_component_within_keyspace(self, closed_run):
        spec, tree, _ = closed_run
        for components in tree.levels_view().values():
            for component in components:
                assert 0 < component.entry_count <= spec.config.total_keys * 1.01
                assert component.size_bytes == pytest.approx(
                    component.entry_count * spec.config.entry_bytes, rel=1e-6
                )

    def test_profiles_sum_to_entry_counts(self, closed_run):
        spec, tree, _ = closed_run
        for components in tree.levels_view().values():
            for component in components:
                assert float(component.profile.sum()) == pytest.approx(
                    component.entry_count, rel=1e-6
                )


class TestForceAccounting:
    def test_at_end_mode_records_one_force_per_completion(self):
        spec = ExperimentSpec.tiering(scale=512.0)
        spec = spec.with_(config=spec.config.with_(force_at_end_only=True))
        tree = build_tree(spec, ClosedArrivals(), testing=True)
        result = tree.run(1200.0)
        assert len(result.force_events) >= len(result.merge_log)
        for event in result.force_events:
            assert event.bytes > 0
            assert 0 <= event.time <= result.duration

    def test_regular_mode_records_no_discrete_forces(self, closed_run):
        _, _, result = closed_run
        assert result.force_events == []


class TestThroughputAccounting:
    def test_windowed_total_equals_departures(self, closed_run):
        _, _, result = closed_run
        assert result.throughput.total() == pytest.approx(
            result.departures.final_total, rel=1e-9
        )

    def test_open_system_conservation_under_stalls(self):
        spec = ExperimentSpec.leveling(scale=512.0, scheduler="single")
        tree = build_tree(spec, ConstantArrivals(15.0), testing=False)
        result = tree.run(2400.0)
        assert result.departures.final_total + result.final_queue_length == (
            pytest.approx(result.arrivals.final_total, rel=1e-9)
        )


class TestQueueSeries:
    def test_queue_series_matches_final_queue(self):
        spec = ExperimentSpec.leveling(scale=512.0, scheduler="single")
        tree = build_tree(spec, ConstantArrivals(15.0), testing=False)
        result = tree.run(2400.0)
        grid = np.arange(0.0, result.duration, 1.0)
        series = result.arrivals.value_at(grid) - result.departures.value_at(grid)
        assert series[-1] == pytest.approx(result.final_queue_length, abs=20.0)
        assert (series >= -1e-6).all()  # no departure before its arrival

    def test_closed_run_has_zero_queue(self):
        spec = ExperimentSpec.tiering(scale=512.0)
        tree = build_tree(spec, ClosedArrivals(), testing=True)
        result = tree.run(600.0)
        assert result.closed_system
        assert result.final_queue_length == 0.0
