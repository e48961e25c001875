"""Tests for the secondary-index dataset simulation (Section 7)."""

import dataclasses
import math

import pytest

from repro.core import GlobalComponentConstraint
from repro.errors import ConfigurationError
from repro.harness import two_phase
from repro.sim import (
    DatasetTarget,
    EagerLookupControl,
    QueryDevice,
    SecondarySetup,
    bench_config,
    simulate_dataset,
)
from repro.workloads import ClosedArrivals, ConstantArrivals


class TestSecondarySetup:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SecondarySetup(strategy="deferred")
        with pytest.raises(ConfigurationError):
            SecondarySetup(secondary_count=0)

    def test_eager_doubles_secondary_entries(self):
        assert SecondarySetup(strategy="lazy").entries_per_write_secondary == 1.0
        assert SecondarySetup(strategy="eager").entries_per_write_secondary == 2.0

    def test_bandwidth_shares_sum_to_one(self):
        setup = SecondarySetup(strategy="eager", secondary_count=2)
        config = bench_config(512)
        primary, secondary = setup.bandwidth_shares(config)
        assert primary + 2 * secondary == pytest.approx(1.0)


class TestEagerLookupControl:
    @pytest.fixture
    def control(self):
        config = bench_config(512)
        return EagerLookupControl(
            config, QueryDevice.for_config(config), threads=8
        )

    def test_rate_decreases_with_components(self, control):
        from tests.core.test_constraints import tree_with

        few = control.admission_rate(tree_with({0: 2}), GlobalComponentConstraint(99))
        many = control.admission_rate(
            tree_with({0: 40}), GlobalComponentConstraint(99)
        )
        assert many < few

    def test_stops_on_violation(self, control):
        from tests.core.test_constraints import tree_with

        assert control.admission_rate(
            tree_with({0: 5}), GlobalComponentConstraint(5)
        ) == 0.0

    def test_rate_varies_over_time(self, control):
        from tests.core.test_constraints import tree_with

        tree = tree_with({0: 2})
        constraint = GlobalComponentConstraint(99)
        rates = {
            control.admission_rate(tree, constraint, now=t)
            for t in (0.0, 150.0, 300.0, 450.0)
        }
        assert len(rates) > 1  # the modulation is visible

    def test_finite_rate(self, control):
        from tests.core.test_constraints import tree_with

        rate = control.admission_rate(tree_with({0: 2}), GlobalComponentConstraint(99))
        assert math.isfinite(rate) and rate > 0


def dataset_two_phase(setup, **durations):
    """``(maximum, running result)`` of the harness's two phases over
    the dataset."""
    outcome = two_phase(DatasetTarget(setup, **durations))
    return outcome.max_write_throughput, outcome.running


class TestDatasetSimulation:
    def test_lazy_measures_higher_than_eager(self):
        lazy_max, _ = dataset_two_phase(
            SecondarySetup(strategy="lazy", scale=512),
            testing_duration=2400,
            running_duration=600,
        )
        eager_max, _ = dataset_two_phase(
            SecondarySetup(strategy="eager", scale=512),
            testing_duration=2400,
            running_duration=600,
        )
        assert lazy_max > eager_max

    def test_eager_latency_exceeds_lazy_at_95(self):
        lazy_max, lazy_run = dataset_two_phase(
            SecondarySetup(strategy="lazy", scale=512),
            testing_duration=2400,
            running_duration=3600,
        )
        eager_max, eager_run = dataset_two_phase(
            SecondarySetup(strategy="eager", scale=512),
            testing_duration=2400,
            running_duration=3600,
        )
        lazy_p99 = lazy_run.write_latency_profile((99.0,))[99.0]
        eager_p99 = eager_run.write_latency_profile((99.0,))[99.0]
        assert eager_p99 > lazy_p99

    def test_the_dataset_answers_the_sustainable_verdict(self):
        target = DatasetTarget(
            SecondarySetup(strategy="lazy", scale=512),
            testing_duration=2400,
            running_duration=600,
        )
        outcome = two_phase(target)
        assert outcome.arrival_rate == 0.95 * outcome.max_write_throughput
        assert outcome.sustainable
        assert outcome.running.total_writes == pytest.approx(
            outcome.arrival_rate * 600, rel=0.01
        )
        overload = two_phase(target, utilization=2.0)
        assert overload.running.final_queue_length > overload.arrival_rate
        assert not overload.sustainable

    def test_lower_utilization_tames_eager_latency(self):
        setup = SecondarySetup(strategy="eager", scale=512)
        eager_max, _ = dataset_two_phase(
            setup, testing_duration=2400, running_duration=600
        )
        high = simulate_dataset(
            setup, ConstantArrivals(0.95 * eager_max), duration=3600
        )
        low = simulate_dataset(
            setup, ConstantArrivals(0.6 * eager_max), duration=3600
        )
        assert (
            low.write_latency_profile((99.0,))[99.0]
            <= high.write_latency_profile((99.0,))[99.0]
        )

    def test_closed_dataset_denies_latency(self):
        result = simulate_dataset(
            SecondarySetup(scale=512), ClosedArrivals(), duration=600
        )
        with pytest.raises(ConfigurationError):
            result.write_latencies()

    def test_throughput_series_is_min_of_trees(self):
        result = simulate_dataset(
            SecondarySetup(scale=512), ConstantArrivals(10.0), duration=600
        )
        series = result.throughput_series()
        p = result.primary.throughput_series()[: series.size]
        s = result.secondary.throughput_series()[: series.size]
        assert (series <= p + 1e-9).all()
        assert (series <= s + 1e-9).all()


class TestDatasetCountsRecords:
    """Eager maintenance writes two secondary entries per record, and
    every figure of a dataset run is in records."""

    @pytest.fixture(scope="class")
    def run(self):
        return simulate_dataset(
            SecondarySetup(strategy="eager", scale=512),
            ConstantArrivals(10.0),
            duration=600,
        )

    def test_the_trees_count_entries_the_dataset_counts_records(self, run):
        assert run.primary.total_writes == pytest.approx(6000)
        assert run.secondary.total_writes == pytest.approx(12000)
        assert run.total_writes == pytest.approx(6000)
        assert run.measured_throughput() == pytest.approx(10.0)
        assert run.throughput_series() == pytest.approx(10.0)
        assert run.write_latencies().max() == pytest.approx(0.0, abs=1e-9)

    def test_a_secondary_slower_in_records_than_in_entries_sets_the_pace(
        self, run
    ):
        """The same secondary tree read at four entries a record took
        3,000 records, half the primary's: it is the slower tree, though
        its 20 entries/s outrun the primary's 10 records/s. Record ``i``
        is complete once entry ``4 i`` departs, at ``i / 5`` s, having
        arrived at ``i / 10`` s."""
        slow = dataclasses.replace(run, secondary_entries_per_write=4.0)
        assert slow.total_writes == pytest.approx(3000)
        assert slow.measured_throughput() == pytest.approx(5.0)
        assert slow.throughput_series() == pytest.approx(5.0)
        latencies = slow.write_latencies(max_samples=3000)
        assert latencies == pytest.approx(
            [index / 10 for index in range(3000)], abs=1e-6
        )
