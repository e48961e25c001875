"""Tests for arrival processes."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.workloads import BurstPhase, BurstyArrivals, ClosedArrivals, ConstantArrivals


class TestClosedArrivals:
    def test_rate_is_infinite(self):
        arrivals = ClosedArrivals()
        assert math.isinf(arrivals.rate_at(0.0))
        assert math.isinf(arrivals.rate_at(1e9))

    def test_never_changes(self):
        assert math.isinf(ClosedArrivals().next_change(123.0))


class TestConstantArrivals:
    def test_rate_constant(self):
        arrivals = ConstantArrivals(500.0)
        assert arrivals.rate_at(0.0) == 500.0
        assert arrivals.rate_at(1e6) == 500.0
        assert math.isinf(arrivals.next_change(0.0))

    def test_invalid_rates(self):
        with pytest.raises(ConfigurationError):
            ConstantArrivals(0.0)
        with pytest.raises(ConfigurationError):
            ConstantArrivals(math.inf)


class TestBurstyArrivals:
    @pytest.fixture
    def paper_bursts(self):
        """Fig 13's schedule: 25 min at 2000/s, 5 min at 8000/s."""
        return BurstyArrivals(
            [BurstPhase(1500.0, 2000.0), BurstPhase(300.0, 8000.0)]
        )

    def test_phase_rates(self, paper_bursts):
        assert paper_bursts.rate_at(0.0) == 2000.0
        assert paper_bursts.rate_at(1499.9) == 2000.0
        assert paper_bursts.rate_at(1500.0) == 8000.0
        assert paper_bursts.rate_at(1799.9) == 8000.0

    def test_schedule_repeats(self, paper_bursts):
        cycle = 1500.0 + 300.0
        assert paper_bursts.rate_at(cycle + 10.0) == 2000.0
        assert paper_bursts.rate_at(cycle + 1600.0) == 8000.0

    def test_next_change_is_phase_boundary(self, paper_bursts):
        assert paper_bursts.next_change(0.0) == 1500.0
        assert paper_bursts.next_change(1500.0) == 1800.0
        assert paper_bursts.next_change(1700.0) == 1800.0
        assert paper_bursts.next_change(1800.0) == pytest.approx(3300.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BurstyArrivals([])
        with pytest.raises(ConfigurationError):
            BurstyArrivals([BurstPhase(0.0, 100.0)])
        with pytest.raises(ConfigurationError):
            BurstyArrivals([BurstPhase(10.0, -5.0)])

    def test_zero_rate_phase_allowed(self):
        arrivals = BurstyArrivals([BurstPhase(10.0, 0.0), BurstPhase(10.0, 5.0)])
        assert arrivals.rate_at(5.0) == 0.0
        assert arrivals.rate_at(15.0) == 5.0
