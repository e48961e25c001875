"""Tests for the rate limiter and sync policy."""

import threading

import pytest

from repro.engine import RateLimiter, SyncPolicy
from repro.errors import ConfigurationError
from tests.faketime import FakeTime


class TestRateLimiter:
    def test_unlimited_never_sleeps(self):
        fake = FakeTime()
        limiter = RateLimiter(0, fake)
        limiter.acquire(10**9)
        assert limiter.total_sleep_seconds == 0

    def test_burst_budget_allows_first_second(self):
        fake = FakeTime()
        limiter = RateLimiter(100.0, fake)
        limiter.acquire(100)  # exactly the burst
        assert limiter.total_sleep_seconds == 0

    def test_sustained_rate_enforced(self):
        fake = FakeTime()
        limiter = RateLimiter(100.0, fake)
        for _ in range(10):
            limiter.acquire(100)
        # 1000 bytes at 100 B/s needs ~10s minus the 1s burst
        assert fake.now == pytest.approx(9.0, abs=0.5)

    def test_refill_over_time(self):
        fake = FakeTime()
        limiter = RateLimiter(100.0, fake)
        limiter.acquire(100)
        fake.now += 5.0  # idle time refills the bucket (capped at 1s)
        before = fake.now
        limiter.acquire(100)
        assert fake.now == before  # burst available again, no sleep

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            RateLimiter(-1)

    def test_zero_bytes_noop(self):
        fake = FakeTime()
        limiter = RateLimiter(10.0, fake)
        limiter.acquire(0)
        assert fake.now == 0.0

    def test_request_larger_than_burst_terminates(self):
        # A request bigger than the bucket capacity (rate = 1s burst)
        # must go into debt and sleep it off, not wait for a balance
        # that can never accumulate.
        fake = FakeTime()
        limiter = RateLimiter(100.0, fake)
        limiter.acquire(1000)
        # 1000 bytes minus the 100-byte burst = 9s of debt.
        assert fake.now == pytest.approx(9.0)

    def test_oversleep_surplus_not_forfeited(self):
        # Regression: the limiter used to zero the bucket after every
        # sleep, so tokens accrued during an oversleep (real sleeps
        # always overshoot) were forfeited and throughput fell below
        # the configured budget.
        fake = FakeTime()

        def oversleep(seconds):
            fake.advance(seconds + 0.5)

        fake.sleep = oversleep
        limiter = RateLimiter(100.0, fake)
        limiter.acquire(200)  # 100 burst + 1s debt, overslept to 1.5s
        before = limiter.total_sleep_seconds
        limiter.acquire(50)  # covered by the 50-byte oversleep surplus
        assert limiter.total_sleep_seconds == before

    def test_concurrent_acquirers_bounded_by_budget(self):
        # Two threads hammer one limiter on a virtual clock; the debt
        # design guarantees admitted bytes never exceed the burst plus
        # rate x elapsed, no matter how acquires interleave. The old
        # unlocked read-modify-write could lose a debit and admit more.
        fake = FakeTime()
        rate = 1000.0
        limiter = RateLimiter(rate, fake)

        def hammer():
            for _ in range(50):
                limiter.acquire(100)

        threads = [threading.Thread(target=hammer) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        admitted = limiter.total_admitted_bytes
        assert admitted == 100 * 50 * 2
        # Bandwidth bound: burst + rate x elapsed covers everything
        # admitted, i.e. the virtual clock had to advance at least
        # (admitted - burst) / rate seconds.
        assert admitted <= rate + rate * fake.now + 1e-6
        assert fake.now >= (admitted - rate) / rate - 1e-6

    def test_admitted_bytes_counted_when_unlimited(self):
        limiter = RateLimiter(0)
        limiter.acquire(123)
        assert limiter.total_admitted_bytes == 123


class TestSyncPolicy:
    def test_force_every_interval(self):
        policy = SyncPolicy(interval_bytes=100)
        forces = sum(policy.note_write(30) for _ in range(10))
        assert forces == 3  # 300 bytes / 100
        assert policy.forces_issued == 3

    def test_zero_interval_never_forces(self):
        policy = SyncPolicy(interval_bytes=0)
        assert not any(policy.note_write(10**6) for _ in range(10))

    def test_negative_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            SyncPolicy(interval_bytes=-1)
