"""Tests for the deterministic budget-splitting arithmetic."""

import pytest

from repro.errors import ConfigurationError
from repro.memory import (
    MIN_MEMTABLE_BYTES,
    MemoryBudget,
    apportion_bytes,
)


class TestApportionBytes:
    def test_exact_sum(self):
        shares = apportion_bytes(100, [1.0, 1.0, 1.0])
        assert sum(shares) == 100
        assert shares == [34, 33, 33]

    def test_proportionality(self):
        shares = apportion_bytes(1000, [3.0, 1.0])
        assert shares == [750, 250]

    def test_floor_honored_for_zero_weight(self):
        shares = apportion_bytes(100, [1.0, 0.0], floor=10)
        assert shares[1] >= 10
        assert sum(shares) == 100

    def test_all_zero_weights_split_evenly(self):
        assert apportion_bytes(90, [0.0, 0.0, 0.0]) == [30, 30, 30]

    def test_deterministic_tie_break_prefers_lower_index(self):
        # 10 bytes over three equal weights: 3.33 each, one leftover
        # byte; equal remainders resolve to the lowest shard id.
        assert apportion_bytes(10, [1.0, 1.0, 1.0]) == [4, 3, 3]

    def test_empty_weights(self):
        assert apportion_bytes(100, []) == []

    def test_pool_below_floors_rejected(self):
        with pytest.raises(ConfigurationError):
            apportion_bytes(10, [1.0, 1.0], floor=6)

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigurationError):
            apportion_bytes(10, [1.0, -1.0])

    def test_repeatable(self):
        weights = [0.7, 1.3, 2.9, 0.1]
        first = apportion_bytes(12345, weights, floor=16)
        assert all(
            apportion_bytes(12345, weights, floor=16) == first
            for _ in range(5)
        )


class TestMemoryBudget:
    def test_split_accounts_for_every_byte(self):
        budget = MemoryBudget(4 * 2**20, 3)
        shares = budget.initial()
        assert shares.total_bytes == 4 * 2**20
        assert len(shares.memtable_bytes) == 3
        assert len(shares.cache_bytes) == 3
        moved = shares.moved((0, "cache"), (2, "memtable"), 12345)
        assert moved.total_bytes == 4 * 2**20
        assert moved.memtable_bytes[2] == shares.memtable_bytes[2] + 12345

    def test_memtable_floor_survives_skewed_weights(self):
        """Every move toward one bucket stops at the others' floors."""
        budget = MemoryBudget(4 * 2**20, 4)
        shares = budget.initial()
        target = (0, "memtable")
        for _ in range(200):
            givers = [
                (shard, side)
                for shard in range(4)
                for side in ("memtable", "cache")
                if (shard, side) != target and shares.spare(shard, side)
            ]
            if not givers:
                break
            giver = givers[0]
            step = min(budget.step_bytes, shares.spare(*giver))
            shares = shares.moved(giver, target, step)
        assert shares.memtable_bytes[1:] == (MIN_MEMTABLE_BYTES,) * 3
        assert shares.cache_bytes == (0,) * 4
        assert shares.total_bytes == 4 * 2**20

    def test_budget_too_small_for_floors_rejected(self):
        with pytest.raises(ConfigurationError):
            MemoryBudget(MIN_MEMTABLE_BYTES, 4)

    def test_non_positive_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            MemoryBudget(0, 1)
