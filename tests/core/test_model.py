"""Tests for the closed-form LSM cost model (Table 1 analysis)."""

import pytest

from repro.core import LevelingPolicy, TieringPolicy, model
from repro.errors import ConfigurationError


class TestLevelCounts:
    def test_paper_leveling_shape(self):
        # 100M records, 128MB memtable of 1KB entries, T=10 -> 3 levels
        levels = model.levels_for_leveling(100e6, 131_072, 10)
        assert levels == 3

    def test_paper_tiering_shape(self):
        # T=3 gives the paper's roughly eight-level tree
        levels = model.levels_for_tiering(100e6, 131_072, 3)
        assert 6 <= levels <= 8

    def test_tiny_dataset_one_level(self):
        assert model.levels_for_leveling(10, 100, 10) == 1

    def test_scaling_preserves_level_count(self):
        # dividing data and memory by the same factor keeps the shape
        for factor in (2, 64, 512):
            assert model.levels_for_leveling(100e6 / factor, 131_072 / factor, 10) == 3

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            model.levels_for_leveling(0, 10, 10)
        with pytest.raises(ConfigurationError):
            model.levels_for_leveling(10, 10, 1)


class TestThroughputFormulas:
    def test_leveling_formula(self):
        # W_level = 2B / (T L)
        assert model.max_write_throughput_leveling(102_400, 10, 3) == pytest.approx(
            2 * 102_400 / 30
        )

    def test_tiering_formula(self):
        assert model.max_write_throughput_tiering(102_400, 7) == pytest.approx(
            102_400 / 7
        )

    def test_tiering_beats_leveling_at_same_shape(self):
        bandwidth = 100_000
        w_level = model.max_write_throughput_leveling(bandwidth, 10, 3)
        w_tier = model.max_write_throughput_tiering(bandwidth, 3)
        assert w_tier > w_level

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            model.max_write_throughput_leveling(0, 10, 3)
        with pytest.raises(ConfigurationError):
            model.max_write_throughput_tiering(100, 0)


class TestComponentCounts:
    def test_expected_components(self):
        assert LevelingPolicy(10, 3, memory_bytes=1.0).expected_components() == 3
        assert TieringPolicy(3, 7).expected_components() == 21

    def test_default_limit_is_twice_expected(self):
        assert model.default_component_limit(3) == 6
        assert model.default_component_limit(21) == 42

    def test_limit_factor_below_one_allowed_for_ablation(self):
        assert model.default_component_limit(10, factor=0.5) == 5

    def test_limit_factor_nonpositive_rejected(self):
        with pytest.raises(ConfigurationError):
            model.default_component_limit(3, factor=0.0)


class TestFlushedComponentsTolerated:
    def test_paper_example(self):
        # Leveling T=10, level 5, L=5: ~2*10^4/5 = 4000 flushed components
        tolerated = model.flushed_components_tolerated("leveling", 10, 5, 5)
        assert tolerated == pytest.approx(4000.0)

    def test_growth_is_exponential_in_level(self):
        shallow = model.flushed_components_tolerated("tiering", 3, 2, 7)
        deep = model.flushed_components_tolerated("tiering", 3, 6, 7)
        assert deep / shallow == pytest.approx(3**4)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            model.flushed_components_tolerated("btree", 10, 1, 1)
