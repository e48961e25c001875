"""Tests for initial loaded-tree construction."""

import pytest

from repro.core import (
    LazyLevelingPolicy,
    LevelingPolicy,
    PartitionedLevelingPolicy,
    SizeTieredPolicy,
    TieringPolicy,
    UidAllocator,
)
from repro.sim import (
    loaded_layout_tree,
    loaded_partitioned_tree,
    loaded_size_tiered_stack,
)


class TestLevelingBootstrap:
    def test_one_component_per_level(self, config, uniform_keyspace):
        policy = LevelingPolicy(10, 3, config.memory_component_bytes)
        components = loaded_layout_tree(
            policy, uniform_keyspace, config, UidAllocator()
        )
        levels = sorted(c.level for c in components)
        assert levels == [1, 2, 3]

    def test_last_level_holds_the_bulk(self, config, uniform_keyspace):
        policy = LevelingPolicy(10, 3, config.memory_component_bytes)
        components = loaded_layout_tree(
            policy, uniform_keyspace, config, UidAllocator()
        )
        last = max(components, key=lambda c: c.level)
        assert last.entry_count > 0.7 * config.total_keys

    def test_profiles_consistent_with_sizes(self, config, uniform_keyspace):
        policy = LevelingPolicy(10, 3, config.memory_component_bytes)
        for component in loaded_layout_tree(
            policy, uniform_keyspace, config, UidAllocator()
        ):
            assert uniform_keyspace.unique_count(component.profile) == (
                pytest.approx(component.entry_count, rel=1e-6)
            )


class TestTieringBootstrap:
    def test_levels_populated(self, config, uniform_keyspace):
        policy = TieringPolicy(3, 7)
        components = loaded_layout_tree(
            policy, uniform_keyspace, config, UidAllocator()
        )
        assert {c.level for c in components} >= {0, 6}

    def test_total_unique_bounded(self, config, uniform_keyspace):
        policy = TieringPolicy(3, 7)
        components = loaded_layout_tree(
            policy, uniform_keyspace, config, UidAllocator()
        )
        for component in components:
            assert component.entry_count <= config.total_keys


class TestLazyLevelingBootstrap:
    def test_tiered_levels_over_one_leveled_run(self, config, uniform_keyspace):
        policy = LazyLevelingPolicy(4, 3)
        components = loaded_layout_tree(
            policy, uniform_keyspace, config, UidAllocator()
        )
        assert [c.level for c in components] == [2, 0, 0, 1, 1]
        assert components[0].entry_count == 0.9 * config.total_keys
        assert components[3].entry_count == (
            4 * config.memory_component_entries
        )


class TestSizeTieredBootstrap:
    def test_geometric_stack(self, config, uniform_keyspace):
        policy = SizeTieredPolicy()
        stack = loaded_size_tiered_stack(
            policy, uniform_keyspace, config, UidAllocator()
        )
        sizes = [c.size_bytes for c in stack]
        assert sizes == sorted(sizes, reverse=True)
        assert all(c.level == 0 for c in stack)

    def test_stack_depth_reasonable(self, config, uniform_keyspace):
        policy = SizeTieredPolicy()
        stack = loaded_size_tiered_stack(
            policy, uniform_keyspace, config, UidAllocator()
        )
        assert 3 <= len(stack) <= 30


class TestPartitionedBootstrap:
    def make(self, config, keyspace):
        policy = PartitionedLevelingPolicy(
            size_ratio=10,
            levels=3,
            level1_target_bytes=10 * config.memory_component_bytes,
            max_file_bytes=config.memory_component_bytes / 2,
        )
        return policy, loaded_partitioned_tree(
            policy, keyspace, config, UidAllocator()
        )

    def test_files_respect_max_size(self, config, uniform_keyspace):
        policy, files = self.make(config, uniform_keyspace)
        for component in files:
            assert component.size_bytes <= policy.max_file_bytes * 1.01

    def test_files_tile_the_keyspace_per_level(self, config, uniform_keyspace):
        _, files = self.make(config, uniform_keyspace)
        by_level: dict[int, list] = {}
        for component in files:
            by_level.setdefault(component.level, []).append(component)
        for level, level_files in by_level.items():
            level_files.sort(key=lambda c: c.key_lo)
            assert level_files[0].key_lo == pytest.approx(0.0)
            assert level_files[-1].key_hi == pytest.approx(1.0)
            for left, right in zip(level_files, level_files[1:]):
                assert left.key_hi == pytest.approx(right.key_lo)

    def test_last_level_holds_bulk(self, config, uniform_keyspace):
        policy, files = self.make(config, uniform_keyspace)
        last_level_entries = sum(
            c.entry_count for c in files if c.level == policy.levels
        )
        assert last_level_entries > 0.4 * config.total_keys
