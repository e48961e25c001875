"""Tests for the lazy-leveling extension policy."""

import pytest

from repro.core import LazyLevelingPolicy, TreeSnapshot, UidAllocator
from repro.errors import ConfigurationError

from tests.core.test_policies import comp


class TestLazyLevelingPolicy:
    @pytest.fixture
    def policy(self):
        return LazyLevelingPolicy(size_ratio=3, levels=3)

    def test_intermediate_levels_behave_like_tiering(self, policy):
        tree = TreeSnapshot([comp(i, 0, 1) for i in (1, 2, 3)])
        merges = policy.select_merges(tree, UidAllocator())
        assert len(merges) == 1
        assert merges[0].target_level == 1
        assert {c.uid for c in merges[0].inputs} == {1, 2, 3}

    def test_merge_into_last_level_absorbs_resident(self, policy):
        components = [comp(i, 1, 3) for i in (1, 2, 3)] + [comp(9, 2, 100)]
        tree = TreeSnapshot(components)
        merges = policy.select_merges(tree, UidAllocator())
        assert len(merges) == 1
        assert merges[0].target_level == 2
        assert {c.uid for c in merges[0].inputs} == {1, 2, 3, 9}

    def test_last_level_merge_blocked_while_resident_busy(self, policy):
        resident = comp(9, 2, 100, merging=True)
        components = [comp(i, 1, 3) for i in (1, 2, 3)] + [resident]
        tree = TreeSnapshot(components)
        assert policy.select_merges(tree, UidAllocator()) == []

    def test_one_merge_per_level(self, policy):
        components = [comp(i, 0, 1) for i in (1, 2, 3, 4, 5, 6)]
        merges = policy.select_merges(TreeSnapshot(components), UidAllocator())
        assert len(merges) == 1  # oldest three; level 0 now busy

    def test_expected_components(self, policy):
        assert policy.expected_components() == 3 * 2 + 1

    def test_resting_maximum_is_the_fullest_tree_with_no_merge(self, policy):
        resting = [
            comp(level * 2 + i, level, 3**level) for level in (0, 1) for i in (1, 2)
        ]
        resting.append(comp(9, 2, 100))
        assert len(resting) == policy.resting_components() == 2 * 2 + 1
        assert policy.select_merges(TreeSnapshot(resting), UidAllocator()) == []
        one_more = TreeSnapshot(resting + [comp(99, 0, 1)])
        assert len(policy.select_merges(one_more, UidAllocator())) == 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LazyLevelingPolicy(1, 3)
        with pytest.raises(ConfigurationError):
            LazyLevelingPolicy(3, 1)


class TestLazyLevelingEndToEnd:
    def test_two_phase_is_sustainable(self):
        from repro.harness import ExperimentSpec, two_phase

        outcome = two_phase(
            ExperimentSpec.lazy_leveling(scale=512.0).with_(
                testing_duration=2400.0, running_duration=2400.0, warmup=300.0
            )
        )
        assert outcome.max_write_throughput > 0
        assert outcome.running.stall_count() == 0

    def test_write_throughput_between_leveling_and_tiering(self):
        from repro.harness import ExperimentSpec
        from repro.harness import testing_phase as measure_max

        fast = dict(testing_duration=2400.0, warmup=300.0)
        lazy_w, _ = measure_max(
            ExperimentSpec.lazy_leveling(scale=512.0).with_(**fast)
        )
        level_w, _ = measure_max(
            ExperimentSpec.leveling(scale=512.0).with_(**fast)
        )
        # lazy leveling's write cost is close to tiering's, far above
        # leveling's (the Dostoevsky trade-off)
        assert lazy_w > 1.5 * level_w
