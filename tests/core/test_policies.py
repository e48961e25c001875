"""Tests for the four merge policies over synthetic tree snapshots."""

import pytest

from repro.core import (
    Component,
    LevelingPolicy,
    PartitionedLevelingPolicy,
    SizeTieredPolicy,
    TieringPolicy,
    TreeSnapshot,
    UidAllocator,
)
from repro.errors import ConfigurationError

MB = 2**20


def comp(uid, level, size_mb, lo=0.0, hi=1.0, merging=False):
    c = Component(
        uid=uid,
        level=level,
        size_bytes=size_mb * MB,
        entry_count=size_mb * 1024,
        key_lo=lo,
        key_hi=hi,
    )
    c.merging = merging
    return c


class TestLevelingPolicy:
    @pytest.fixture
    def policy(self):
        return LevelingPolicy(size_ratio=10, levels=3, memory_bytes=1 * MB)

    def test_capacities_grow_geometrically(self, policy):
        assert policy.level_capacity_bytes(1) == 10 * MB
        assert policy.level_capacity_bytes(2) == 100 * MB
        assert policy.level_capacity_bytes(3) == 1000 * MB

    def test_dynamic_level_sizes(self):
        policy = LevelingPolicy(10, 3, 1 * MB, last_level_bytes=800 * MB)
        assert policy.level_capacity_bytes(3) == 800 * MB
        assert policy.level_capacity_bytes(2) == 80 * MB

    def test_flush_triggers_l0_merge_with_level1(self, policy):
        tree = TreeSnapshot([comp(1, 0, 1), comp(2, 1, 5)])
        merges = policy.select_merges(tree, UidAllocator())
        assert len(merges) == 1
        assert {c.uid for c in merges[0].inputs} == {1, 2}
        assert merges[0].target_level == 1

    def test_absorbs_one_flushed_run_at_a_time(self, policy):
        tree = TreeSnapshot([comp(1, 0, 1), comp(2, 0, 1), comp(3, 1, 5)])
        merges = policy.select_merges(tree, UidAllocator())
        assert len(merges) == 1
        assert {c.uid for c in merges[0].inputs} == {1, 3}

    def test_no_absorb_when_level1_over_capacity(self, policy):
        tree = TreeSnapshot([comp(1, 0, 1), comp(2, 1, 12), comp(3, 2, 50)])
        merges = policy.select_merges(tree, UidAllocator())
        # instead of absorbing the flush, level 1 merges down
        assert len(merges) == 1
        assert merges[0].target_level == 2
        assert {c.uid for c in merges[0].inputs} == {2, 3}

    def test_forms_fresh_level1_while_old_merges_down(self, policy):
        old_l1 = comp(2, 1, 12, merging=True)
        tree = TreeSnapshot([comp(1, 0, 1), old_l1])
        active_stub = [
            type("M", (), {"target_level": 2, "inputs": [old_l1]})()
        ]
        merges = policy.select_merges(tree, UidAllocator(), active_stub)
        assert len(merges) == 1
        assert merges[0].target_level == 1
        assert [c.uid for c in merges[0].inputs] == [1]

    def test_no_duplicate_merge_for_busy_target(self, policy):
        tree = TreeSnapshot([comp(1, 0, 1), comp(2, 1, 5)])
        uids = UidAllocator()
        first = policy.select_merges(tree, uids)
        again = policy.select_merges(tree, uids, first)
        assert again == []

    def test_last_level_never_merges_down(self, policy):
        tree = TreeSnapshot([comp(1, 3, 5000)])
        assert policy.select_merges(tree, UidAllocator()) == []

    def test_resting_maximum_is_the_fullest_tree_with_no_merge(self, policy):
        resting = [comp(1, 1, 5), comp(2, 2, 50), comp(3, 3, 500)]
        assert len(resting) == policy.resting_components() == 3
        assert policy.select_merges(TreeSnapshot(resting), UidAllocator()) == []
        one_more = TreeSnapshot(resting + [comp(9, 0, 1)])
        assert len(policy.select_merges(one_more, UidAllocator())) == 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LevelingPolicy(1, 3, MB)
        with pytest.raises(ConfigurationError):
            LevelingPolicy(10, 0, MB)
        with pytest.raises(ConfigurationError):
            LevelingPolicy(10, 3, MB).level_capacity_bytes(4)


class TestTieringPolicy:
    @pytest.fixture
    def policy(self):
        return TieringPolicy(size_ratio=3, levels=4)

    def test_merge_triggered_at_t_components(self, policy):
        tree = TreeSnapshot([comp(i, 0, 1) for i in (1, 2, 3)])
        merges = policy.select_merges(tree, UidAllocator())
        assert len(merges) == 1
        assert {c.uid for c in merges[0].inputs} == {1, 2, 3}
        assert merges[0].target_level == 1

    def test_not_triggered_below_t(self, policy):
        tree = TreeSnapshot([comp(1, 0, 1), comp(2, 0, 1)])
        assert policy.select_merges(tree, UidAllocator()) == []

    def test_merges_oldest_t_when_more_accumulate(self, policy):
        tree = TreeSnapshot([comp(i, 0, 1) for i in range(1, 6)])
        merges = policy.select_merges(tree, UidAllocator())
        assert len(merges) == 1
        assert {c.uid for c in merges[0].inputs} == {1, 2, 3}

    def test_one_merge_per_level(self, policy):
        components = [comp(i, 0, 1) for i in range(1, 4)]
        components += [comp(i, 1, 3) for i in range(4, 7)]
        tree = TreeSnapshot(components)
        merges = policy.select_merges(tree, UidAllocator())
        assert len(merges) == 2
        assert {m.target_level for m in merges} == {1, 2}

    def test_last_level_merges_in_place(self, policy):
        tree = TreeSnapshot([comp(i, 3, 27) for i in (1, 2, 3)])
        merges = policy.select_merges(tree, UidAllocator())
        assert len(merges) == 1
        assert merges[0].target_level == 3

    def test_expected_components(self, policy):
        assert policy.expected_components() == 12

    def test_resting_maximum_is_the_fullest_tree_with_no_merge(self, policy):
        resting = [
            comp(level * 2 + i, level, 3**level) for level in range(4) for i in (1, 2)
        ]
        assert len(resting) == policy.resting_components() == 8
        assert policy.select_merges(TreeSnapshot(resting), UidAllocator()) == []
        one_more = TreeSnapshot(resting + [comp(99, 0, 1)])
        assert len(policy.select_merges(one_more, UidAllocator())) == 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TieringPolicy(1, 3)


class TestSizeTieredPolicy:
    @pytest.fixture
    def policy(self):
        # Figure 18's parameters: T=1.2, min 2, max 4
        return SizeTieredPolicy(size_ratio=1.2, min_merge=2, max_merge=4)

    def test_figure18_example(self, policy):
        """The worked example of Section 5.3 / Figure 18."""
        sizes = [100 * 1024, 10 * 1024, 8 * 1024, 6 * 1024, 5 * 1024,
                 1024, 128, 100, 64]
        tree = TreeSnapshot(
            [comp(i + 1, 0, size / 1024) for i, size in enumerate(sizes)]
        )
        merges = policy.select_merges(tree, UidAllocator())
        assert len(merges) == 2
        # first merge: the 4 components from 10GB to 5GB
        assert [c.uid for c in merges[0].inputs] == [2, 3, 4, 5]
        # second merge: from 128MB on (1GB is too large for its window)
        assert [c.uid for c in merges[1].inputs] == [7, 8, 9]

    def test_oldest_huge_component_not_merged(self, policy):
        tree = TreeSnapshot([comp(1, 0, 100), comp(2, 0, 1)])
        merges = policy.select_merges(tree, UidAllocator())
        assert merges == []

    def test_equal_sizes_merge_up_to_max(self, policy):
        tree = TreeSnapshot([comp(i, 0, 1) for i in range(1, 7)])
        merges = policy.select_merges(tree, UidAllocator())
        assert len(merges[0].inputs) == 4  # first window capped at max_merge
        # the remaining pair forms a second merge in the same execution
        assert [len(m.inputs) for m in merges[1:]] == [2]

    def test_always_min_mode_merges_exactly_min(self, policy):
        fixed = policy.with_always_min(True)
        tree = TreeSnapshot([comp(i, 0, 1) for i in range(1, 7)])
        merges = fixed.select_merges(tree, UidAllocator())
        assert all(len(m.inputs) == 2 for m in merges)

    def test_skips_merging_runs(self, policy):
        components = [comp(1, 0, 1), comp(2, 0, 1, merging=True), comp(3, 0, 1),
                      comp(4, 0, 1)]
        tree = TreeSnapshot(components)
        merges = policy.select_merges(tree, UidAllocator())
        assert len(merges) == 1
        assert {c.uid for c in merges[0].inputs} == {3, 4}

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SizeTieredPolicy(size_ratio=0.9)
        with pytest.raises(ConfigurationError):
            SizeTieredPolicy(min_merge=1)
        with pytest.raises(ConfigurationError):
            SizeTieredPolicy(min_merge=5, max_merge=4)


class TestPartitionedLevelingPolicy:
    @pytest.fixture
    def policy(self):
        return PartitionedLevelingPolicy(
            size_ratio=10,
            levels=3,
            level1_target_bytes=10 * MB,
            max_file_bytes=2 * MB,
            l0_min_merge=4,
        )

    def level1_files(self, start_uid=10, count=5, size_mb=2.0):
        width = 1.0 / count
        return [
            comp(start_uid + i, 1, size_mb, lo=i * width, hi=(i + 1) * width)
            for i in range(count)
        ]

    def test_l0_score_triggers_merge_of_all_runs(self, policy):
        components = [comp(i, 0, 1) for i in range(1, 7)] + self.level1_files()
        tree = TreeSnapshot(components)
        merges = policy.select_merges(tree, UidAllocator())
        assert len(merges) == 1
        # elastic mode: all six L0 runs plus every overlapping L1 file
        l0_inputs = [c for c in merges[0].inputs if c.level == 0]
        assert len(l0_inputs) == 6

    def test_l0_exact_mode_merges_exactly_min(self, policy):
        fixed = policy.with_l0_exact(True)
        components = [comp(i, 0, 1) for i in range(1, 7)] + self.level1_files()
        tree = TreeSnapshot(components)
        merges = fixed.select_merges(tree, UidAllocator())
        l0_inputs = [c for c in merges[0].inputs if c.level == 0]
        assert len(l0_inputs) == 4

    def test_below_min_no_l0_merge(self, policy):
        tree = TreeSnapshot([comp(i, 0, 1) for i in (1, 2, 3)])
        assert policy.select_merges(tree, UidAllocator()) == []

    def test_overfull_level_selects_file_with_overlaps(self, policy):
        l1 = self.level1_files(count=6, size_mb=2.0)  # 12MB > 10MB target
        l2 = [comp(50 + i, 2, 2.0, lo=i * 0.25, hi=(i + 1) * 0.25) for i in range(4)]
        tree = TreeSnapshot(l1 + l2)
        merges = policy.select_merges(tree, UidAllocator())
        assert len(merges) == 1
        assert merges[0].target_level == 2
        picked = [c for c in merges[0].inputs if c.level == 1]
        assert len(picked) == 1
        overlaps = [c for c in merges[0].inputs if c.level == 2]
        assert all(c.overlaps(picked[0]) for c in overlaps)

    def test_round_robin_advances_cursor(self, policy):
        l1 = self.level1_files(count=6, size_mb=2.0)
        l2 = [comp(50 + i, 2, 2.0, lo=i * 0.25, hi=(i + 1) * 0.25) for i in range(4)]
        tree = TreeSnapshot(l1 + l2)
        first = policy.select_merges(tree, UidAllocator())
        first_file = [c for c in first[0].inputs if c.level == 1][0]
        # rebuild a fresh snapshot (previous merge released? simulate done)
        for m in first:
            m.release_inputs()
        second = policy.select_merges(tree, UidAllocator())
        second_file = [c for c in second[0].inputs if c.level == 1][0]
        assert second_file.key_lo >= first_file.key_hi

    def test_choose_best_picks_fewest_overlaps(self):
        policy = PartitionedLevelingPolicy(
            size_ratio=10,
            levels=3,
            level1_target_bytes=10 * MB,
            max_file_bytes=2 * MB,
            selection="choose-best",
        )
        l1 = [
            comp(10, 1, 6.0, lo=0.0, hi=0.5),
            comp(11, 1, 6.0, lo=0.5, hi=1.0),
        ]
        l2 = [
            comp(20, 2, 2.0, lo=0.0, hi=0.1),
            comp(21, 2, 2.0, lo=0.1, hi=0.2),
            comp(22, 2, 2.0, lo=0.2, hi=0.3),
            comp(23, 2, 2.0, lo=0.6, hi=0.9),
        ]
        tree = TreeSnapshot(l1 + l2)
        merges = policy.select_merges(tree, UidAllocator())
        picked = [c for c in merges[0].inputs if c.level == 1][0]
        assert picked.uid == 11  # one overlap beats three

    def test_single_compaction_at_a_time(self, policy):
        components = [comp(i, 0, 1) for i in range(1, 7)]
        tree = TreeSnapshot(components)
        uids = UidAllocator()
        first = policy.select_merges(tree, uids)
        assert policy.select_merges(tree, uids, first) == []

    def test_last_level_never_merges(self, policy):
        l3 = [comp(90 + i, 3, 50.0, lo=i * 0.1, hi=(i + 1) * 0.1) for i in range(10)]
        tree = TreeSnapshot(l3)
        assert policy.select_merges(tree, UidAllocator()) == []

    def test_scores(self, policy):
        components = [comp(i, 0, 1) for i in (1, 2)] + self.level1_files()
        tree = TreeSnapshot(components)
        scores = policy.scores(tree)
        assert scores[0] == pytest.approx(0.5)
        assert scores[1] == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PartitionedLevelingPolicy(10, 3, 10 * MB, 2 * MB, selection="random")
