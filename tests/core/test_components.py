"""Tests for component metadata, merge descriptors and tree snapshots."""

import pytest

from repro.core import Component, MergeDescriptor, TreeSnapshot, UidAllocator
from repro.errors import PolicyError


def make_component(uid, level=0, size=1000.0, lo=0.0, hi=1.0):
    return Component(
        uid=uid, level=level, size_bytes=size, entry_count=size / 10, key_lo=lo, key_hi=hi
    )


class TestComponent:
    def test_key_width(self):
        assert make_component(1, lo=0.25, hi=0.75).key_width == pytest.approx(0.5)

    def test_overlap_detection(self):
        a = make_component(1, lo=0.0, hi=0.5)
        b = make_component(2, lo=0.5, hi=1.0)
        c = make_component(3, lo=0.4, hi=0.6)
        assert not a.overlaps(b)  # touching ranges do not overlap
        assert a.overlaps(c)
        assert c.overlaps(b)


class TestMergeDescriptor:
    def test_marks_inputs_merging(self):
        inputs = [make_component(1), make_component(2)]
        merge = MergeDescriptor(uid=10, inputs=inputs, target_level=1)
        assert all(c.merging for c in inputs)
        assert merge.remaining_input_bytes == merge.input_bytes

    def test_release_inputs(self):
        inputs = [make_component(1)]
        merge = MergeDescriptor(uid=10, inputs=inputs, target_level=1)
        merge.release_inputs()
        assert not inputs[0].merging

    def test_rejects_already_merging_component(self):
        shared = make_component(1)
        MergeDescriptor(uid=10, inputs=[shared], target_level=1)
        with pytest.raises(PolicyError):
            MergeDescriptor(uid=11, inputs=[shared], target_level=1)

    def test_rejects_duplicate_component(self):
        c = make_component(1)
        with pytest.raises(PolicyError):
            MergeDescriptor(uid=10, inputs=[c, c], target_level=1)

    def test_rejects_empty_inputs(self):
        with pytest.raises(PolicyError):
            MergeDescriptor(uid=10, inputs=[], target_level=1)

    def test_progress_tracks_remaining(self):
        merge = MergeDescriptor(
            uid=1, inputs=[make_component(1, size=100.0)], target_level=1
        )
        assert merge.progress == 0.0
        merge.remaining_input_bytes = 25.0
        assert merge.progress == pytest.approx(0.75)


class TestTreeSnapshot:
    @pytest.fixture
    def snapshot(self):
        components = [
            make_component(1, level=0),
            make_component(2, level=0),
            make_component(3, level=1, lo=0.0, hi=0.5),
            make_component(4, level=1, lo=0.5, hi=1.0),
            make_component(5, level=2),
        ]
        components[1].merging = True
        return TreeSnapshot(components)

    def test_counts(self, snapshot):
        assert snapshot.count() == 5
        assert snapshot.count_at(0) == 2
        assert snapshot.count_at(3) == 0

    def test_levels_listing(self, snapshot):
        assert snapshot.levels() == [0, 1, 2]

    def test_mergeable_excludes_merging(self, snapshot):
        assert [c.uid for c in snapshot.mergeable(0)] == [1]

    def test_overlapping_sorted_by_range(self, snapshot):
        hits = snapshot.overlapping(1, 0.4, 0.9)
        assert [c.uid for c in hits] == [3, 4]

    def test_overlapping_excludes_touching(self, snapshot):
        hits = snapshot.overlapping(1, 0.5, 0.9)
        assert [c.uid for c in hits] == [4]

    def test_bytes_at(self, snapshot):
        assert snapshot.bytes_at(1) == pytest.approx(2000.0)

    def test_empty_tree(self):
        snapshot = TreeSnapshot([])
        assert snapshot.count() == 0
        assert snapshot.levels() == []


class TestUidAllocator:
    def test_monotonic_unique(self):
        uids = UidAllocator()
        values = [uids.next() for _ in range(100)]
        assert values == sorted(set(values))
