"""Tests for component constraints and write controls."""

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core import (
    Component,
    GlobalComponentConstraint,
    LevelZeroConstraint,
    LocalComponentConstraint,
    RateLimitControl,
    SlowdownControl,
    SpringGearControl,
    StopControl,
    TreeSnapshot,
)
from repro.core.components import MergeDescriptor
from repro.errors import ConfigurationError


def tree_with(counts: dict[int, int]) -> TreeSnapshot:
    components = []
    uid = 1
    for level, count in counts.items():
        for _ in range(count):
            components.append(
                Component(uid=uid, level=level, size_bytes=100.0, entry_count=1)
            )
            uid += 1
    return TreeSnapshot(components)


class TestGlobalConstraint:
    def test_violation_at_limit(self):
        constraint = GlobalComponentConstraint(5)
        assert not constraint.is_violated(tree_with({0: 2, 1: 2}))
        assert constraint.is_violated(tree_with({0: 3, 1: 2}))

    def test_headroom(self):
        constraint = GlobalComponentConstraint(10)
        assert constraint.headroom(tree_with({})) == 1.0
        assert constraint.headroom(tree_with({0: 5})) == pytest.approx(0.5)
        assert constraint.headroom(tree_with({0: 12})) == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            GlobalComponentConstraint(0)


class TestLocalConstraint:
    def test_any_level_can_violate(self):
        constraint = LocalComponentConstraint(2)
        assert not constraint.is_violated(tree_with({0: 1, 1: 1, 2: 1}))
        assert constraint.is_violated(tree_with({0: 1, 1: 2}))

    def test_global_spread_does_not_violate_local(self):
        constraint = LocalComponentConstraint(3)
        # nine components spread thinly: no level hits the local cap
        assert not constraint.is_violated(
            tree_with({level: 1 for level in range(9)})
        )

    def test_headroom_uses_worst_level(self):
        constraint = LocalComponentConstraint(4)
        assert constraint.headroom(tree_with({0: 1, 1: 3})) == pytest.approx(0.25)


class TestLevelZeroConstraint:
    def test_only_level0_counts(self):
        constraint = LevelZeroConstraint(stop=3)
        assert not constraint.is_violated(tree_with({1: 50}))
        assert constraint.is_violated(tree_with({0: 3}))

    def test_headroom(self):
        constraint = LevelZeroConstraint(stop=4)
        assert constraint.headroom(tree_with({0: 1})) == pytest.approx(0.75)


@given(
    counts=st.dictionaries(
        st.integers(0, 5), st.integers(0, 14), max_size=6
    ),
    bound=st.integers(1, 12),
)
@example(counts={}, bound=1)
def test_headroom_is_zero_exactly_when_violated(counts, bound):
    """The wire feeds a write control only the engine's headroom, so
    ``headroom == 0`` must mean violated — for every constraint, on any
    tree, the empty tree included."""
    tree = tree_with(counts)
    for constraint in (
        GlobalComponentConstraint(bound),
        LocalComponentConstraint(bound),
        LevelZeroConstraint(bound),
    ):
        assert (constraint.headroom(tree) == 0.0) == constraint.is_violated(
            tree
        ), constraint


class TestStopControl:
    def test_full_speed_until_violation(self):
        control = StopControl()
        constraint = GlobalComponentConstraint(3)
        assert math.isinf(control.admission_rate(tree_with({0: 2}), constraint))
        assert control.admission_rate(tree_with({0: 3}), constraint) == 0.0


class TestRateLimitControl:
    def test_caps_rate(self):
        control = RateLimitControl(4000.0)
        constraint = GlobalComponentConstraint(10)
        assert control.admission_rate(tree_with({0: 1}), constraint) == 4000.0
        assert control.admission_rate(tree_with({0: 10}), constraint) == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RateLimitControl(0.0)
        with pytest.raises(ConfigurationError):
            RateLimitControl(math.inf)


class TestSlowdownControl:
    def test_full_speed_with_headroom(self):
        control = SlowdownControl(base_rate=1000.0, start_fraction=0.5)
        constraint = GlobalComponentConstraint(10)
        assert math.isinf(control.admission_rate(tree_with({0: 2}), constraint))

    def test_ramp_down_near_limit(self):
        control = SlowdownControl(base_rate=1000.0, start_fraction=0.5)
        constraint = GlobalComponentConstraint(10)
        rate = control.admission_rate(tree_with({0: 8}), constraint)
        assert rate == pytest.approx(1000.0 * 0.2 / 0.5)

    def test_stop_at_violation(self):
        control = SlowdownControl(base_rate=1000.0)
        constraint = GlobalComponentConstraint(4)
        assert control.admission_rate(tree_with({0: 4}), constraint) == 0.0


class TestSpringGearControl:
    def test_unthrottled_without_merge_context(self):
        control = SpringGearControl(entry_bytes=1024.0)
        constraint = GlobalComponentConstraint(10)
        assert math.isinf(
            control.admission_rate(tree_with({0: 1}), constraint)
        )

    def test_rate_tracks_absorbing_merge(self):
        control = SpringGearControl(entry_bytes=1.0)
        constraint = GlobalComponentConstraint(100)
        flushed = Component(uid=1, level=0, size_bytes=100.0, entry_count=100)
        level1 = Component(uid=2, level=1, size_bytes=300.0, entry_count=300)
        merge = MergeDescriptor(uid=7, inputs=[flushed, level1], target_level=1)
        rate = control.admission_rate(
            tree_with({}), constraint, [merge], {7: 40.0}
        )
        # 40 B/s total, level-0 share is 100/400 -> 10 entries/s
        assert rate == pytest.approx(10.0)

    def test_paused_merge_throttles_to_near_zero(self):
        control = SpringGearControl(entry_bytes=1.0)
        constraint = GlobalComponentConstraint(100)
        flushed = Component(uid=1, level=0, size_bytes=100.0, entry_count=100)
        merge = MergeDescriptor(uid=7, inputs=[flushed], target_level=1)
        rate = control.admission_rate(tree_with({}), constraint, [merge], {})
        assert rate <= 1e-6
