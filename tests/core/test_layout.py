"""Tests for the per-level layout tiering, leveling and lazy leveling
share."""

import pytest

from repro.core import LazyLevelingPolicy, LevelingPolicy, TieringPolicy
from repro.core.policies.layout import LANDING, LEVELED, TIERED
from repro.errors import ConfigurationError

MB = 2**20


def test_each_policy_is_a_layout():
    assert TieringPolicy(3, 2).layout == (TIERED, TIERED)
    assert LevelingPolicy(10, 2, MB).layout == (LANDING, LEVELED, LEVELED)
    assert LazyLevelingPolicy(3, 3).layout == (TIERED, TIERED, LEVELED)


def test_only_a_tiered_level_needs_a_whole_ratio():
    assert TieringPolicy(3.0, 4).size_ratio == 3
    assert LevelingPolicy(2.5, 4, MB).level_capacity_bytes(2) == 6.25 * MB


def test_a_layout_needs_somewhere_to_merge():
    with pytest.raises(ConfigurationError, match="needs more levels"):
        LazyLevelingPolicy(3, 1)  # one leveled level, nothing below it
