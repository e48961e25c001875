"""Tests for :mod:`repro.core.factory`: the one place a policy, scheduler
or constraint name becomes an object, for the engine and the simulator."""

import pytest

from repro.core import (
    FairScheduler,
    GlobalComponentConstraint,
    GreedyScheduler,
    LazyLevelingPolicy,
    LevelZeroConstraint,
    LocalComponentConstraint,
    SingleThreadedScheduler,
    SpringGearScheduler,
    TieringPolicy,
)
from repro.core.factory import (
    POLICIES,
    build_constraint,
    build_policy,
    build_scheduler,
)
from repro.errors import ConfigurationError

MEMORY = float(2**20)


@pytest.fixture
def policy():
    return build_policy("leveling", 10, 3, MEMORY)


class TestBuildPolicy:
    @pytest.mark.parametrize("name", POLICIES)
    def test_every_name_builds(self, name):
        assert build_policy(name, 3, 4, MEMORY).expected_components() >= 1

    def test_tiered_policies_take_whole_ratios(self):
        assert isinstance(build_policy("tiering", 3.0, 4, MEMORY), TieringPolicy)
        assert isinstance(
            build_policy("lazy-leveling", 3.0, 4, MEMORY), LazyLevelingPolicy
        )
        for name in ("tiering", "lazy-leveling"):
            with pytest.raises(ConfigurationError, match="whole size ratio"):
                build_policy(name, 2.7, 4, MEMORY)

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown policy"):
            build_policy("btree", 3, 4, MEMORY)


class TestBuildScheduler:
    def test_names(self, policy):
        assert isinstance(build_scheduler("single", policy),
                          SingleThreadedScheduler)
        assert isinstance(build_scheduler("fair", policy), FairScheduler)
        assert isinstance(build_scheduler("greedy", policy), GreedyScheduler)

    def test_greedy_k_parses_concurrency(self, policy):
        scheduler = build_scheduler("greedy-4", policy)
        assert isinstance(scheduler, GreedyScheduler)
        assert scheduler.concurrency == 4

    def test_spring_gets_level_capacities(self, policy):
        scheduler = build_scheduler("spring", policy)
        assert isinstance(scheduler, SpringGearScheduler)

    def test_unknown_rejected(self, policy):
        for name in ("lottery", "greedy-", "greedy-x", "greedy-0"):
            with pytest.raises(ConfigurationError):
                build_scheduler(name, policy)


class TestBuildConstraint:
    def test_global_uses_double_expected(self, policy):
        constraint = build_constraint("global", policy)
        assert isinstance(constraint, GlobalComponentConstraint)
        assert constraint.limit == 2 * policy.expected_components()

    def test_explicit_limit_wins(self, policy):
        assert build_constraint("global", policy, limit=7).limit == 7

    def test_local_scales_with_tiering_ratio(self):
        tiering_policy = build_policy("tiering", 3, 4, MEMORY)
        constraint = build_constraint("local", tiering_policy)
        assert isinstance(constraint, LocalComponentConstraint)
        assert constraint.per_level == 2 * tiering_policy.size_ratio

    def test_local_for_leveling_is_two(self, policy):
        constraint = build_constraint("local", policy)
        assert constraint.per_level == 2

    def test_level0(self, policy):
        constraint = build_constraint("level0", policy)
        assert isinstance(constraint, LevelZeroConstraint)
        assert constraint.stop == 12

    def test_unknown_rejected(self, policy):
        with pytest.raises(ConfigurationError):
            build_constraint("per-key", policy)
