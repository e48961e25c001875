"""Tests for the harness' name-based factories (schedulers, constraints,
controls) and spec edge cases not covered by the two-phase tests."""


import pytest

from repro.core import (
    FairScheduler,
    GlobalComponentConstraint,
    GreedyScheduler,
    LevelZeroConstraint,
    LocalComponentConstraint,
    RateLimitControl,
    SingleThreadedScheduler,
    SlowdownControl,
    SpringGearControl,
    SpringGearScheduler,
    StopControl,
)
from repro.errors import ConfigurationError
from repro.harness import ExperimentSpec, make_constraint, make_control, make_scheduler
from repro.sim import bench_config


@pytest.fixture
def policy():
    return ExperimentSpec.leveling(scale=512.0).policy_factory()


@pytest.fixture
def config():
    return bench_config(512.0)


class TestMakeScheduler:
    def test_names(self, policy, config):
        assert isinstance(make_scheduler("single", policy, config),
                          SingleThreadedScheduler)
        assert isinstance(make_scheduler("fair", policy, config), FairScheduler)
        assert isinstance(make_scheduler("greedy", policy, config),
                          GreedyScheduler)

    def test_greedy_k_parses_concurrency(self, policy, config):
        scheduler = make_scheduler("greedy-4", policy, config)
        assert isinstance(scheduler, GreedyScheduler)
        assert scheduler.concurrency == 4

    def test_spring_gets_level_capacities(self, policy, config):
        scheduler = make_scheduler("spring", policy, config)
        assert isinstance(scheduler, SpringGearScheduler)

    def test_unknown_rejected(self, policy, config):
        for name in ("lottery", "greedy-", "greedy-x", "greedy-0"):
            with pytest.raises(ConfigurationError):
                make_scheduler(name, policy, config)


class TestMakeConstraint:
    def test_global_uses_double_expected(self, policy):
        constraint = make_constraint("global", policy)
        assert isinstance(constraint, GlobalComponentConstraint)
        assert constraint.limit == 2 * policy.expected_components()

    def test_local_scales_with_tiering_ratio(self):
        tiering_policy = ExperimentSpec.tiering(scale=512.0).policy_factory()
        constraint = make_constraint("local", tiering_policy)
        assert isinstance(constraint, LocalComponentConstraint)
        assert constraint.per_level == 2 * tiering_policy.size_ratio

    def test_local_for_leveling_is_two(self, policy):
        constraint = make_constraint("local", policy)
        assert constraint.per_level == 2

    def test_level0(self, policy):
        constraint = make_constraint("level0", policy)
        assert isinstance(constraint, LevelZeroConstraint)
        assert constraint.stop == 12

    def test_unknown_rejected(self, policy):
        with pytest.raises(ConfigurationError):
            make_constraint("per-key", policy)


class TestMakeControl:
    def test_names(self, config):
        assert isinstance(make_control("stop", config), StopControl)
        assert isinstance(make_control("limit", config, rate=10.0),
                          RateLimitControl)
        assert isinstance(make_control("slowdown", config), SlowdownControl)
        assert isinstance(make_control("spring", config), SpringGearControl)

    def test_unknown_rejected(self, config):
        with pytest.raises(ConfigurationError):
            make_control("yolo", config)


class TestSpecEdgeCases:
    def test_custom_keyspace_factory_used(self):
        from repro.workloads import KeyspaceModel, UniformKeys

        sentinel = KeyspaceModel(UniformKeys(777))
        spec = ExperimentSpec.tiering(scale=512.0).with_(
            keyspace_factory=lambda: sentinel
        )
        assert spec.keyspace() is sentinel

    def test_utilization_flows_into_outcome(self):
        spec = ExperimentSpec.tiering(scale=512.0).with_(
            utilization=0.5,
            testing_duration=1200.0,
            running_duration=600.0,
            warmup=300.0,
        )
        from repro.harness import two_phase

        outcome = two_phase(spec)
        assert outcome.arrival_rate == pytest.approx(
            0.5 * outcome.max_write_throughput
        )

    def test_spec_names_describe_setup(self):
        assert "tiering-T3-greedy" == ExperimentSpec.tiering(scale=512.0).name
        assert "fixed" in ExperimentSpec.size_tiered(
            scale=512.0, testing_fix=True
        ).name
