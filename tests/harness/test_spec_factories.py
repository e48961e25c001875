"""Tests for the write-control factory and spec edge cases not covered
by the two-phase tests. Policies, schedulers and constraints are built
by :mod:`repro.core.factory` too (``tests/core/test_factory.py``)."""


import pytest

from repro.core import (
    RateLimitControl,
    SlowdownControl,
    SpringGearControl,
    StopControl,
)
from repro.core.factory import POLICIES, build_control, build_policy
from repro.errors import ConfigurationError
from repro.harness import ExperimentSpec
from repro.sim import bench_config


@pytest.fixture
def config():
    return bench_config(512.0)


class TestBuildControl:
    def test_names(self, config):
        leveling = build_policy("leveling", 10, 3, 1024.0)
        assert isinstance(build_control("stop"), StopControl)
        assert isinstance(build_control("limit", rate=10.0), RateLimitControl)
        assert isinstance(
            build_control("slowdown", rate=config.memory_write_rate),
            SlowdownControl,
        )
        spring = build_control(
            "spring", policy=leveling, entry_bytes=config.entry_bytes
        )
        assert isinstance(spring, SpringGearControl)
        # built by name, spring gets every level's gear, as the
        # ``spring`` scheduler and ``ExperimentSpec.blsm`` do
        assert "levels=[1, 2, 3]" in repr(spring)

    def test_unknown_rejected(self, config):
        with pytest.raises(ConfigurationError):
            build_control("yolo")
        with pytest.raises(ConfigurationError):
            build_control("limit")  # a limit needs its rate
        with pytest.raises(ConfigurationError):
            build_control("spring")  # and a spring its policy's levels


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

    @pytest.mark.parametrize("policy", POLICIES)
    def test_every_factory_policy_has_a_setup(self, policy):
        spec = ExperimentSpec.for_policy(
            policy, size_ratio=None, scheduler="fair", scale=512.0
        )
        assert spec.policy_factory().expected_components() >= 1

    def test_for_policy_rejects_unknown_names(self):
        with pytest.raises(ConfigurationError, match="unknown policy"):
            ExperimentSpec.for_policy("btree")
