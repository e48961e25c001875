"""Shared fixtures: a small, fast testbed configuration."""

from __future__ import annotations

import sys

import pytest

from repro.sim import bench_config
from repro.workloads import KeyspaceModel, UniformKeys, ZipfianKeys


def pytest_addoption(parser):
    parser.addoption(
        "--switch-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="sys.setswitchinterval for the whole run: a small value "
        "(1e-5) switches threads often, to shake out tests that depend "
        "on thread timing",
    )


def pytest_configure(config):
    interval = config.getoption("--switch-interval")
    if interval is not None:
        sys.setswitchinterval(interval)


@pytest.fixture
def config():
    """A heavily scaled testbed: fast enough for unit-level simulation."""
    return bench_config(512)


@pytest.fixture
def uniform_keyspace(config):
    """Uniform keyspace model matching the small config."""
    return KeyspaceModel(UniformKeys(config.total_keys))


@pytest.fixture
def zipf_keyspace(config):
    """Zipfian keyspace model matching the small config."""
    return KeyspaceModel(ZipfianKeys(config.total_keys, 0.99))
