"""Merge schedulers and the runtime design choices of Section 4.1.

A complete runtime configuration is a triple:

* a :class:`MergeScheduler` (bandwidth allocation),
* a :class:`ComponentConstraint` (when writes must stall),
* a :class:`WriteControl` (how writes behave before the stall).
"""

from ...errors import ConfigurationError
from .base import Allocation, MergeScheduler
from .blsm import SpringGearControl, SpringGearScheduler
from .constraints import (
    ComponentConstraint,
    GlobalComponentConstraint,
    LevelZeroConstraint,
    LocalComponentConstraint,
)
from .fair import FairScheduler
from .greedy import GreedyScheduler
from .single import SingleThreadedScheduler
from .write_control import (
    RateLimitControl,
    SlowdownControl,
    StopControl,
    WriteControl,
)


def scheduler_by_name(name: str) -> MergeScheduler:
    """The scheduler a configuration names — ``single``, ``fair``,
    ``greedy``, or ``greedy-<k>`` for at most ``k`` concurrent merges —
    for the engine, the simulator harness and the cluster's arbiter."""
    if name == "single":
        return SingleThreadedScheduler()
    if name == "fair":
        return FairScheduler()
    if name == "greedy":
        return GreedyScheduler()
    head, _, concurrency = name.partition("-")
    if head == "greedy" and concurrency.isdigit():
        return GreedyScheduler(concurrency=int(concurrency))
    raise ConfigurationError(f"unknown scheduler {name!r}")


__all__ = [
    "Allocation",
    "ComponentConstraint",
    "FairScheduler",
    "GlobalComponentConstraint",
    "GreedyScheduler",
    "LevelZeroConstraint",
    "LocalComponentConstraint",
    "MergeScheduler",
    "RateLimitControl",
    "SingleThreadedScheduler",
    "SlowdownControl",
    "SpringGearControl",
    "SpringGearScheduler",
    "StopControl",
    "WriteControl",
    "scheduler_by_name",
]
