"""Merge schedulers and the runtime design choices of Section 4.1.

A complete runtime configuration is a triple:

* a :class:`MergeScheduler` (bandwidth allocation),
* a :class:`ComponentConstraint` (when writes must stall),
* a :class:`WriteControl` (how writes behave before the stall).
"""

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
]
