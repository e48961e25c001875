"""Names to objects: the one place a policy, scheduler, constraint or
write-control name becomes the object that decides. The engine
(``StoreOptions``), the serving tier's admission, the simulator harness
(``ExperimentSpec``) and the CLI all build through the functions here,
so a name means the same object on every substrate; naming a new one is
one entry in a table here.
"""

from __future__ import annotations

import math

from ..errors import ConfigurationError
from . import model
from .policies import (
    LazyLevelingPolicy,
    LevelingPolicy,
    MergePolicy,
    PartitionedLevelingPolicy,
    SizeTieredPolicy,
    TieringPolicy,
)
from .schedulers import (
    ComponentConstraint,
    FairScheduler,
    GlobalComponentConstraint,
    GreedyScheduler,
    LevelZeroConstraint,
    LocalComponentConstraint,
    MergeScheduler,
    RateLimitControl,
    SingleThreadedScheduler,
    SlowdownControl,
    SpringGearControl,
    SpringGearScheduler,
    StopControl,
    WriteControl,
)

#: name -> policy from (size ratio T, disk levels, memory component bytes).
_POLICIES = {
    "tiering": lambda t, levels, memory: TieringPolicy(t, levels),
    "leveling": LevelingPolicy,
    "lazy-leveling": lambda t, levels, memory: LazyLevelingPolicy(t, levels),
    # HBase's defaults (Section 5.3): 2-10 components per merge.
    "size-tiered": lambda t, levels, memory: SizeTieredPolicy(t),
    # LevelDB's shape (Section 6): a level-1 target of ten memory
    # components, files of half of one (64 MB of 128 MB).
    "partitioned": lambda t, levels, memory: PartitionedLevelingPolicy(
        t, levels, level1_target_bytes=10 * memory, max_file_bytes=memory / 2
    ),
}

#: Policies whose levels hold ``T`` components each: ``T`` is a count.
_WHOLE_RATIO = ("tiering", "lazy-leveling")


def level_capacities(policy: MergePolicy) -> dict[int, float]:
    """Level capacities of a leveled tree (none for any other), which
    bLSM's spring-and-gear paces merges and writes by."""
    if not isinstance(policy, LevelingPolicy):
        return {}
    return {
        level: policy.level_capacity_bytes(level)
        for level in range(1, policy.levels + 1)
    }


#: name -> scheduler for a policy's tree.
_SCHEDULERS = {
    "single": lambda policy: SingleThreadedScheduler(),
    "fair": lambda policy: FairScheduler(),
    "greedy": lambda policy: GreedyScheduler(),
    "spring": lambda policy: SpringGearScheduler(level_capacities(policy)),
}


def _local_bound(policy: MergePolicy, factor: float) -> int:
    """``factor`` times the components a level holds in steady state:
    ``T`` under tiering, one otherwise."""
    per_level = policy.size_ratio if isinstance(policy, TieringPolicy) else 1
    return int(math.ceil(factor * per_level))


#: name -> (constraint class, its bound derived from policy and factor).
_CONSTRAINTS = {
    "global": (
        GlobalComponentConstraint,
        lambda policy, factor: model.default_component_limit(
            policy.expected_components(), factor
        ),
    ),
    "local": (LocalComponentConstraint, _local_bound),
    # LevelDB's level-0 stop trigger.
    "level0": (LevelZeroConstraint, lambda policy, factor: 12),
}

#: name -> write control from (rate, start fraction, policy, entry bytes).
_CONTROLS = {
    "stop": lambda rate, start, policy, entry_bytes: StopControl(),
    "limit": lambda rate, start, policy, entry_bytes: RateLimitControl(rate),
    "slowdown": lambda rate, start, policy, entry_bytes: SlowdownControl(
        rate, start
    ),
    "spring": lambda rate, start, policy, entry_bytes: SpringGearControl(
        entry_bytes, level_capacities(policy)
    ),
}

#: The legal names; ``greedy-<k>`` is greedy with at most ``k`` merges.
POLICIES = tuple(_POLICIES)
SCHEDULERS = (*_SCHEDULERS, "greedy-<k>")
CONSTRAINTS = tuple(_CONSTRAINTS)
CONTROLS = tuple(_CONTROLS)


def _lookup(table: dict, name: str, kind: str, known: tuple[str, ...]):
    if name not in table:
        raise ConfigurationError(
            f"unknown {kind} {name!r}; known: {', '.join(known)}"
        )
    return table[name]


def build_policy(
    name: str, size_ratio: float, levels: int, memory_bytes: float
) -> MergePolicy:
    """The merge policy ``name`` (each ignores what it does not use);
    tiering and lazy leveling refuse a fractional size ratio."""
    build = _lookup(_POLICIES, name, "policy", POLICIES)
    if name in _WHOLE_RATIO and size_ratio != int(size_ratio):
        raise ConfigurationError(
            f"{name} needs a whole size ratio, got {size_ratio}"
        )
    return build(size_ratio, levels, memory_bytes)


def build_scheduler(name: str, policy: MergePolicy) -> MergeScheduler:
    """The merge scheduler ``name`` for ``policy``'s tree."""
    head, _, concurrency = name.partition("-")
    if head == "greedy" and concurrency.isdigit():
        return GreedyScheduler(concurrency=int(concurrency))
    return _lookup(_SCHEDULERS, name, "scheduler", SCHEDULERS)(policy)


def build_constraint(
    name: str, policy: MergePolicy, factor: float = 2.0, limit: int = 0
) -> ComponentConstraint:
    """The component constraint ``name`` bounded by ``limit``, or when
    that is 0, by a bound derived from ``policy``: ``factor`` times its
    expected components for ``global`` (Section 5.1.1)."""
    constraint, derive = _lookup(_CONSTRAINTS, name, "constraint", CONSTRAINTS)
    return constraint(limit or derive(policy, factor))


def build_control(
    name: str,
    rate: float = 0.0,
    start_fraction: float = 0.33,
    policy: MergePolicy | None = None,
    entry_bytes: float = 1.0,
) -> WriteControl:
    """The write control ``name`` (Section 5.1.2). ``rate`` is in whatever
    unit the caller counts (entries/s in the simulator, bytes/s on the
    wire): ``limit`` caps at it, ``slowdown`` ramps down from it once
    headroom falls below ``start_fraction``. ``spring`` gears writes to
    ``policy``'s level capacities, counted in entries of ``entry_bytes``."""
    build = _lookup(_CONTROLS, name, "write control", CONTROLS)
    if name == "spring" and policy is None:
        raise ConfigurationError("spring gears writes to a policy's levels")
    return build(rate, start_fraction, policy, entry_bytes)
