"""Initial tree construction: the paper's 100-million-record load.

Every experiment in the paper first loads the LSM-tree with the full
keyspace in random order, then runs updates against the *stable* tree.
These helpers construct the corresponding steady-shape component stacks
for each policy family so a simulation starts from a loaded tree rather
than an empty one. (Like the paper — which excludes the first 20 minutes
of the testing phase — measurements still skip a warm-up prefix, so the
bootstrap only needs to be plausible, not exact.)

Profiles are "uniform random subset" profiles: a component holding ``u``
unique keys gets ``loaded_profile * (u / N)``, i.e. each key is present
with probability ``u/N`` — consistent with what merges of random update
batches produce.
"""

from __future__ import annotations

import math

from ..core.components import Component, UidAllocator
from ..core.policies.layout import LEVELED, TIERED, LayoutPolicy
from ..core.policies.partitioned import PartitionedLevelingPolicy
from ..core.policies.size_tiered import SizeTieredPolicy
from ..errors import ConfigurationError
from ..workloads.keyspace import KeyspaceModel
from .config import SimConfig


def _subset_component(
    uids: UidAllocator,
    keyspace: KeyspaceModel,
    config: SimConfig,
    level: int,
    unique: float,
    key_lo: float = 0.0,
    key_hi: float = 1.0,
) -> Component:
    # The profile of a random subset of u keys restricted to a slice of
    # width w holds u * w keys... expressed in global buckets, a subset
    # with in-slice presence probability q has profile loaded * w * q;
    # for a desired in-slice unique count u, q = u / (total * w), which
    # collapses to loaded * (u / total) independent of the width.
    total = keyspace.keyspace
    unique = min(unique, total * (key_hi - key_lo) * 0.999)
    profile = keyspace.loaded_profile() * (unique / total)
    return Component(
        uid=uids.next(),
        level=level,
        size_bytes=max(unique * config.entry_bytes, 1.0),
        entry_count=unique,
        key_lo=key_lo,
        key_hi=key_hi,
        profile=profile,
    )


def loaded_layout_tree(
    policy: LayoutPolicy,
    keyspace: KeyspaceModel,
    config: SimConfig,
    uids: UidAllocator,
) -> list[Component]:
    """The loaded tree of a tiering, leveling or lazy-leveling layout.
    The last level holds the bulk of the keyspace (the paper: "nearly
    full"): two runs of half and four tenths of it when tiered, one of
    nine tenths when leveled. Every other tiered level holds ``T // 2``
    runs of ``M * T**i`` entries, every other leveled level one run at
    half its capacity; a landing level holds none. Components are
    allocated last level first."""
    total = float(keyspace.keyspace)
    last = len(policy.layout) - 1
    shares = (0.5, 0.4) if policy.layout[last] == TIERED else (0.9,)
    components = [
        _subset_component(uids, keyspace, config, last, total * share)
        for share in shares
    ]
    memory, ratio = config.memory_component_entries, policy.size_ratio
    for level, kind in enumerate(policy.layout[:last]):
        if kind == TIERED:
            components += [
                _subset_component(
                    uids, keyspace, config, level, memory * ratio**level
                )
                for _ in range(ratio // 2)
            ]
        elif kind == LEVELED:
            capacity = policy.level_capacity_bytes(level) / config.entry_bytes
            components.append(
                _subset_component(
                    uids, keyspace, config, level, capacity * 0.5
                )
            )
    return components


def loaded_size_tiered_stack(
    policy: SizeTieredPolicy,
    keyspace: KeyspaceModel,
    config: SimConfig,
    uids: UidAllocator,
    decay: float = 3.0,
) -> list[Component]:
    """A geometric stack resembling Figure 18: one big old component and
    geometrically smaller, younger ones down to the memory size."""
    if decay <= 1:
        raise ConfigurationError("stack decay must exceed 1")
    components: list[Component] = []
    total = float(keyspace.keyspace)
    unique = total * 0.8
    floor = config.memory_component_entries
    while unique > floor:
        components.append(
            _subset_component(uids, keyspace, config, 0, unique)
        )
        unique /= decay
    return components


def loaded_partitioned_tree(
    policy: PartitionedLevelingPolicy,
    keyspace: KeyspaceModel,
    config: SimConfig,
    uids: UidAllocator,
) -> list[Component]:
    """Partitioned levels at ~90% of target; the last level holds the
    keyspace remainder, all split into ``max_file_bytes`` files."""
    components: list[Component] = []
    total = float(keyspace.keyspace)
    assigned = 0.0
    for level in range(1, policy.levels):
        level_unique = min(
            policy.level_target_bytes(level) / config.entry_bytes * 0.9,
            total * 0.05,
        )
        components.extend(
            _partitioned_level(
                uids, keyspace, config, policy, level, level_unique
            )
        )
        assigned += level_unique
    last_unique = max(total * 0.5, total - assigned) * 0.95
    components.extend(
        _partitioned_level(
            uids, keyspace, config, policy, policy.levels, last_unique
        )
    )
    return components


def _partitioned_level(
    uids: UidAllocator,
    keyspace: KeyspaceModel,
    config: SimConfig,
    policy: PartitionedLevelingPolicy,
    level: int,
    unique: float,
) -> list[Component]:
    total_bytes = unique * config.entry_bytes
    count = max(1, int(math.ceil(total_bytes / policy.max_file_bytes)))
    width = 1.0 / count
    loaded = keyspace.loaded_profile()
    total_keys = keyspace.keyspace
    files = []
    for index in range(count):
        lo = index * width
        hi = (index + 1) * width if index < count - 1 else 1.0
        profile = loaded * (unique / total_keys) * (hi - lo)
        files.append(
            Component(
                uid=uids.next(),
                level=level,
                size_bytes=total_bytes / count,
                entry_count=unique / count,
                key_lo=lo,
                key_hi=hi,
                profile=profile,
            )
        )
    return files
