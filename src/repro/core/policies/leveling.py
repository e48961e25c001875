"""The leveling merge policy (Figure 2a).

One component per on-disk level; level ``i`` holds up to ``M * T**i``
entries. Freshly flushed components accumulate at level 0 and are merged
— all currently mergeable level-0 runs together — into the level-1
component. When a level's component exceeds its capacity it is merged
into the next level's component. Because flushed runs may pile up at
level 0 while level 1 is busy, and because a fresh level-1 component may
start forming while the old one is still merging into level 2 (bLSM's
``C1`` / ``C1'`` situation), the component count varies — exactly the
variance the paper's global component constraint is designed to absorb.

The *dynamic level size* optimization (Section 5.2.3, citing RocksDB's
space-amplification work) pins the last level's capacity to the dataset's
unique-entry footprint and derives the intermediate capacities by dividing
by ``T``, keeping the largest level nearly full across size-ratio sweeps.
"""

from __future__ import annotations

from typing import Sequence

from ...errors import ConfigurationError
from ..components import MergeDescriptor, TreeSnapshot, UidAllocator
from .base import MergePolicy


class LevelingPolicy(MergePolicy):
    """Classic leveling with optional dynamic level sizing.

    Parameters
    ----------
    size_ratio:
        ``T``; each level is ``T`` times the previous one's capacity.
    levels:
        Number of on-disk levels ``L`` (level 0 excluded: level 0 is the
        landing zone for flushed components, not a sized level).
    memory_bytes:
        Memory component budget ``M`` in bytes; level ``i``'s capacity is
        ``M * T**i`` unless dynamic sizing is enabled.
    last_level_bytes:
        When set, enables dynamic level sizing: the last level's capacity
        is this value and level ``i``'s capacity is
        ``last_level_bytes / T**(L - i)``.
    """

    name = "leveling"

    def __init__(
        self,
        size_ratio: float,
        levels: int,
        memory_bytes: float,
        last_level_bytes: float | None = None,
    ) -> None:
        if size_ratio <= 1:
            raise ConfigurationError("leveling size ratio must exceed 1")
        if levels < 1:
            raise ConfigurationError("leveling needs at least one disk level")
        if memory_bytes <= 0:
            raise ConfigurationError("memory budget must be positive")
        if last_level_bytes is not None and last_level_bytes <= 0:
            raise ConfigurationError("last_level_bytes must be positive")
        self._size_ratio = size_ratio
        self._levels = levels
        self._memory_bytes = memory_bytes
        self._last_level_bytes = last_level_bytes

    @property
    def size_ratio(self) -> float:
        """The size ratio ``T``."""
        return self._size_ratio

    @property
    def levels(self) -> int:
        """The number of on-disk levels ``L``."""
        return self._levels

    def level_capacity_bytes(self, level: int) -> float:
        """Capacity of on-disk level ``level`` (1-based) in bytes."""
        if not 1 <= level <= self._levels:
            raise ConfigurationError(f"level {level} outside 1..{self._levels}")
        if self._last_level_bytes is not None:
            return self._last_level_bytes / self._size_ratio ** (self._levels - level)
        return self._memory_bytes * self._size_ratio**level

    def expected_components(self) -> int:
        return self._levels

    def resting_components(self) -> int:
        # A flushed run merges as soon as level 1 has room; each level
        # below rests at one component.
        return self._levels

    def select_merges(
        self,
        tree: TreeSnapshot,
        uids: UidAllocator,
        active: Sequence[MergeDescriptor] = (),
    ) -> list[MergeDescriptor]:
        busy_targets = {merge.target_level for merge in active}
        merges: list[MergeDescriptor] = []
        # Level 0 -> 1: gather every mergeable flushed run plus the
        # level-1 component if it is free. Batching all queued flushes
        # into one merge is how catch-up happens after a busy period. If
        # the old level-1 component is itself merging into level 2, a
        # fresh level-1 component is formed from the flushed runs alone.
        flushed = tree.mergeable(0)
        level1_forming = sum(c.size_bytes for c in tree.mergeable(1))
        if (
            flushed
            and 1 not in busy_targets
            and level1_forming < self.level_capacity_bytes(1)
        ):
            # Absorb exactly one flushed run per merge (classic leveling:
            # the level-1 component is re-merged once per flush, which is
            # what the T/2-merges-per-level cost model assumes). Batching
            # a variable number of runs would make the policy
            # non-deterministic — the closed-system testing phase would
            # then measure an amortized-cheap catch-up regime whose
            # throughput the open-system running phase cannot sustain,
            # the same trap Sections 5.3 and 6.2 expose for size-tiered
            # and partitioned trees. Level 1 must also be under capacity:
            # an over-full level 1 merges down first, or every further
            # absorption rewrites it again and amplification snowballs.
            inputs = flushed[:1] + tree.mergeable(1)
            merges.append(
                MergeDescriptor(
                    uid=uids.next(), inputs=inputs, target_level=1, reason="L0->L1"
                )
            )
            busy_targets.add(1)
        # Level i -> i+1 for overfull levels. The last level never merges
        # further: its size is bounded by the unique-entry footprint.
        for level in range(1, self._levels):
            residents = tree.level(level)
            if not residents or any(c.merging for c in residents):
                continue
            if level + 1 in busy_targets:
                continue
            size = sum(c.size_bytes for c in residents)
            if size < self.level_capacity_bytes(level):
                continue
            inputs = residents + tree.mergeable(level + 1)
            merges.append(
                MergeDescriptor(
                    uid=uids.next(),
                    inputs=inputs,
                    target_level=level + 1,
                    reason=f"L{level}->L{level + 1}",
                )
            )
            busy_targets.add(level + 1)
        return merges

    def __repr__(self) -> str:
        return (
            f"LevelingPolicy(T={self._size_ratio}, L={self._levels}, "
            f"dynamic={self._last_level_bytes is not None})"
        )
