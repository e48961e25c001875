"""Tiering, leveling and lazy leveling: one merge rule over a per-level
layout (Figure 2; Sarkar et al.'s compaction design space).

* A **tiered** level holds ``T`` runs: once ``T`` gather, the ``T``
  oldest merge down together. A tiered last level merges in place; the
  unique-entry footprint bounds it between one and ``T`` runs.
* A **leveled** level holds one run, which merges down once its bytes
  reach ``M * T**i`` (with dynamic level sizes, Section 5.2.3,
  ``last_level_bytes / T**(L - i)``). A merge into it absorbs its
  mergeable resident. The last leveled level never merges down.
* Leveling's **landing** level 0 sends one flushed run at a time, only
  while level 1's mergeable bytes are under capacity. Batching a
  variable number would let the closed testing phase measure a catch-up
  regime the running phase cannot sustain (Sections 5.3 and 6.2), and
  absorbing into an over-full level 1 rewrites it again and again.

A level is busy while any of its runs is merging, and then starts no
merge (one active merge per level, Section 5.1.3). A leveled target
takes one incoming merge at a time. A leveled level other than the last
may form a fresh run while its old one merges down (bLSM's ``C1`` and
``C1'``); the last forms no second run while its resident merges.
"""

from __future__ import annotations

import math
from typing import Sequence

from ...errors import ConfigurationError
from ..components import MergeDescriptor, TreeSnapshot, UidAllocator
from .base import MergePolicy

TIERED, LEVELED, LANDING = "tiered", "leveled", "landing"


class LayoutPolicy(MergePolicy):
    """The merge rule above over ``layout``, the shape of levels 0, 1, …

    ``size_ratio`` is ``T``, a whole number where a level is tiered.
    ``reason`` is each merge's tag, formatted from its source ``level``
    and ``target``. ``memory_bytes`` (``M``) and ``last_level_bytes``
    size the leveled levels. A layout needs a tiered level or a level
    below level 0: a lone leveled level would never merge.
    """

    def __init__(
        self,
        size_ratio: float,
        layout: tuple[str, ...],
        reason: str,
        memory_bytes: float = math.inf,
        last_level_bytes: float | None = None,
    ) -> None:
        if size_ratio <= 1:
            raise ConfigurationError(f"{self.name} size ratio must exceed 1")
        if TIERED in layout and size_ratio != int(size_ratio):
            raise ConfigurationError(
                f"{self.name} needs a whole size ratio, got {size_ratio}"
            )
        if TIERED not in layout and len(layout) < 2:
            raise ConfigurationError(f"{self.name} needs more levels")
        if memory_bytes <= 0 or (
            last_level_bytes is not None and last_level_bytes <= 0
        ):
            raise ConfigurationError("level capacities must be positive")
        self._size_ratio = int(size_ratio) if TIERED in layout else size_ratio
        #: The shape of each level, level 0 first.
        self.layout = layout
        self._reason = reason
        self._memory_bytes = memory_bytes
        self._last_level_bytes = last_level_bytes

    @property
    def size_ratio(self) -> float:
        """The size ratio ``T``."""
        return self._size_ratio

    @property
    def levels(self) -> int:
        """The number of on-disk levels ``L``, a landing level aside."""
        return len(self.layout) - self.layout.count(LANDING)

    def level_capacity_bytes(self, level: int) -> float:
        """Capacity of leveled level ``level`` in bytes."""
        last = len(self.layout) - 1
        if not 0 <= level <= last or self.layout[level] != LEVELED:
            raise ConfigurationError(f"level {level} is not leveled")
        if self._last_level_bytes is not None:
            return self._last_level_bytes / self._size_ratio ** (last - level)
        return self._memory_bytes * self._size_ratio**level

    def expected_components(self) -> int:
        tiered, leveled = self.layout.count(TIERED), self.layout.count(LEVELED)
        return self._size_ratio * tiered + leveled

    def resting_components(self) -> int:
        # T - 1 rest on a tiered level, one on a leveled level; a flushed
        # run leaves the landing level once level 1 has room.
        return self.expected_components() - self.layout.count(TIERED)

    def select_merges(
        self,
        tree: TreeSnapshot,
        uids: UidAllocator,
        active: Sequence[MergeDescriptor] = (),
    ) -> list[MergeDescriptor]:
        layout, last = self.layout, len(self.layout) - 1
        incoming = {merge.target_level for merge in active}
        merges: list[MergeDescriptor] = []
        for level, kind in enumerate(layout):
            runs = tree.level(level)
            if any(c.merging for c in runs):
                continue
            target = min(level + 1, last)
            if kind == TIERED:
                inputs = runs[: self._size_ratio]
                ready = len(inputs) == self._size_ratio
            elif kind == LANDING:
                inputs = runs[:1]
                forming = sum(c.size_bytes for c in tree.mergeable(target))
                ready = inputs and forming < self.level_capacity_bytes(target)
            else:
                inputs = runs
                ready = level < last and runs and sum(
                    c.size_bytes for c in runs
                ) >= self.level_capacity_bytes(level)
            if not ready:
                continue
            if layout[target] == LEVELED:
                if target in incoming or (
                    target == last and any(c.merging for c in tree.level(last))
                ):
                    continue
                inputs = inputs + tree.mergeable(target)
                incoming.add(target)
            reason = self._reason.format(level=level, target=target)
            merges.append(MergeDescriptor(uids.next(), inputs, target, reason))
        return merges

    def __repr__(self) -> str:
        return f"{type(self).__name__}(T={self._size_ratio}, L={self.levels})"


class TieringPolicy(LayoutPolicy):
    """Classic tiering (Figure 2b): ``levels`` tiered levels."""

    name = "tiering"

    def __init__(self, size_ratio: int, levels: int) -> None:
        super().__init__(size_ratio, (TIERED,) * levels, "tier-L{level}")


class LevelingPolicy(LayoutPolicy):
    """Classic leveling (Figure 2a): a landing level 0 over ``levels``
    leveled levels; ``last_level_bytes`` sets dynamic level sizes."""

    name = "leveling"

    def __init__(
        self,
        size_ratio: float,
        levels: int,
        memory_bytes: float,
        last_level_bytes: float | None = None,
    ) -> None:
        super().__init__(
            size_ratio, (LANDING,) + (LEVELED,) * levels,
            "L{level}->L{target}", memory_bytes, last_level_bytes,
        )

    def __repr__(self) -> str:
        return (
            f"LevelingPolicy(T={self._size_ratio}, L={self.levels}, "
            f"dynamic={self._last_level_bytes is not None})"
        )


class LazyLevelingPolicy(LayoutPolicy):
    """Dostoevsky's lazy leveling (Dayan & Idreos), beyond the paper's
    four policies: tiered levels over one leveled last level, where most
    data lives, for near-tiering writes and leveling's lookups and space.
    It runs through the same harness, constraints and schedulers."""

    name = "lazy-leveling"

    def __init__(self, size_ratio: int, levels: int) -> None:
        super().__init__(
            size_ratio, (TIERED,) * (levels - 1) + (LEVELED,), "lazy-L{level}"
        )
