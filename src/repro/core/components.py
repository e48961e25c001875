"""Core LSM abstractions shared by the simulator and the storage engine.

A *component* is an immutable sorted run on disk, described here purely by
metadata: which level it lives on, how many bytes/entries it holds, and
(for partitioned trees) which slice of the normalized key space it covers.
Merge *policies* (``repro.core.policies``) look at a tree snapshot and
decide which components to merge; merge *schedulers*
(``repro.core.schedulers``) decide how the I/O bandwidth budget is divided
among the merges the policy created. Both operate only on the types in
this module, which is what lets the same policy/scheduler code drive both
the discrete-event simulator and the real storage engine.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterable

from ..errors import PolicyError

#: Level number used for components flushed straight from memory before
#: any merge policy has assigned them a home (partitioned trees keep them
#: at level 0; full-merge trees treat flushed components as level 0 too).
FLUSH_LEVEL = 0


@dataclass
class Component:
    """Metadata for one immutable disk component (sorted run).

    ``key_lo``/``key_hi`` describe the half-open normalized key range
    ``[key_lo, key_hi)`` the component covers; unpartitioned components
    cover ``[0, 1)``. ``profile`` is an opaque per-workload summary used by
    the simulator's keyspace model to estimate merge reclamation;
    ``handle`` is an opaque reference used by the storage engine to find
    the backing sorted-run file. Neither is interpreted by policies.
    """

    uid: int
    level: int
    size_bytes: float
    entry_count: float
    key_lo: float = 0.0
    key_hi: float = 1.0
    merging: bool = False
    profile: Any = None
    handle: Any = None

    @property
    def key_width(self) -> float:
        """Fraction of the key space this component covers."""
        return self.key_hi - self.key_lo

    def overlaps(self, other: "Component") -> bool:
        """True when the two components' key ranges intersect."""
        return self.key_lo < other.key_hi and other.key_lo < self.key_hi

    def __repr__(self) -> str:  # concise: these appear in debug dumps a lot
        flag = "*" if self.merging else ""
        return (
            f"C{self.uid}{flag}(L{self.level}, {self.size_bytes / 2**20:.1f}MB, "
            f"[{self.key_lo:.3f},{self.key_hi:.3f}))"
        )


@dataclass
class MergeDescriptor:
    """A merge operation requested by a policy, to be run by a scheduler.

    ``inputs`` carry no age order: an executor that reconciles them
    decides which copy of a key is newest itself (the engine by sequence
    stamp). ``target_level`` is where the output lands. ``reason`` is a
    free-form tag used by metrics ("L0", "level-3", "size-tiered" ...).
    The runtime progress fields are owned by the executor:
    ``remaining_input_bytes`` counts down from ``input_bytes`` as the
    merge reads, which is also the quantity the greedy scheduler ranks
    by (the paper's "remaining input pages" approximation, Fig. 7 line
    12).
    """

    uid: int
    inputs: list[Component]
    target_level: int
    reason: str = ""
    remaining_input_bytes: float = field(default=0.0)

    def __post_init__(self) -> None:
        if not self.inputs:
            raise PolicyError("a merge needs at least one input component")
        seen = set()
        for component in self.inputs:
            if component.uid in seen:
                raise PolicyError(f"component {component.uid} listed twice")
            seen.add(component.uid)
            if component.merging:
                raise PolicyError(
                    f"component {component.uid} is already part of another merge"
                )
        for component in self.inputs:
            component.merging = True
        if self.remaining_input_bytes == 0.0:
            self.remaining_input_bytes = self.input_bytes

    @property
    def input_bytes(self) -> float:
        """Total bytes across all input components."""
        return sum(component.size_bytes for component in self.inputs)

    @property
    def progress(self) -> float:
        """Fraction of the merge's input already consumed, in [0, 1]."""
        total = self.input_bytes
        if total <= 0:
            return 1.0
        return 1.0 - self.remaining_input_bytes / total

    def release_inputs(self) -> None:
        """Clear the ``merging`` mark (merge completed or abandoned)."""
        for component in self.inputs:
            component.merging = False

    def __repr__(self) -> str:
        ids = ",".join(str(c.uid) for c in self.inputs)
        return (
            f"Merge{self.uid}([{ids}] -> L{self.target_level}, "
            f"{self.remaining_input_bytes / 2**20:.1f}MB left)"
        )


class TreeSnapshot:
    """A read-only view of the tree's disk components, grouped by level.

    Policies receive this on every decision point. Components within a
    level are ordered oldest-first, so a policy can take a level's oldest
    runs first.
    """

    def __init__(self, components: Iterable[Component]) -> None:
        self._components = list(components)
        self._by_level: dict[int, list[Component]] = {}
        for component in self._components:
            self._by_level.setdefault(component.level, []).append(component)

    @property
    def components(self) -> list[Component]:
        """All disk components, oldest-first within each level."""
        return list(self._components)

    def level(self, index: int) -> list[Component]:
        """Components at a level, oldest first (empty list if none)."""
        return list(self._by_level.get(index, []))

    def levels(self) -> list[int]:
        """Sorted list of level numbers that currently hold components."""
        return sorted(self._by_level)

    def count(self) -> int:
        """Total number of disk components."""
        return len(self._components)

    def count_at(self, index: int) -> int:
        """Number of components at one level."""
        return len(self._by_level.get(index, []))

    def bytes_at(self, index: int) -> float:
        """Total bytes at one level."""
        return sum(c.size_bytes for c in self._by_level.get(index, []))

    def mergeable(self, index: int) -> list[Component]:
        """Components at a level that are not already being merged."""
        return [c for c in self._by_level.get(index, []) if not c.merging]

    def overlapping(self, level: int, lo: float, hi: float) -> list[Component]:
        """Components at ``level`` intersecting the key range ``[lo, hi)``,
        ordered by key range."""
        hits = [
            c
            for c in self._by_level.get(level, [])
            if c.key_lo < hi and lo < c.key_hi
        ]
        return sorted(hits, key=lambda c: c.key_lo)


class UidAllocator:
    """Monotonic id source for components and merges within one tree."""

    def __init__(self) -> None:
        self._counter = itertools.count(1)

    def next(self) -> int:
        """Return the next unused id."""
        return next(self._counter)
