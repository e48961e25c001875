"""Merge policy interface.

A merge policy decides *which* components to merge (Section 2.1); it never
executes I/O and never decides bandwidth. Executors (the simulator's LSM
tree or the storage engine's compaction driver) call
:meth:`MergePolicy.select_merges` whenever the component set changes — a
flush landed, or a merge completed — and the policy returns zero or more
new :class:`~repro.core.components.MergeDescriptor` objects whose inputs
are disjoint from every in-flight merge (components already merging are
marked and must not be re-selected).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

from ..components import MergeDescriptor, TreeSnapshot, UidAllocator


class MergePolicy(ABC):
    """Decides which disk components to merge, and where the output goes."""

    #: Human-readable policy name used in reports and metrics.
    name: str = "abstract"

    @abstractmethod
    def select_merges(
        self,
        tree: TreeSnapshot,
        uids: UidAllocator,
        active: Sequence[MergeDescriptor] = (),
    ) -> list[MergeDescriptor]:
        """Return new merges to start given the current tree snapshot.

        ``active`` lists the in-flight merges, which the policy needs in
        order to respect per-level exclusivity (e.g. not produce two
        concurrent merges whose outputs land on the same level).
        Implementations must only select components whose ``merging`` flag
        is clear; constructing a :class:`MergeDescriptor` sets the flag, so
        a second call with the same snapshot returns no duplicates.
        """

    @abstractmethod
    def expected_components(self) -> int:
        """Steady-state number of disk components this policy maintains.

        Used to size the global component constraint (the paper's
        "twice the expected number of disk components").
        """

    @abstractmethod
    def resting_components(self) -> int:
        """The most disk components a tree can hold with no merge
        eligible: a global limit at or below it can close the write gate
        with nothing left to merge."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
