"""Lazy leveling: tiering at intermediate levels, leveling at the last.

An extension beyond the paper's four policies (it appears in the paper's
related-work survey as Dayan & Idreos's *Dostoevsky* design): intermediate
levels behave like tiering — up to ``T`` components each, merged together
once full — while the last level behaves like leveling — a single
component that arriving runs merge into. The result keeps most of
tiering's write throughput (entries are copied once per intermediate
level) while offering leveling's point-lookup and space behaviour at the
largest level, where most data lives.

Including it demonstrates that the scheduler framework of the paper —
constraints, write controls, fair/greedy bandwidth allocation — is policy
agnostic: the ablation benchmark runs lazy leveling through the identical
two-phase harness.
"""

from __future__ import annotations

from typing import Sequence

from ...errors import ConfigurationError
from ..components import MergeDescriptor, TreeSnapshot, UidAllocator
from .base import MergePolicy


class LazyLevelingPolicy(MergePolicy):
    """Dostoevsky-style hybrid: tiered runs on top, one sorted run below.

    Parameters
    ----------
    size_ratio:
        ``T``: components per intermediate level, and the growth factor.
    levels:
        On-disk levels, numbered 0..levels-1; the last is the leveled one.
    """

    name = "lazy-leveling"

    def __init__(self, size_ratio: int, levels: int) -> None:
        if size_ratio < 2:
            raise ConfigurationError("lazy leveling needs a size ratio >= 2")
        if levels < 2:
            raise ConfigurationError(
                "lazy leveling needs at least two levels (tiered + leveled)"
            )
        self._size_ratio = int(size_ratio)
        self._levels = levels

    @property
    def size_ratio(self) -> int:
        """The size ratio ``T``."""
        return self._size_ratio

    @property
    def levels(self) -> int:
        """The number of on-disk levels."""
        return self._levels

    def expected_components(self) -> int:
        # T runs per intermediate level plus the single last-level run.
        return self._size_ratio * (self._levels - 1) + 1

    def resting_components(self) -> int:
        return (self._size_ratio - 1) * (self._levels - 1) + 1

    def select_merges(
        self,
        tree: TreeSnapshot,
        uids: UidAllocator,
        active: Sequence[MergeDescriptor] = (),
    ) -> list[MergeDescriptor]:
        busy_sources = {
            component.level for merge in active for component in merge.inputs
        }
        last = self._levels - 1
        merges: list[MergeDescriptor] = []
        for level in range(0, last):
            if level in busy_sources:
                continue  # one merge per level, as for tiering
            candidates = tree.mergeable(level)
            if len(candidates) < self._size_ratio:
                continue
            inputs = candidates[: self._size_ratio]
            if level + 1 == last:
                # Merging into the leveled last level absorbs its
                # resident component too (a leveling-style merge).
                if any(c.merging for c in tree.level(last)):
                    continue
                inputs = inputs + tree.mergeable(last)
            merges.append(
                MergeDescriptor(
                    uid=uids.next(),
                    inputs=inputs,
                    target_level=min(level + 1, last),
                    reason=f"lazy-L{level}",
                )
            )
            busy_sources.add(level)
        return merges

    def __repr__(self) -> str:
        return f"LazyLevelingPolicy(T={self._size_ratio}, L={self._levels})"
