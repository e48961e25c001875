"""The tiering merge policy (Figure 2b).

Each level holds up to ``T`` components; when ``T`` mergeable components
have accumulated at a level, the ``T`` oldest are merged into a single
component at the next level. At the configured last level, components are
merged *in place* (the output stays on the last level): the dataset's
unique-entry footprint bounds its size, so the last level oscillates
between one and ``T`` components — the standard behaviour of tiering
implementations at the bottom of the tree.

Per the policies' definition there is at most one active merge per level
(Section 5.1.3), which caps concurrency at ``L`` merges.
"""

from __future__ import annotations

from typing import Sequence

from ...errors import ConfigurationError
from ..components import MergeDescriptor, TreeSnapshot, UidAllocator
from .base import MergePolicy


class TieringPolicy(MergePolicy):
    """Classic tiering: merge ``T`` equal-ish components a level at a time.

    Parameters
    ----------
    size_ratio:
        ``T``: components per level, and the growth factor between levels.
    levels:
        Number of on-disk levels. Merges from the last level stay on the
        last level.
    """

    name = "tiering"

    def __init__(self, size_ratio: int, levels: int) -> None:
        if size_ratio < 2:
            raise ConfigurationError("tiering size ratio must be at least 2")
        if levels < 1:
            raise ConfigurationError("tiering needs at least one disk level")
        self._size_ratio = int(size_ratio)
        self._levels = levels

    @property
    def size_ratio(self) -> int:
        """The size ratio ``T`` (components merged at once)."""
        return self._size_ratio

    @property
    def levels(self) -> int:
        """The number of on-disk levels ``L``."""
        return self._levels

    def expected_components(self) -> int:
        return self._size_ratio * self._levels

    def resting_components(self) -> int:
        # T - 1 on every level, the last included: T are needed to merge.
        return (self._size_ratio - 1) * self._levels

    def select_merges(
        self,
        tree: TreeSnapshot,
        uids: UidAllocator,
        active: Sequence[MergeDescriptor] = (),
    ) -> list[MergeDescriptor]:
        busy_sources = {
            component.level for merge in active for component in merge.inputs
        }
        merges: list[MergeDescriptor] = []
        # Disk levels are numbered 0..L-1; flushes land at level 0 with
        # size ~M, so level i holds components of ~M * T**i. A level with
        # T mergeable components sends its T oldest to the next level;
        # outputs may coexist with an ongoing merge *into* the same level
        # since tiering levels hold multiple components by design.
        for level in range(0, self._levels):
            if level in busy_sources:
                continue  # at most one active merge per level
            candidates = tree.mergeable(level)
            if len(candidates) < self._size_ratio:
                continue
            target = min(level + 1, self._levels - 1)
            inputs = candidates[: self._size_ratio]
            merges.append(
                MergeDescriptor(
                    uid=uids.next(),
                    inputs=inputs,
                    target_level=target,
                    reason=f"tier-L{level}",
                )
            )
            busy_sources.add(level)
        return merges

    def __repr__(self) -> str:
        return f"TieringPolicy(T={self._size_ratio}, L={self._levels})"
