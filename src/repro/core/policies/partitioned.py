"""LevelDB-style partitioned leveling with a score-based trigger (Section 6).

Level 0 holds whole flushed components (each covering the full key range);
levels 1 and above are range-partitioned into files of bounded size. The
policy computes a score per level — flushed-component count over the
minimum mergeable count for level 0, total bytes over the level's target
bytes for partitioned levels — and schedules a merge for the highest score
of at least 1 (LevelDB's ``VersionSet::PickCompaction``). Only one merge
runs at a time, matching LevelDB's single background compaction thread.

Two file-selection strategies are implemented for partitioned levels:
``round-robin`` (LevelDB: remember where the previous compaction at the
level ended and continue from there) and ``choose-best`` (pick the file
with the fewest overlapping files at the next level, [Thonangi & Yang]).

The paper's sustainability fix (Section 6.2) is ``l0_exact=True``: merge
*exactly* ``l0_min_merge`` level-0 components during the testing phase so
measured throughput reflects the tree's expected shape (Figure 22a) rather
than the inflated elastic shape (Figure 22b).
"""

from __future__ import annotations

from typing import Sequence

from ...errors import ConfigurationError
from ..components import Component, MergeDescriptor, TreeSnapshot, UidAllocator
from .base import MergePolicy


class PartitionedLevelingPolicy(MergePolicy):
    """Score-driven partitioned leveling a la LevelDB.

    Parameters
    ----------
    size_ratio:
        ``T`` between partitioned level targets.
    levels:
        Number of partitioned levels (1-based); level ``levels`` is the
        last and never merges further down.
    level1_target_bytes:
        Target byte size of level 1 (paper: 1280 MB = 10 memory components).
    max_file_bytes:
        Partition-file size cap (paper default: 64 MB). Executors split
        merge outputs on this boundary.
    l0_min_merge:
        Minimum flushed components for a level-0 merge (LevelDB: 4).
    l0_exact:
        When True, level-0 merges take exactly ``l0_min_merge`` components
        (the testing-phase fix); when False they take all available
        (LevelDB's elastic behaviour).
    selection:
        ``"round-robin"`` or ``"choose-best"`` file selection.
    """

    name = "partitioned-leveling"

    def __init__(
        self,
        size_ratio: float,
        levels: int,
        level1_target_bytes: float,
        max_file_bytes: float,
        l0_min_merge: int = 4,
        l0_exact: bool = False,
        selection: str = "round-robin",
    ) -> None:
        if size_ratio <= 1:
            raise ConfigurationError("size ratio must exceed 1")
        if levels < 1:
            raise ConfigurationError("need at least one partitioned level")
        if level1_target_bytes <= 0 or max_file_bytes <= 0:
            raise ConfigurationError("byte targets must be positive")
        if l0_min_merge < 1:
            raise ConfigurationError("l0_min_merge must be at least 1")
        if selection not in ("round-robin", "choose-best"):
            raise ConfigurationError(f"unknown selection strategy {selection!r}")
        self._size_ratio = size_ratio
        self._levels = levels
        self._level1_target = level1_target_bytes
        self._max_file_bytes = max_file_bytes
        self._l0_min = l0_min_merge
        self._l0_exact = l0_exact
        self._selection = selection
        # Round-robin cursor per level: normalized key where the previous
        # compaction from that level ended.
        self._cursors: dict[int, float] = {}

    @property
    def max_file_bytes(self) -> float:
        """Partition-file size cap used when splitting merge outputs."""
        return self._max_file_bytes

    @property
    def levels(self) -> int:
        """Number of partitioned levels."""
        return self._levels

    @property
    def size_ratio(self) -> float:
        """The size ratio ``T``."""
        return self._size_ratio

    @property
    def l0_min_merge(self) -> int:
        """Minimum flushed components for a level-0 merge."""
        return self._l0_min

    @property
    def l0_exact(self) -> bool:
        """True when the exact-``T0`` testing fix is enabled."""
        return self._l0_exact

    @property
    def selection(self) -> str:
        """The configured file-selection strategy."""
        return self._selection

    def with_l0_exact(self, enabled: bool) -> "PartitionedLevelingPolicy":
        """A copy of this policy with the level-0 fix toggled."""
        return PartitionedLevelingPolicy(
            size_ratio=self._size_ratio,
            levels=self._levels,
            level1_target_bytes=self._level1_target,
            max_file_bytes=self._max_file_bytes,
            l0_min_merge=self._l0_min,
            l0_exact=enabled,
            selection=self._selection,
        )

    def level_target_bytes(self, level: int) -> float:
        """Target byte size of partitioned level ``level`` (1-based)."""
        if not 1 <= level <= self._levels:
            raise ConfigurationError(f"level {level} outside 1..{self._levels}")
        return self._level1_target * self._size_ratio ** (level - 1)

    def expected_components(self) -> int:
        # L0 at its minimum trigger plus one file set per partitioned
        # level; only used for reporting (partitioned trees constrain the
        # level-0 count, not the total).
        total_files = sum(
            int(self.level_target_bytes(level) / self._max_file_bytes) + 1
            for level in range(1, self._levels + 1)
        )
        return self._l0_min + total_files

    def resting_components(self) -> int:
        # Level 0 below its trigger plus one file per partitioned level;
        # how many more files a level rests at grows with the data.
        return self._l0_min - 1 + self._levels

    def scores(self, tree: TreeSnapshot) -> dict[int, float]:
        """Per-level compaction scores (LevelDB's ``Finalize``)."""
        result = {0: tree.count_at(0) / float(self._l0_min)}
        for level in range(1, self._levels):
            result[level] = tree.bytes_at(level) / self.level_target_bytes(level)
        return result

    def _pick_file(self, tree: TreeSnapshot, level: int) -> Component | None:
        """Choose the next file to merge from a partitioned level."""
        candidates = tree.mergeable(level)
        if not candidates:
            return None
        if self._selection == "round-robin":
            cursor = self._cursors.get(level, 0.0)
            after = [c for c in candidates if c.key_lo >= cursor]
            pool = after if after else candidates
            return min(pool, key=lambda c: c.key_lo)
        # choose-best: fewest overlapping files at the next level.
        def overlap_count(component: Component) -> int:
            return len(
                tree.overlapping(level + 1, component.key_lo, component.key_hi)
            )

        return min(candidates, key=lambda c: (overlap_count(c), c.key_lo))

    def select_merges(
        self,
        tree: TreeSnapshot,
        uids: UidAllocator,
        active: Sequence[MergeDescriptor] = (),
    ) -> list[MergeDescriptor]:
        if active:
            return []  # LevelDB runs a single compaction at a time
        scores = self.scores(tree)
        best_level, best_score = max(
            scores.items(), key=lambda item: (item[1], -item[0])
        )
        if best_score < 1.0:
            return []
        if best_level == 0:
            flushed = tree.mergeable(0)
            if len(flushed) < self._l0_min:
                return []
            chosen = flushed[: self._l0_min] if self._l0_exact else flushed
            lo = min(c.key_lo for c in chosen)
            hi = max(c.key_hi for c in chosen)
            inputs = chosen + tree.overlapping(1, lo, hi)
            if any(c.merging for c in inputs):
                return []
            return [
                MergeDescriptor(
                    uid=uids.next(), inputs=inputs, target_level=1, reason="L0"
                )
            ]
        picked = self._pick_file(tree, best_level)
        if picked is None:
            return []
        overlapping = tree.overlapping(best_level + 1, picked.key_lo, picked.key_hi)
        if any(c.merging for c in overlapping):
            return []
        self._cursors[best_level] = picked.key_hi if picked.key_hi < 1.0 else 0.0
        return [
            MergeDescriptor(
                uid=uids.next(),
                inputs=[picked] + overlapping,
                target_level=best_level + 1,
                reason=f"L{best_level}",
            )
        ]

    def __repr__(self) -> str:
        return (
            f"PartitionedLevelingPolicy(T={self._size_ratio}, L={self._levels}, "
            f"file={self._max_file_bytes / 2**20:.0f}MB, "
            f"selection={self._selection!r}, l0_exact={self._l0_exact})"
        )
