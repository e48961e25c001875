"""The size-tiered merge policy used in practice (Section 5.3, Figure 18).

BigTable/HBase-style tiering does not organize components into explicit
levels; it keeps one age-ordered sequence of components and schedules a
merge whenever a component is at most ``T`` times the total size of the
components younger than it within a candidate window. The policy tries to
merge as many components as possible at once (up to ``max_merge``), which
makes it *non-deterministic* in the paper's sense: the merges it schedules
depend on how many flushed components have piled up, so a closed-system
testing phase measures an inflated, unsustainable write throughput.

The paper's fix (Section 5.3) is reproduced with ``always_min=True``:
during the testing phase the policy merges exactly ``min_merge``
components, which measures the conservative lower-bound throughput; at
runtime the elastic behaviour is re-enabled to absorb bursts.
"""

from __future__ import annotations

from typing import Sequence

from ...errors import ConfigurationError
from ..components import Component, MergeDescriptor, TreeSnapshot, UidAllocator
from .base import MergePolicy


class SizeTieredPolicy(MergePolicy):
    """HBase-style size-tiered compaction over one age-ordered sequence.

    Parameters
    ----------
    size_ratio:
        ``T``; a window's oldest component qualifies when its size is at
        most ``T`` times the total size of the younger components in the
        window (HBase's ratio rule; the paper's default is 1.2).
    min_merge, max_merge:
        Bounds on the number of components merged at once (paper: 2, 10).
    expected_component_cap:
        Steady-state component estimate used for constraint sizing; the
        paper sets the maximum tolerated components at 50 for this policy.
    always_min:
        When True, merge exactly ``min_merge`` components (the paper's
        sustainable-throughput testing fix).
    max_concurrent:
        Merge operations allowed in flight at once. HBase executes
        compactions from a small fixed thread pool (one "small" and one
        "large" pool thread by default), and this bound is load-bearing
        for the paper's Section 5.3 finding: when merges are busy,
        flushed components pile up un-merged, so the next policy
        execution finds a *wide* window — under a closed write loop the
        policy therefore merges many components at once and measures an
        inflated maximum write throughput, while under steady arrivals it
        settles into narrow merges. Unbounded concurrency would let
        eager pair-merges pre-empt every wide window and mute the
        non-determinism entirely.
    """

    name = "size-tiered"

    def __init__(
        self,
        size_ratio: float = 1.2,
        min_merge: int = 2,
        max_merge: int = 10,
        expected_component_cap: int = 25,
        always_min: bool = False,
        max_concurrent: int = 2,
    ) -> None:
        if size_ratio <= 1.0:
            raise ConfigurationError("size-tiered ratio must exceed 1")
        if min_merge < 2:
            raise ConfigurationError("min_merge must be at least 2")
        if max_merge < min_merge:
            raise ConfigurationError("max_merge must be >= min_merge")
        if expected_component_cap < 1:
            raise ConfigurationError("expected_component_cap must be >= 1")
        if max_concurrent < 1:
            raise ConfigurationError("max_concurrent must be >= 1")
        self._size_ratio = size_ratio
        self._min_merge = min_merge
        self._max_merge = max_merge
        self._expected = expected_component_cap
        self._always_min = always_min
        self._max_concurrent = max_concurrent

    @property
    def always_min(self) -> bool:
        """True when the testing-phase fix (merge exactly min) is active."""
        return self._always_min

    @property
    def min_merge(self) -> int:
        """Minimum components per merge."""
        return self._min_merge

    @property
    def max_merge(self) -> int:
        """Maximum components per merge."""
        return self._max_merge

    def with_always_min(self, enabled: bool) -> "SizeTieredPolicy":
        """A copy of this policy with the testing fix toggled."""
        return SizeTieredPolicy(
            size_ratio=self._size_ratio,
            min_merge=self._min_merge,
            max_merge=self._max_merge,
            expected_component_cap=self._expected,
            always_min=enabled,
            max_concurrent=self._max_concurrent,
        )

    def expected_components(self) -> int:
        return self._expected

    def resting_components(self) -> int:
        # Fewer than min_merge never merge. Older components that each
        # outgrow the younger ones T-fold rest too, as many as the data's
        # size allows, so this is the part that holds for any data.
        return self._min_merge - 1

    def _window_from(self, ordered: list[Component], start: int) -> list[Component]:
        """The components a merge starting at ``start`` would process.

        Implements the ratio rule: the window's oldest component must be
        no larger than ``T`` times the total of its younger companions.
        Extends the window as far as allowed (elastic mode) or exactly to
        ``min_merge`` (testing-fix mode).
        """
        limit = self._min_merge if self._always_min else self._max_merge
        window = ordered[start : start + limit]
        if len(window) < self._min_merge:
            return []
        younger_total = sum(c.size_bytes for c in window[1:])
        if window[0].size_bytes > self._size_ratio * younger_total:
            # Try shrinking from the young end only in elastic mode: a
            # smaller window has a smaller younger_total, so shrinking
            # never helps the ratio rule — the window is simply not ready.
            return []
        return window

    def select_merges(
        self,
        tree: TreeSnapshot,
        uids: UidAllocator,
        active: Sequence[MergeDescriptor] = (),
    ) -> list[MergeDescriptor]:
        # One age-ordered sequence: all components live at level 0 and are
        # ordered oldest-first by the executor. HBase examines maximal
        # contiguous runs of components that are not currently merging.
        ordered = tree.level(0)
        budget = self._max_concurrent - len(active)
        if budget <= 0:
            return []
        merges: list[MergeDescriptor] = []
        run: list[Component] = []
        runs: list[list[Component]] = []
        for component in ordered:
            if component.merging:
                if run:
                    runs.append(run)
                    run = []
            else:
                run.append(component)
        if run:
            runs.append(run)
        for candidates in runs:
            start = 0
            while start + self._min_merge <= len(candidates):
                if len(merges) >= budget:
                    return merges
                window = self._window_from(candidates, start)
                if window:
                    merges.append(
                        MergeDescriptor(
                            uid=uids.next(),
                            inputs=window,
                            target_level=0,
                            reason="size-tiered",
                        )
                    )
                    start += len(window)
                else:
                    start += 1
        return merges

    def __repr__(self) -> str:
        return (
            f"SizeTieredPolicy(T={self._size_ratio}, min={self._min_merge}, "
            f"max={self._max_merge}, always_min={self._always_min})"
        )
