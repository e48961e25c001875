"""The node-wide memory budget and the shares it is carved into.

Every shard starts with half of its share as memtable and half as
block cache; :class:`repro.memory.MemoryArbiter` then moves one step at
a time between two ``(shard, side)`` buckets. A move is a transfer, so
the shares always sum to the budget, and no memtable falls below
:data:`MIN_MEMTABLE_BYTES`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..engine.blockcache import STEP_SHARE
from ..errors import ConfigurationError

#: Smallest write-memory target one shard may be squeezed to. Matches
#: the engine's own floor with headroom: below this, rotation overhead
#: dominates and the flush pipeline degenerates.
MIN_MEMTABLE_BYTES = 64 * 1024

#: The two sides of a shard's share, in bucket (and field) order.
SIDES = ("memtable", "cache")


@dataclass(frozen=True)
class MemoryShares:
    """One concrete carving of the budget: per-shard byte targets."""

    memtable_bytes: tuple[int, ...]
    cache_bytes: tuple[int, ...]

    @property
    def total_bytes(self) -> int:
        """Bytes accounted for (always the full budget)."""
        return sum(self.memtable_bytes) + sum(self.cache_bytes)

    @property
    def write_fraction(self) -> float:
        """Fraction of the budget the memtables hold."""
        return sum(self.memtable_bytes) / self.total_bytes

    def shard(self, shard: int) -> tuple[int, int]:
        """One shard's ``(memtable, cache)`` bytes."""
        return self.memtable_bytes[shard], self.cache_bytes[shard]

    def spare(self, shard: int, side: str) -> int:
        """Bytes the ``(shard, side)`` bucket can give above its floor."""
        floor = MIN_MEMTABLE_BYTES if side == "memtable" else 0
        return getattr(self, f"{side}_bytes")[shard] - floor

    def moved(
        self, source: tuple[int, str], target: tuple[int, str], nbytes: int
    ) -> "MemoryShares":
        """These shares with ``nbytes`` moved from one bucket to another;
        the caller keeps ``nbytes`` within the source's spare bytes."""
        sides = {side: list(getattr(self, f"{side}_bytes")) for side in SIDES}
        sides[source[1]][source[0]] -= nbytes
        sides[target[1]][target[0]] += nbytes
        return MemoryShares(*(tuple(sides[side]) for side in SIDES))


def apportion_bytes(
    pool: int, weights: Sequence[float], floor: int = 0
) -> list[int]:
    """Split ``pool`` bytes proportionally to ``weights``, exactly.

    Every share gets at least ``floor``; the remainder above the floors
    is distributed by largest-remainder rounding (deterministic ties:
    larger fractional remainder first, then lower index). The returned
    shares always sum to exactly ``pool``.
    """
    if not weights:
        return []
    if pool < floor * len(weights):
        raise ConfigurationError(
            f"pool of {pool} bytes cannot give {len(weights)} shares a "
            f"floor of {floor}"
        )
    if any(weight < 0 for weight in weights):
        raise ConfigurationError("weights cannot be negative")
    spare = pool - floor * len(weights)
    total_weight = sum(weights)
    if total_weight <= 0.0:
        # No signal: split the spare evenly (same largest-remainder
        # discipline, uniform weights).
        weights = [1.0] * len(weights)
        total_weight = float(len(weights))
    quotas = [spare * weight / total_weight for weight in weights]
    shares = [int(quota) for quota in quotas]
    leftover = spare - sum(shares)
    by_remainder = sorted(
        range(len(weights)),
        key=lambda index: (quotas[index] - shares[index], -index),
        reverse=True,
    )
    for index in by_remainder[:leftover]:
        shares[index] += 1
    return [floor + share for share in shares]


class MemoryBudget:
    """One global byte budget over ``num_shards`` shards.

    Validated once, at construction: the even starting split must give
    every shard its memtable floor, so a caller holding a budget knows
    :meth:`initial` succeeds.
    """

    def __init__(self, total_bytes: int, num_shards: int) -> None:
        if total_bytes <= 0:
            raise ConfigurationError("memory budget must be positive")
        if num_shards < 1:
            raise ConfigurationError("need at least one shard")
        if total_bytes // 2 < num_shards * MIN_MEMTABLE_BYTES:
            raise ConfigurationError(
                f"budget of {total_bytes} bytes cannot give {num_shards} "
                f"shard(s) a {MIN_MEMTABLE_BYTES}-byte memtable floor in "
                f"half of it"
            )
        self.total_bytes = total_bytes
        self.num_shards = num_shards

    @property
    def step_bytes(self) -> int:
        """Bytes one rebalance moves: a constant share of a shard's
        share of the budget."""
        return int(self.total_bytes / self.num_shards * STEP_SHARE)

    def initial(self) -> MemoryShares:
        """The even starting split: each shard's share half memtable,
        half cache."""
        write_pool = self.total_bytes // 2
        even = [1.0] * self.num_shards
        return MemoryShares(
            tuple(apportion_bytes(write_pool, even)),
            tuple(apportion_bytes(self.total_bytes - write_pool, even)),
        )
