"""The node-wide memory budget and its deterministic splitting rules.

One :class:`MemoryBudget` owns a single byte budget per node and knows
how to carve it, at any write/read split point, into per-shard memtable
targets and block-cache capacities. Splitting is pure arithmetic —
weights in, integer byte shares out — so the arbiter's decisions are
reproducible from its input signals alone: proportional shares use
largest-remainder rounding with a fixed tie order (larger remainder
first, lower shard id on ties), and every shard's write share is
floored so a starved shard can still rotate memtables.

Following *Breaking Down Memory Walls* (Luo & Carey), the budget is
arbitrated along two axes: the **write/read split** (how much of the
node goes to memtables versus block caches) and the **per-shard
shares** within each side (hot read tenants gain cache, write-heavy
tenants gain memtable). :class:`repro.memory.MemoryArbiter` moves both
axes from observed signals; this module only guarantees the carving is
exact — shares always sum to their pool — and honors the floors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..errors import ConfigurationError

#: Smallest write-memory target one shard may be squeezed to. Matches
#: the engine's own floor with headroom: below this, rotation overhead
#: dominates and the flush pipeline degenerates.
MIN_MEMTABLE_BYTES = 64 * 1024


@dataclass(frozen=True)
class MemoryShares:
    """One concrete carving of the budget: per-shard byte targets."""

    write_fraction: float
    memtable_bytes: tuple[int, ...]
    cache_bytes: tuple[int, ...]

    @property
    def total_bytes(self) -> int:
        """Bytes accounted for (always the full budget)."""
        return sum(self.memtable_bytes) + sum(self.cache_bytes)


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
    """One global byte budget, split between write and read memory.

    The budget validates once, at construction, that its floors are
    satisfiable at the most write-starved allowed split — so a caller
    holding a :class:`MemoryBudget` knows every ``split()`` within the
    clamp range succeeds.
    """

    def __init__(
        self,
        total_bytes: int,
        num_shards: int,
        *,
        min_write_fraction: float = 0.1,
        max_write_fraction: float = 0.9,
    ) -> None:
        if total_bytes <= 0:
            raise ConfigurationError("memory budget must be positive")
        if num_shards < 1:
            raise ConfigurationError("need at least one shard")
        if not 0.0 < min_write_fraction <= max_write_fraction < 1.0:
            raise ConfigurationError(
                "need 0 < min_write_fraction <= max_write_fraction < 1"
            )
        if int(total_bytes * min_write_fraction) < (
            num_shards * MIN_MEMTABLE_BYTES
        ):
            raise ConfigurationError(
                f"budget of {total_bytes} bytes cannot give {num_shards} "
                f"shard(s) a {MIN_MEMTABLE_BYTES}-byte memtable floor at "
                f"the minimum write fraction {min_write_fraction}"
            )
        self.total_bytes = total_bytes
        self.num_shards = num_shards
        self.min_write_fraction = min_write_fraction
        self.max_write_fraction = max_write_fraction

    def clamp_fraction(self, write_fraction: float) -> float:
        """Pull a proposed write fraction back inside the allowed band."""
        return min(
            self.max_write_fraction,
            max(self.min_write_fraction, write_fraction),
        )

    def split(
        self,
        write_fraction: float,
        write_weights: Mapping[int, float] | Sequence[float],
        read_weights: Mapping[int, float] | Sequence[float],
    ) -> MemoryShares:
        """Carve the budget at ``write_fraction`` into per-shard shares."""
        fraction = self.clamp_fraction(write_fraction)
        writes = self._as_list(write_weights)
        reads = self._as_list(read_weights)
        write_pool = int(self.total_bytes * fraction)
        read_pool = self.total_bytes - write_pool
        return MemoryShares(
            write_fraction=fraction,
            memtable_bytes=tuple(
                apportion_bytes(
                    write_pool, writes, floor=MIN_MEMTABLE_BYTES
                )
            ),
            cache_bytes=tuple(apportion_bytes(read_pool, reads)),
        )

    def _as_list(
        self, weights: Mapping[int, float] | Sequence[float]
    ) -> list[float]:
        if isinstance(weights, Mapping):
            listed = [
                float(weights.get(shard, 0.0))
                for shard in range(self.num_shards)
            ]
        else:
            listed = [float(weight) for weight in weights]
        if len(listed) != self.num_shards:
            raise ConfigurationError(
                f"expected {self.num_shards} weights, got {len(listed)}"
            )
        return listed
