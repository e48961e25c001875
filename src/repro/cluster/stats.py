"""Aggregated cluster statistics: every shard's
:class:`~repro.engine.StoreStats` snapshot plus the cluster-wide rollups
(``write_stalled`` anywhere, worst ``memory_fill``, summed
``stall_seconds_total``, …) that STATS serves. Global-scope admission
(:mod:`repro.cluster.admission`) judges the same worst signals.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

from ..engine.datastore import StoreStats
from ..errors import ConfigurationError


@dataclass(frozen=True)
class ClusterStats:
    """Point-in-time cluster summary: per-shard snapshots + rollups."""

    per_shard: tuple[StoreStats, ...]
    write_stalled: bool
    stalled_shards: tuple[int, ...]
    memory_fill: float
    write_headroom: float
    stall_seconds_total: float
    write_stalls: int
    disk_components: int
    memtable_entries: int
    wal_bytes: int

    @property
    def num_shards(self) -> int:
        """How many shards contributed."""
        return len(self.per_shard)

    def snapshot(self) -> dict:
        """Plain-dict view (per-shard + rollups) for STATS responses."""
        return {
            "shards": [
                dict(
                    asdict(stats),
                    components_per_level={
                        str(level): count
                        for level, count in stats.components_per_level.items()
                    },
                    memory_fill=stats.memory_fill,
                )
                for stats in self.per_shard
            ],
            "cluster": {
                "num_shards": self.num_shards,
                "write_stalled": self.write_stalled,
                "stalled_shards": list(self.stalled_shards),
                "memory_fill": self.memory_fill,
                "write_headroom": self.write_headroom,
                "stall_seconds_total": self.stall_seconds_total,
                "write_stalls": self.write_stalls,
                "disk_components": self.disk_components,
                "memtable_entries": self.memtable_entries,
                "wal_bytes": self.wal_bytes,
            },
        }


def aggregate_stats(snapshots: Sequence[StoreStats]) -> ClusterStats:
    """Roll per-shard snapshots up into one :class:`ClusterStats`."""
    if not snapshots:
        raise ConfigurationError("cannot aggregate zero shard snapshots")
    return ClusterStats(
        per_shard=tuple(snapshots),
        write_stalled=any(stats.write_stalled for stats in snapshots),
        stalled_shards=tuple(
            shard
            for shard, stats in enumerate(snapshots)
            if stats.write_stalled
        ),
        memory_fill=max(stats.memory_fill for stats in snapshots),
        write_headroom=min(stats.write_headroom for stats in snapshots),
        stall_seconds_total=sum(
            stats.stall_seconds_total for stats in snapshots
        ),
        write_stalls=sum(stats.write_stalls for stats in snapshots),
        disk_components=sum(stats.disk_components for stats in snapshots),
        memtable_entries=sum(stats.memtable_entries for stats in snapshots),
        wal_bytes=sum(stats.wal_bytes for stats in snapshots),
    )
