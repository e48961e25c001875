"""Aggregated cluster statistics and the global-constraint stats view.

Two views of the same per-shard :class:`~repro.engine.StoreStats`
snapshots:

* :class:`ClusterStats` — monitoring: every shard's snapshot plus the
  cluster-wide rollups (``write_stalled`` anywhere, worst
  ``memory_fill``, summed ``stall_seconds_total``, …).
* :func:`worst_case_stats` — admission: one synthetic ``StoreStats``
  carrying the *worst* backpressure signal observed on any shard. A
  per-engine controller fed this view behaves like the paper's global
  component constraint lifted to the cluster: one saturated shard makes
  the whole cluster look saturated. Feeding the controller a single
  shard's own snapshot instead yields the local constraint.
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


def worst_case_stats(snapshots: Sequence[StoreStats]) -> StoreStats:
    """One synthetic snapshot carrying the worst signal per dimension.

    The flush-backlog pair (``sealed_memtables``, ``num_memtables``) is
    taken from the shard with the highest ``memory_fill`` so the derived
    property reports the worst fill; counters are summed so totals still
    mean something in reports.
    """
    if not snapshots:
        raise ConfigurationError("cannot merge zero shard snapshots")
    fullest = max(snapshots, key=lambda stats: stats.memory_fill)
    levels: dict[int, int] = {}
    for stats in snapshots:
        for level, count in stats.components_per_level.items():
            levels[level] = levels.get(level, 0) + count
    return StoreStats(
        memtable_entries=sum(s.memtable_entries for s in snapshots),
        memtable_bytes=sum(s.memtable_bytes for s in snapshots),
        sealed_memtables=fullest.sealed_memtables,
        num_memtables=fullest.num_memtables,
        disk_components=sum(s.disk_components for s in snapshots),
        components_per_level=levels,
        merges_completed=sum(s.merges_completed for s in snapshots),
        write_stalls=sum(s.write_stalls for s in snapshots),
        stall_seconds_total=sum(s.stall_seconds_total for s in snapshots),
        wal_bytes=sum(s.wal_bytes for s in snapshots),
        write_stalled=any(s.write_stalled for s in snapshots),
        write_headroom=min(s.write_headroom for s in snapshots),
        throttle_sleep_seconds=sum(
            s.throttle_sleep_seconds for s in snapshots
        ),
        block_cache_hit_rate=min(s.block_cache_hit_rate for s in snapshots),
        block_cache_used_bytes=sum(
            s.block_cache_used_bytes for s in snapshots
        ),
        row_hits=sum(s.row_hits for s in snapshots),
    )
