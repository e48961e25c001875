"""The store's point-in-time summary (:class:`StoreStats`), read off its
parts, and the gauges a scrape sets from it.

:func:`snapshot` reads each figure from the part that owns it — the
memtables and the run set off the current version, the run-set counts,
the throttle and the cache off the compaction manager, the stall counts
off the maintenance executor, the log's size and the bytes ingested —
in one hold of the store lock, which every maintenance step also holds,
so no snapshot mixes pre- and post-merge values (``wal_bytes`` from
before a checkpoint with ``components_per_level`` from after).
"""

from __future__ import annotations

from dataclasses import dataclass

from .rotation import sealed_slots


@dataclass(frozen=True)
class StoreStats:
    """A point-in-time summary of the store's state.

    ``write_stalls`` counts *writes* that observed a stalled tree (once
    per stalled write, not per polling iteration) and
    ``stall_seconds_total`` accumulates the wall-clock time those writes
    spent blocked in the headroom gate. ``write_stalled`` and
    ``write_headroom`` are instantaneous backpressure signals for
    admission controllers: headroom is the remaining fraction of the
    component budget (0.0 = stalled right now). ``memtable_bytes``
    counts sealed memtables awaiting flush as well as the active one.
    ``ingested_bytes`` is cumulative over the store's lifetime, and the
    cache counters are the :class:`BlockCache`'s cumulative totals:
    ``cache_misses``, the data blocks queries read (every block lookup),
    and ``row_hits`` and ``scan_hits``, the gets a cached row or span
    answered and the scans cached spans answered (with the memtables'
    rows between them) with none;
    ``scan_span_rows`` counts the rows scans took from spans.
    Their deltas between two snapshots measure write and read traffic.
    ``ghost_hit_bytes`` counts the bytes of lookups a larger cache would
    have served: with ``ingested_bytes``, the memory arbiter's signals.
    """

    memtable_entries: int
    memtable_bytes: int
    sealed_memtables: int
    num_memtables: int
    disk_components: int
    components_per_level: dict[int, int]
    merges_completed: int
    write_stalls: int
    stall_seconds_total: float
    wal_bytes: int
    write_stalled: bool
    write_headroom: float
    throttle_sleep_seconds: float
    block_cache_used_bytes: int
    #: Fields a hand-built snapshot (a test fixture) may leave out.
    quarantined_runs: int = 0
    row_hits: int = 0
    scan_hits: int = 0
    scan_span_rows: int = 0
    ingested_bytes: int = 0
    #: Always 0, as no block is cached: ``bench/server_proc.py`` reads it.
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    ghost_hit_bytes: int = 0

    @property
    def memory_fill(self) -> float:
        """Sealed-memtable queue occupancy in [0, 1].

        1.0 means every spare memory component is waiting on a flush —
        the next rotation forces the writer into inline maintenance (a
        flush stall). The memory-pressure companion to
        ``write_headroom``; graceful admission keys off both.
        """
        return min(1.0, self.sealed_memtables / sealed_slots(self.num_memtables))


def snapshot(num_memtables, compaction, maintenance, log, rotation) -> StoreStats:
    """The store's :class:`StoreStats` (store lock held)."""
    version, cache = compaction.version, compaction.block_cache
    return StoreStats(
        memtable_entries=len(version.active),
        # Sealed memtables awaiting flush are still live write memory:
        # reporting only the (freshly empty) active one would zero the
        # figure right after every rotation and fool any controller
        # keying off memory occupancy.
        memtable_bytes=sum(m.approximate_bytes for m in version.memtables),
        sealed_memtables=len(version.sealed),
        num_memtables=num_memtables,
        disk_components=compaction.component_count,
        components_per_level=version.levels,
        quarantined_runs=len(compaction.quarantine),
        merges_completed=compaction.merges_completed,
        write_stalls=maintenance.stall_count,
        stall_seconds_total=maintenance.stall_seconds,
        wal_bytes=log.size_bytes,
        write_stalled=version.write_stalled,
        write_headroom=version.write_headroom,
        throttle_sleep_seconds=compaction.rate_limiter.total_sleep_seconds,
        block_cache_used_bytes=cache.used_bytes,
        row_hits=cache.row_hits,
        scan_hits=cache.scan_hits,
        scan_span_rows=cache.scan_span_rows,
        ingested_bytes=rotation.ingested_bytes,
        cache_misses=cache.misses,
        cache_evictions=cache.evictions,
        ghost_hit_bytes=cache.ghost_hit_bytes,
    )


def set_gauges(registry, stats: StoreStats, compaction) -> None:
    """Set the point-in-time gauges from ``stats`` and the compaction
    manager's merges and cache, after adding what the cache's counters
    grew by."""
    cache = compaction.block_cache
    cache.count_into(registry)
    queue_depth = stats.sealed_memtables + compaction.merge_jobs_in_flight
    for name, help_text, value in (
        ("engine_write_headroom",
         "Remaining component budget fraction (0 = stalled).",
         stats.write_headroom),
        ("engine_memory_fill",
         "Sealed-memtable queue occupancy in [0, 1].", stats.memory_fill),
        ("engine_wal_bytes", "Current write-ahead log size.", stats.wal_bytes),
        ("engine_disk_components", "Live disk components.",
         stats.disk_components),
        ("engine_write_stalled",
         "1 when the write gate is closed right now.", stats.write_stalled),
        ("engine_quarantined_runs",
         "Runs currently fenced off from reads as corrupt.",
         stats.quarantined_runs),
        ("engine_maintenance_queue_depth",
         "Sealed memtables plus in-flight merge jobs.", queue_depth),
        ("engine_block_cache_capacity_bytes",
         "Current cache byte budget.", cache.capacity_bytes),
        ("engine_block_cache_used_bytes",
         "Bytes of rows and spans the cache holds.", cache.used_bytes),
    ):
        registry.gauge(name, help=help_text).set(value)
