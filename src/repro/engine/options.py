"""Configuration for the real storage engine (:mod:`repro.engine`).

The engine mirrors the paper's testbed settings: 4 KB pages, two memory
components and an I/O rate limiter for flush/merge writes (its Bloom
filter sizing and 16 MB periodic forces are constants beside the run
writer, :mod:`repro.engine.compaction`). Policies and schedulers are
named, and built, as in the simulation harness: by :mod:`repro.core.factory`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..core import factory
from ..errors import ConfigurationError
from . import blockcodec, filters

#: Sentinel stored in memtables and sorted runs for deletions.
TOMBSTONE = None

#: Names the factory builds that the engine refuses, and why.
SIMULATOR_ONLY = {
    "partitioned": "the engine writes no range-partitioned runs",
    "spring": "the engine has no spring-and-gear write control",
}

#: The merge policies the engine runs.
ENGINE_POLICIES = tuple(p for p in factory.POLICIES if p not in SIMULATOR_ONLY)


@dataclass(frozen=True)
class StoreOptions:
    """All engine knobs, validated at construction.

    Attributes
    ----------
    memtable_bytes:
        Memory component budget before a flush is triggered.
    num_memtables:
        Memory components (one active, the rest flushing); paper: 2.
    policy:
        Merge policy name: ``tiering`` / ``leveling`` / ``lazy-leveling``
        / ``size-tiered`` (``partitioned`` is refused, see
        :data:`SIMULATOR_ONLY`).
    size_ratio:
        The policy's size ratio ``T`` (whole under tiering, lazy leveling).
    scheduler:
        Merge scheduler name: ``single`` / ``fair`` / ``greedy`` /
        ``greedy-<k>`` (``spring`` is refused).
    constraint_limit:
        Global component-count limit (0 = derive as twice the policy's
        expected component count once the tree shape is known).
    levels:
        On-disk levels for leveling/tiering policies.
    block_bytes:
        Data block (page) size; paper: 4 KB.
    block_codec:
        Per-block compression codec for new sorted runs (``none`` /
        ``zlib``; see :mod:`repro.engine.blockcodec`). Existing runs
        keep their recorded codec; merges rewrite them under this one.
    filter_kind:
        Point-filter implementation for new runs, one of
        :func:`repro.engine.filters.available_filters` (``bloom``).
        Readers dispatch on the serialized filter's magic.
    merge_chunk_bytes:
        Merge input bytes processed per scheduler consultation (0 =
        the compaction manager's 1 MB default). Smaller chunks make
        merge progress finer-grained — and merge lag, hence write
        stalls, realistic at small scales.
    maintenance_chunks_per_rotation:
        Merge chunks the inline maintenance pump advances per memtable
        rotation (0 = auto: enough to keep merges paced with
        ingestion). Setting this *below* the auto pacing models a merge
        bandwidth deficit, so ingestion outruns compaction and the
        component constraint produces genuine transient write stalls —
        the regime the paper studies. Ignored by background mode. Kept
        for the deterministic stall tests; it goes with inline mode once
        ``bench/`` picks the drive mode in one place.
    rate_limit_bytes_per_s:
        Flush/merge write throttle (paper: 100 MB/s); 0 disables.
    block_cache_bytes:
        Shared LRU block cache over all sorted runs (the engine's
        buffer cache; paper's testbed used 2 GB). 0 disables.
    stall_mode:
        ``"block"`` (writers wait, the paper's stop mode) or ``"reject"``
        (raise :class:`~repro.errors.WriteStalledError`).
    background_maintenance:
        True runs flushes/merges on background maintenance workers;
        False runs them inline inside ``put`` (deterministic, the
        default for tests). A store that a server can shed writes from,
        or that scrubs, needs workers: a shed write drives nothing, and
        inline mode never claims a scrub chunk.
    maintenance_threads:
        Size of the background maintenance worker pool (ignored unless
        ``background_maintenance``). Workers claim a flush or a merge
        chunk under the store lock but perform the chunk's file I/O
        *outside* it, so maintenance overlaps foreground writes and —
        with more than one worker — with itself: one worker can flush
        while others advance different merges, sharing the rate-limiter
        budget. The default of 1 preserves the single-maintenance-thread
        behaviour (now with I/O off the store lock).
    scrub_interval:
        Seconds between background scrub passes over the on-disk runs
        (0, the default, disables scrubbing). The scrubber runs on the
        maintenance worker pool at lower priority than flushes and
        merges, verifying one data block's checksum per claim, so a
        pass's I/O is spread across many claims instead of bursting.
    scrub_rate_bytes_per_s:
        Dedicated throttle for scrub reads (0 = unthrottled beyond the
        shared maintenance limiter). Scrub I/O is *also* debited against
        ``rate_limit_bytes_per_s``'s budget, so verification provably
        competes with — never adds to — the maintenance I/O the
        foreground already absorbs.
    sync_writes:
        fsync the WAL on every commit batch (durability over speed).
    group_commit:
        Batch concurrent writers' WAL appends into frame groups: one
        leader drains the commit queue, appends every parked batch as
        consecutive frames, and issues a *single* fsync for the group
        (the RocksDB/LevelDB group-commit discipline). Each batch keeps
        its own frame and its own ``[lsn, lsn + length)``, so
        replication cursors and ack policies are unchanged. Most useful
        with ``sync_writes=True``, where it amortises the per-commit
        fsync across every writer parked during the previous sync.
    fault_plan:
        Optional :class:`repro.faults.FaultPlan` (duck-typed on a
        ``wrap(file, site)`` method) injected into the WAL, manifest,
        and SSTable writers for deterministic crash/corruption testing.
        None (the default) adds no overhead to the I/O path.
    obs:
        Optional :class:`repro.obs.Observability` bundle (duck-typed on
        ``registry``/``tracer``/``clock`` attributes) the store records
        its metrics and lifecycle events into. None (the default) makes
        the store create a private bundle, reachable as ``store.obs`` —
        the serving tier passes its own so engine and server series land
        in one registry.
    """

    memtable_bytes: int = 4 * 2**20
    num_memtables: int = 2
    policy: str = "tiering"
    size_ratio: float = 3
    scheduler: str = "greedy"
    constraint_limit: int = 0
    levels: int = 4
    block_bytes: int = 4096
    block_codec: str = "none"
    filter_kind: str = "bloom"
    merge_chunk_bytes: int = 0
    maintenance_chunks_per_rotation: int = 0
    rate_limit_bytes_per_s: int = 0
    block_cache_bytes: int = 8 * 2**20
    stall_mode: str = "block"
    background_maintenance: bool = False
    maintenance_threads: int = 1
    scrub_interval: float = 0.0
    scrub_rate_bytes_per_s: int = 0
    sync_writes: bool = False
    group_commit: bool = False
    fault_plan: object | None = None
    obs: object | None = None

    def __post_init__(self) -> None:
        if self.fault_plan is not None and not callable(
            getattr(self.fault_plan, "wrap", None)
        ):
            raise ConfigurationError(
                "fault_plan must expose a wrap(file, site) method"
            )
        if self.obs is not None and not all(
            hasattr(self.obs, attribute)
            for attribute in ("registry", "tracer", "clock")
        ):
            raise ConfigurationError(
                "obs must expose registry, tracer, and clock attributes"
            )
        if self.memtable_bytes < 4096:
            raise ConfigurationError("memtable budget is implausibly small")
        if self.num_memtables < 1:
            raise ConfigurationError("need at least one memory component")
        for name in (self.policy, self.scheduler):
            if name in SIMULATOR_ONLY:
                raise ConfigurationError(
                    f"{name!r} runs only in the simulator: "
                    f"{SIMULATOR_ONLY[name]}"
                )
        # A bad name or ratio fails here, before a store opens any file.
        self.merge_decisions()
        if self.block_bytes < 128:
            raise ConfigurationError("block size too small")
        if self.block_codec not in blockcodec.available_codecs():
            raise ConfigurationError(
                f"unknown block codec {self.block_codec!r}; available: "
                f"{', '.join(blockcodec.available_codecs())}"
            )
        if self.filter_kind not in filters.available_filters():
            raise ConfigurationError(
                f"unknown filter kind {self.filter_kind!r}; available: "
                f"{', '.join(filters.available_filters())}"
            )
        if self.merge_chunk_bytes < 0:
            raise ConfigurationError("merge chunk size cannot be negative")
        if self.maintenance_chunks_per_rotation < 0:
            raise ConfigurationError(
                "maintenance chunks per rotation cannot be negative"
            )
        if self.rate_limit_bytes_per_s < 0:
            raise ConfigurationError("rate limit cannot be negative")
        if self.block_cache_bytes < 0:
            raise ConfigurationError("block cache cannot be negative")
        if self.stall_mode not in ("block", "reject"):
            raise ConfigurationError(f"unknown stall mode {self.stall_mode!r}")
        if self.maintenance_threads < 1:
            raise ConfigurationError(
                "need at least one maintenance worker"
            )
        if self.scrub_interval < 0:
            raise ConfigurationError("scrub interval cannot be negative")
        if self.scrub_interval > 0 and not self.background_maintenance:
            raise ConfigurationError(
                "scrubbing runs on maintenance workers: scrub_interval "
                "needs background_maintenance=True"
            )
        if self.scrub_rate_bytes_per_s < 0:
            raise ConfigurationError("scrub rate cannot be negative")

    def merge_decisions(self) -> tuple:
        """The ``(policy, scheduler, global constraint)`` these options
        name, built fresh by :mod:`repro.core.factory`."""
        policy = factory.build_policy(
            self.policy, self.size_ratio, self.levels, self.memtable_bytes
        )
        return (
            policy,
            factory.build_scheduler(self.scheduler, policy),
            factory.build_constraint("global", policy, limit=self.constraint_limit),
        )

    def with_(self, **overrides) -> "StoreOptions":
        """Functional update."""
        return replace(self, **overrides)
