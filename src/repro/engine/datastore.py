"""The public storage engine API: an embeddable LSM key-value store::

    from repro.engine import LSMStore, StoreOptions

    with LSMStore.open("/tmp/db", StoreOptions(policy="tiering")) as store:
        store.put(b"k", b"v")
        value = store.get(b"k")
        for key, value in store.scan(b"a", b"z"):
            ...

Writes go to the log then the active memtable; a full memtable is sealed
and flushed as a level-0 run; when merges lag, the component constraint
stalls writers at its gate (the paper's "stop" interaction, Section
5.1.2), or answers None to one that must not wait (``wait=False``).

:class:`LSMStore` keeps the options, the lock, the write and read paths
and the lifecycle, and is the public face of four parts behind that one
lock. They form a one-way graph — store → maintenance → log → rotation
→ compaction — and none calls back into the store:
:class:`~.maintenance.MaintenanceExecutor` (flush, merge, scrub and
repair tasks, on its worker or the caller; the waits a write can meet),
:class:`~.commitlog.CommitLog` (the log, LSNs, group commit, and the
store's closed flag), :class:`~.rotation.Rotation` (the memtable target
and when to seal) and :class:`~.compaction.CompactionManager` (the run
set and the current :class:`~.version.Version`, which names the
memtables too and which reads pin) — ``docs/engine-concurrency.md``.
"""

from __future__ import annotations

import contextlib
import os
import threading
from typing import Iterator, NamedTuple

from ..errors import ClosedError, ConfigurationError
from ..obs import Observability
from . import images, stats
from .blockcache import ghost_bytes_for
from .commitlog import CommitLog, WalPosition
from .compaction import CompactionManager
from .images import RunImage
# ``bench/trace.py`` patches this name; nothing here calls it.
from .iterators import reconciling_iterator  # noqa: F401
from .maintenance import MaintenanceExecutor
from .manifest import Manifest
from .options import StoreOptions, TOMBSTONE
from .quarantine import QuarantineEntry
from .rotation import Rotation
from .stats import StoreStats
from .version import read_retrying


class WriteTiming(NamedTuple):
    """Where one write's time went (the engine leg of a request breakdown).

    ``engine_seconds`` runs from the moment the write holds the store
    lock to its return; ``io_seconds`` is the log-append portion of it
    (under ``group_commit``, the whole park in the commit queue);
    ``stall_seconds`` is the portion spent at the stall gate. Every
    write builds one, hence a tuple: a frozen dataclass costs a
    microsecond, a sixth of a whole put. ``wal_offset``/``wal_end`` are
    the LSNs its commit frame starts and ends at (:class:`WalPosition`),
    which a replicated server's quorum/all acks wait for.
    """

    engine_seconds: float
    io_seconds: float
    stall_seconds: float
    wal_offset: int
    wal_end: int


class LSMStore:
    """An LSM-tree key-value store driven by the paper's core machinery."""

    def __init__(self, directory: str, options: StoreOptions | None = None) -> None:
        self._options = options or StoreOptions()
        self._directory = directory
        os.makedirs(directory, exist_ok=True)
        self._obs = self._options.obs or Observability()
        # Per-scan read amplification: blocks / rows is what a scan
        # paid in block lookups for each row it returned.
        registry = self._obs.registry
        self._m_scans = registry.counter(
            "engine_scans_total", help="Range scans served."
        )
        self._m_scan_rows = registry.counter(
            "engine_scan_rows_total", help="Rows returned by range scans."
        )
        self._m_scan_blocks = registry.counter(
            "engine_scan_blocks_total",
            help="Data-block lookups made by range scans.",
        )
        attach_tracer = getattr(self._options.fault_plan, "attach_tracer", None)
        if callable(attach_tracer):
            attach_tracer(self._obs.tracer)
        self._manifest = Manifest(directory, fault_plan=self._options.fault_plan)
        try:
            self._compaction = CompactionManager(
                directory, self._options, self._manifest, obs=self._obs
            )
        except BaseException:
            self._manifest.close()
            raise
        self._lock = threading.RLock()
        self._rotation = Rotation(self._options, self._obs, self._compaction)
        # Replays the log into the active memtable. take_position voids
        # what it reads back, before the log can take an append.
        self._log = CommitLog(
            os.path.join(directory, "wal.log"),
            sync=self._options.sync_writes,
            fault_plan=self._options.fault_plan,
            obs=self._obs,
            lock=self._lock,
            position=self._manifest.take_position(),
            memtables=self._rotation,
        )
        self._maintenance = MaintenanceExecutor(
            self._options, self._obs, self._lock, self._log,
            self._rotation, self._compaction,
        )

    # -- lifecycle -------------------------------------------------------

    @classmethod
    def open(cls, directory: str, options: StoreOptions | None = None) -> "LSMStore":
        """Open (or create) a store at ``directory``."""
        return cls(directory, options)

    def __enter__(self) -> "LSMStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _shut(self) -> bool:
        """Mark the store closed (the log's flag: it refuses appends from
        here) and join the worker, after it publishes or abandons its
        claimed task. False when the store was closed already."""
        with self._lock:
            if self._log.closed:
                return False
            self._log.closed = True
        self._maintenance.join()
        return True

    def close(self) -> None:
        """Flush buffered data, finish merges, and release resources:
        the worker is joined first, so the drain here races no claim."""
        if not self._shut():
            return
        self._log.settle()
        with self._lock:
            # Cuts the log too: without that the next open replays —
            # and later flushes again — data that is already in runs.
            self._maintenance.flush_memtables()
            self._maintenance.run_to_idle()
            self._manifest.compact(self._log.closing_record())
            self._compaction.close()
            self._log.close()
            self._manifest.close()

    def crash(self) -> None:
        """Simulate power loss (:mod:`repro.faults.crashsim`): release
        file handles and persist *nothing* — no flush, cut or compaction,
        so the directory is what a real crash recovers from, and the
        next open starts a new lineage. The store is unusable after."""
        if not self._shut():
            return
        with self._lock:
            for release in (
                self._compaction.close, self._log.close, self._manifest.close
            ):
                with contextlib.suppress(Exception):  # dying anyway
                    release()

    def _check_open(self) -> None:
        if self._log.closed:
            raise ClosedError("store is closed")

    # -- replication hooks -----------------------------------------------

    def set_commit_listener(self, listener) -> None:
        """Register (or clear) the replication hook observing log
        commits and cuts (:meth:`CommitLog.set_listener`)."""
        with self._lock:
            self._log.set_listener(listener)

    def wal_position(self) -> WalPosition:
        """The log's current :class:`WalPosition`; its ``lsn`` is where
        a fully caught-up follower's cursor sits."""
        with self._lock:
            return self._log.position()

    def read_log(self, lsn: int, limit: int) -> tuple[bytes, int]:
        """``(span, frames)``: the whole, CRC-valid frames from ``lsn``
        that fit in ``limit`` bytes (at least one; none when the log does
        not hold ``lsn``) — how replication ships the log, by LSN."""
        with self._lock:
            return self._log.read(lsn, limit)

    @property
    def upstream(self) -> tuple[int, int, int] | None:
        """A follower's replication cursor, ``(leader lineage, applied
        lsn, epoch)``; None for a store that follows nobody."""
        return self._log.upstream

    def set_upstream(self, cursor: tuple[int, int, int] | None) -> None:
        """Record how far this store has applied a leader's log
        (:meth:`CommitLog.set_upstream`)."""
        with self._lock:
            self._log.set_upstream(cursor)

    def reset_lineage(self) -> None:
        """Start a fresh lineage and forget the upstream cursor, as a
        follower taking over as leader does (:meth:`CommitLog.reset_lineage`)."""
        with self._lock:
            self._log.reset_lineage()

    # -- writes ----------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or update a key."""
        self._write([(key, value)])

    def delete(self, key: bytes) -> None:
        """Delete a key (adds an anti-matter entry)."""
        self._write([(key, TOMBSTONE)])

    def write_batch(self, batch: list[tuple[bytes, bytes | None]]) -> None:
        """Atomically log and apply a batch of puts/deletes."""
        self.timed_write_batch(batch)

    def timed_put(
        self, key: bytes, value: bytes, wait: bool = True
    ) -> WriteTiming | None:
        """``put`` that reports where its time went. With ``wait=False``
        it (as :meth:`timed_delete` and :meth:`timed_write_batch`) commits
        only if that is a log append and a memtable insert, and otherwise
        returns None having changed nothing (:meth:`_write`)."""
        return self._write([(key, value)], wait)

    def timed_delete(
        self, key: bytes, wait: bool = True
    ) -> WriteTiming | None:
        """``delete`` that reports where its time went."""
        return self._write([(key, TOMBSTONE)], wait)

    def timed_write_batch(
        self, batch: list[tuple[bytes, bytes | None]], wait: bool = True
    ) -> WriteTiming | None:
        """``write_batch`` that reports where its time went."""
        if not batch:
            raise ConfigurationError("empty batch")
        return self._write(batch, wait)

    def _write(
        self, batch: list[tuple[bytes, bytes | None]], wait: bool = True
    ) -> WriteTiming | None:
        """The one write body: stall gate, log, memtable, rotation.

        ``wait=False`` is for a caller that must not park (an event
        loop's thread): every reason to wait is checked before the log
        append (:meth:`Rotation.would_wait`), under a lock taken without
        blocking, so None means nothing changed and the caller can
        repeat the call with ``wait=True`` from a thread that may park.

        The clock is read once the store lock is held, around the log
        append, and at the end. Under ``group_commit`` the commit is the
        log's leader/follower protocol, entered with the lock released;
        the writer rotates after it returns. A committed write whose
        store closes before or during its rotation returns all the same
        (:meth:`MaintenanceExecutor.rotate_if_full`): its close flushes
        what the write left.
        """
        options = self._options
        if not wait:
            if options.sync_writes or options.group_commit:
                return None  # an fsync is a wait
            if not self._lock.acquire(blocking=False):
                return None
            try:
                self._check_open()
                if self._rotation.would_wait(batch):
                    return None
                return self._write(batch)
            finally:
                self._lock.release()
        clock = self._obs.clock
        with self._lock:
            self._check_open()
            started = clock()
            stall_seconds = self._maintenance.await_headroom()
            if not options.group_commit:
                lsn, length, io_seconds = self._log.commit(batch)
                self._maintenance.rotate_if_full()
        if options.group_commit:
            io_started = clock()
            lsn, length = self._log.commit_grouped(batch)
            io_seconds = clock() - io_started
            with self._lock:
                self._maintenance.rotate_if_full()
        return WriteTiming(
            clock() - started, io_seconds, stall_seconds, lsn, lsn + length
        )

    # -- maintenance -----------------------------------------------------

    def maintenance(self, max_steps: int = 1_000_000) -> None:
        """Run flushes and merges to quiescence."""
        with self._lock:
            self._check_open()
            self._maintenance.run_to_idle(max_steps)

    def flush(self) -> None:
        """Seal and flush the active memtable, then cut the log if it
        may be (a flush before this one may have been refused a cut)."""
        with self._lock:
            self._check_open()
            self._maintenance.flush_memtables()

    def checkpoint(self, target_directory: str) -> int:
        """Copy :meth:`run_image` into ``target_directory`` as a store of
        its own (:func:`.images.copy_files`), then a manifest of the
        image's runs. Returns their number."""
        target = os.path.abspath(target_directory)
        if os.path.exists(target) and os.listdir(target):
            raise ConfigurationError(f"checkpoint target {target!r} is not empty")
        os.makedirs(target, exist_ok=True)
        image = self.run_image()
        images.copy_files(image, self._directory, target)
        self._manifest.write_snapshot(
            os.path.join(target, "MANIFEST"), records=image.records
        )
        return len(image.records)

    # -- whole-store images ----------------------------------------------

    def run_image(self) -> RunImage:
        """Freeze the live runs: what a reset ships, and a checkpoint
        copies. Buffered writes are flushed first, then the records, the
        files and the LSN are read in one lock hold with every memtable
        empty (:func:`.images.freeze`, which refuses while a run is
        quarantined)."""
        with self._lock:
            self._check_open()
            self._maintenance.flush_memtables()
            return images.freeze(
                self._manifest.live_runs(), self._compaction,
                self._log.applied(),
            )

    def new_run_names(self, count: int) -> list[str]:
        """Names for files of runs no edit added yet (those a crash
        leaves unnamed are orphans, which the next open sweeps)."""
        with self._lock:
            return [
                f"{self._manifest.allocate_run_id():08d}.run"
                for _ in range(count)
            ]

    def install_image(self, runs: list[tuple[int, tuple[str, ...]]]) -> None:
        """Make ``runs`` — ``(level, file names)``, oldest first, written
        under :meth:`new_run_names` — the whole store, as a reset does:
        checked and synced (:func:`.images.stage`), then in one lock hold
        the log cut and one edit swapping every run for ``runs`` and
        forgetting the memtables: a crash reopens to either run set."""
        images.stage(self._directory, runs)
        with self._lock:
            self._check_open()
            self._maintenance.drop_pending()
            self._log.checkpoint()  # what the memtables hold is dropped
            self._compaction.install(runs)

    # -- memory arbitration ----------------------------------------------

    def set_memory_budget(self, memtable_bytes: int, cache_bytes: int) -> None:
        """Retarget write memory and read cache at runtime (the knob
        :class:`repro.memory.MemoryArbiter` drives): the memtable target
        from the next rotation check (nothing is forced mid-write), the
        block cache at once, evicting LRU entries when it shrinks."""
        if memtable_bytes < 4096:
            raise ConfigurationError("memtable budget is implausibly small")
        if cache_bytes < 0:
            raise ConfigurationError("cache budget cannot be negative")
        with self._lock:
            self._check_open()
            self._rotation.target = memtable_bytes
        # The cache has its own leaf lock; resizing outside the store
        # lock keeps eviction work off the write path.
        self._compaction.block_cache.resize(
            cache_bytes, ghost_bytes_for(memtable_bytes, cache_bytes)
        )
        for component, budget in (
            ("memtable", memtable_bytes), ("block_cache", cache_bytes)
        ):
            self._obs.registry.gauge(
                "memory_budget_bytes",
                labels={"component": component},
                help="Current memtable target and cache capacity, as "
                "set by the arbiter.",
            ).set(float(budget))

    @property
    def memtable_target_bytes(self) -> int:
        """The live memtable threshold (options seed it, the arbiter moves it)."""
        with self._lock:
            return self._rotation.target

    def memory_signals(self) -> StoreStats:
        """:meth:`stats`, by the name ``bench/server_proc.py`` reads."""
        return self.stats()

    # -- reads -----------------------------------------------------------

    def _quarantine_read(self, run_id: int, reason: str) -> None:
        with self._lock:
            self._compaction.quarantine_run(run_id, reason, "read")

    def get(self, key: bytes) -> bytes | None:
        """Point lookup; None when absent (or deleted). Answered from the
        current :class:`~repro.engine.version.Version` without the store
        lock (:meth:`Version.get`); a checksum failure is read again, then
        quarantines the run (:func:`~repro.engine.version.read_retrying`)."""
        return read_retrying(self._get, self._quarantine_read, key)

    def _get(self, key: bytes) -> bytes | None:
        cache = self._compaction.block_cache
        epoch = cache.epoch  # before the pin: a later write refuses the row
        version = self._compaction.version
        self._check_open()  # after the pin: close() lets go of the runs
        value, from_run = version.get(key, cache)
        if from_run:
            cache.put_row(key, value, epoch)
        return value

    def scan(
        self,
        lo: bytes | None = None,
        hi: bytes | None = None,
        limit: int | None = None,
    ) -> Iterator[tuple[bytes, bytes]]:
        """Ordered range scan over ``[lo, hi)``, at most ``limit`` rows.

        Snapshot-consistent: under the store lock the version is pinned
        and the cached spans the scan crosses and the active memtable's
        rows copied (:meth:`Version.plan_scan`); the rest is merged off
        it between the spans (:meth:`Version.scan`), and a scan that
        had a gap leaves its answer as a span (:meth:`BlockCache.put_span`,
        which refuses it if a write came since the pin). Scan huge ranges
        in pages; checksum failures are :meth:`get`'s."""
        if limit is not None and limit < 0:
            raise ConfigurationError("scan limit cannot be negative")
        return iter(
            read_retrying(self._scan, self._quarantine_read, lo, hi, limit)
        )

    def _scan(self, lo, hi, limit) -> list[tuple[bytes, bytes]]:
        cache = self._compaction.block_cache
        with self._lock:
            self._check_open()
            version = self._compaction.version
            version.fence(lo, hi)
            if limit == 0:
                return []
            epoch = cache.epoch
            plan = version.plan_scan(cache, lo or b"", hi, limit)
        results, blocks, taken = version.scan(plan, hi, limit)
        if plan.gap is not None:
            cache.put_span(lo, hi, limit, results, epoch)
        if plan.spans:
            hit = not blocks and (taken > 0 or plan.gap is None)
            cache.count_scan(taken, hit)
        self._m_scans.inc()
        self._m_scan_rows.inc(len(results))
        self._m_scan_blocks.inc(blocks)
        return results

    # -- corruption survival ---------------------------------------------

    def quarantine_run(
        self, run_id: int, reason: str, source: str = "read"
    ) -> bool:
        """Quarantine a live run by id: the manual override of a read's
        or a scrub's (operator/test hook). False when the run is not
        live or already quarantined."""
        with self._lock:
            self._check_open()
            entry = self._compaction.quarantine_run(run_id, reason, source)
            return entry is not None

    def live_runs(self) -> list:
        """The manifest's live run records (id, level, files), oldest
        first: a read-only operator/test hook."""
        with self._lock:
            self._check_open()
            return self._manifest.live_runs()

    def quarantined_entries(self) -> list[QuarantineEntry]:
        """The current quarantine registry, stable order."""
        with self._lock:
            self._check_open()
            return self._compaction.quarantine.entries()

    def corruption_status(self) -> dict:
        """JSON-safe quarantine + scrub progress (STATS verb, CLI)."""
        with self._lock:
            self._check_open()
            return {
                "quarantined": [
                    entry.to_wire()
                    for entry in self._compaction.quarantine.entries()
                ],
                "scrub": self._maintenance.scrub_summary(),
            }

    def repair_run(
        self, run_id: int, items: list[tuple[bytes, bytes]]
    ) -> bool:
        """Rebuild a quarantined run from replica-fetched data.

        ``items`` must be a replica's *live view* of the run's key
        bounds, captured at (or after) this store's WAL position when
        the fetch was issued (the leader's repair ticker enforces it via
        the FETCH_RANGE ack cursor). The run of
        :meth:`Version.repair_entries` is written and swapped in as a
        maintenance task (:meth:`MaintenanceExecutor.repair`). False when
        the run is no longer live, not quarantined, or feeding a merge.
        """
        with self._lock:
            self._check_open()
            entry = self._compaction.quarantine.get(run_id)
            if entry is None:
                return False
            entries = self._compaction.version.repair_entries(entry, items)
        return self._maintenance.repair(run_id, entries)

    # -- scrubbing --------------------------------------------------------

    def scrub_tick(self) -> bool:
        """Advance the scrubber by one claimed chunk on the caller, as a
        worker would. False when nothing was claimable: the scrubber is
        idle, not yet due, or another executor holds the claim."""
        return self._maintenance.scrub_tick()

    def scrub_pass(self) -> dict:
        """Force one full scrub pass, whatever the interval, and return
        its summary once it completes (the worker may run part of it)."""
        return self._maintenance.scrub_pass()

    # -- introspection ---------------------------------------------------

    def stats(self) -> StoreStats:
        """Snapshot of store internals (for monitoring and tests), read
        in one hold of the store lock (:func:`.stats.snapshot`)."""
        with self._lock:
            return stats.snapshot(
                self._options.num_memtables, self._compaction,
                self._maintenance, self._log, self._rotation,
            )

    @property
    def obs(self):
        """The store's observability bundle: registry, tracer and time."""
        return self._obs

    @property
    def rate_limiter(self):
        """The shared flush/merge/scrub throttle (introspection only):
        ``total_admitted_bytes`` over time is the maintenance I/O."""
        return self._compaction.rate_limiter

    def refresh_gauges(self) -> StoreStats:
        """Sync point-in-time gauges into the metrics registry, at
        scrape time; returns the stats snapshot they were read from."""
        snapshot = self.stats()
        stats.set_gauges(self._obs.registry, snapshot, self._compaction)
        return snapshot

    @property
    def write_stalled(self) -> bool:
        """Instantaneous backpressure bit: is the write gate closed now?"""
        return self._compaction.version.write_stalled

    @property
    def options(self) -> StoreOptions:
        """The options this store was opened with."""
        return self._options

    @property
    def directory(self) -> str:
        """The store's data directory."""
        return self._directory
