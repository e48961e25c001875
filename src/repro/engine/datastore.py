"""The public storage engine API: an embeddable LSM key-value store.

:class:`LSMStore` composes the substrates — memtables, the commit log,
manifest, sorted runs, the policy/scheduler-driven compaction manager
and the maintenance executor — into the store a downstream application
uses::

    from repro.engine import LSMStore, StoreOptions

    with LSMStore.open("/tmp/db", StoreOptions(policy="tiering")) as store:
        store.put(b"k", b"v")
        value = store.get(b"k")
        for key, value in store.scan(b"a", b"z"):
            ...

Writes go to the log then the active memtable; a full memtable is sealed
and flushed as a level-0 run; the component constraint stalls writes when
merges lag (the paper's "stop" interaction, Section 5.1.2): the writer
waits at the gate. A caller that must not wait writes with
``wait=False`` and gets None instead (:meth:`LSMStore.timed_put`).

The store itself keeps the options, the lock, the write path and its
stall gate, repair, stats and the lifecycle. Three parts own the rest
behind the same lock: :class:`~.compaction.CompactionManager` (the run
set and the current :class:`~.version.Version`, which names the
memtables too, and which reads pin instead of taking the lock),
:class:`~.commitlog.CommitLog` (the log file, LSNs, group commit) and
:class:`~.maintenance.MaintenanceExecutor` (flush, merge, scrub and
repair tasks; workers or the calling thread) —
``docs/engine-concurrency.md``.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, NamedTuple

from ..errors import ClosedError, ConfigurationError, CorruptionError
from ..obs import Observability
from ..obs import events as obs_events
from .blockcache import ghost_bytes_for
from .commitlog import CommitLog, WalPosition
from .compaction import CompactionManager
from .integrity import IntegrityReport, verify_files
from .iterators import reconciling_iterator
from .maintenance import MaintenanceExecutor
from .manifest import Manifest
from .options import StoreOptions, TOMBSTONE
from .quarantine import QuarantineEntry
from .sstable import SEQUENTIAL_IO_BYTES, SSTableReader
from .version import read_retrying
from .wal import fsync_dir


#: The block cache's counters in the registry, in the order
#: ``refresh_gauges`` reads them off the cache.
_CACHE_COUNTERS = (
    ("engine_block_cache_hits_total", "Block lookups served from the cache."),
    (
        "engine_block_cache_misses_total",
        "Block lookups that fell through to disk.",
    ),
    (
        "engine_block_cache_evictions_total",
        "Blocks and rows evicted to stay within the cache budget.",
    ),
    (
        "engine_row_cache_hits_total",
        "Point lookups answered by a cached row, no block read.",
    ),
    (
        "engine_block_cache_ghost_hit_bytes_total",
        "Bytes of misses on evicted entries the ghost list still held.",
    ),
)


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
    cache counters are the :class:`BlockCache`'s cumulative totals: block
    lookups, and ``row_hits``, the gets a cached row answered with none.
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
    block_cache_hit_rate: float
    block_cache_used_bytes: int
    #: Fields a hand-built snapshot (a test fixture) may leave out.
    quarantined_runs: int = 0
    row_hits: int = 0
    ingested_bytes: int = 0
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
        slots = max(1, self.num_memtables - 1)
        return min(1.0, self.sealed_memtables / slots)


class WriteTiming(NamedTuple):
    """Where one write's time went (the engine leg of a request breakdown).

    ``engine_seconds`` runs from the moment the write holds the store
    lock to its return; ``io_seconds`` is the WAL-append portion of it
    (under ``group_commit``, the whole park in the commit queue); and
    ``stall_seconds`` is the portion this write itself spent blocked in
    the headroom gate (0.0 unless it stalled). Every write builds one —
    ``put``/``delete``/``write_batch`` drop it, the ``timed_*`` names
    return it — hence a tuple: a frozen dataclass costs a microsecond,
    a sixth of a whole put.

    ``wal_offset``/``wal_end`` are the LSNs the write's commit frame
    starts and ends at (see :class:`WalPosition`); a replicated server
    waits for follower acks to reach ``wal_end`` before acknowledging
    under quorum/all ack policies.
    """

    engine_seconds: float
    io_seconds: float
    stall_seconds: float
    wal_offset: int
    wal_end: int


class RunImage(NamedTuple):
    """The live runs frozen at ``lsn`` (:meth:`LSMStore.run_image`):
    their records, oldest first, and ``(name, reader, size)`` of each
    file they name, in order. The store's own readers pin the bytes: a
    run file is never rewritten, a merge only unlinks its name, and a
    reader's descriptor closes once nothing, this image included, holds
    it — dropping the image releases it."""

    lsn: int
    records: list
    files: tuple[tuple[str, SSTableReader, int], ...]


class LSMStore:
    """An LSM-tree key-value store driven by the paper's core machinery."""

    def __init__(self, directory: str, options: StoreOptions | None = None) -> None:
        self._options = options or StoreOptions()
        self._directory = directory
        os.makedirs(directory, exist_ok=True)
        self._obs = self._options.obs or Observability()
        self._m_rotations = self._obs.registry.counter(
            "engine_memtable_rotations_total",
            help="Active-memtable seals (rotations).",
        )
        # Per-scan read amplification: blocks / rows is what a scan
        # paid in block lookups for each row it returned.
        self._m_scans = self._obs.registry.counter(
            "engine_scans_total", help="Range scans served."
        )
        self._m_scan_rows = self._obs.registry.counter(
            "engine_scan_rows_total", help="Rows returned by range scans."
        )
        self._m_scan_blocks = self._obs.registry.counter(
            "engine_scan_blocks_total",
            help="Data-block lookups (cache hits and misses) made by "
            "range scans.",
        )
        attach_tracer = getattr(
            self._options.fault_plan, "attach_tracer", None
        )
        if callable(attach_tracer):
            attach_tracer(self._obs.tracer)
        self._manifest = Manifest(
            directory, fault_plan=self._options.fault_plan
        )
        try:
            self._compaction = CompactionManager(
                directory, self._options, self._manifest, obs=self._obs
            )
        except BaseException:
            self._manifest.close()
            raise
        # Live memory knobs: the arbiter retargets these at runtime via
        # set_memory_budget(); options.memtable_bytes is only the seed.
        self._memtable_target = self._options.memtable_bytes
        self._ingested_bytes = 0
        # The cache totals the last refresh_gauges() counted up to.
        self._cache_counted = (0,) * len(_CACHE_COUNTERS)
        self._closed = False
        self._lock = threading.RLock()
        # The single "state changed" signal; everything that waits on
        # it is in the maintenance executor.
        self._work_available = threading.Condition(self._lock)
        # Replays the log into the active memtable. take_position voids
        # what it reads back, before the log can take an append.
        self._log = CommitLog(
            os.path.join(directory, "wal.log"),
            sync=self._options.sync_writes,
            fault_plan=self._options.fault_plan,
            registry=self._obs.registry,
            lock=self._lock,
            position=self._manifest.take_position(),
            check_open=self._check_open,
            insert=self._insert,
            group_applied=self._maybe_rotate,
        )
        self._maintenance = MaintenanceExecutor(
            self._options,
            self._obs,
            self._lock,
            self._work_available,
            self._compaction,
            is_closed=lambda: self._closed,
            flushed=self._checkpoint_log,
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
        """Mark the store closed and join the workers: each finishes
        (publishes or abandons) the task it already claimed, then exits
        its loop. False when the store was closed already."""
        with self._lock:
            if self._closed:
                return False
            self._closed = True
            self._work_available.notify_all()
        self._maintenance.join()
        return True

    def close(self) -> None:
        """Flush buffered data, finish merges, and release resources.

        Workers are quiesced first; only after the join does the inline
        drain run, so it never races a claim.
        """
        if not self._shut():
            return
        self._log.settle()
        with self._lock:
            self._quiesce_memtables_locked()
            # The last flush's own checkpoint may have been vetoed or
            # skipped; without this one the next open replays — and
            # later flushes again — data that is already in runs.
            self._checkpoint_log()
            self._maintenance.run_to_idle()
            self._manifest.compact(self._log.closing_record())
            self._compaction.close()
            self._log.close()
            self._manifest.close()
            self._maintenance.close()

    def crash(self) -> None:
        """Simulate power loss: release file handles, persist *nothing*.

        Unlike :meth:`close`, no memtable is flushed, the WAL is not
        truncated, and the manifest is not compacted — the directory is
        left exactly as the last completed I/O left it, which is the
        state a real crash would recover from (and, no log position
        having been recorded, the next open starts a new lineage). Used
        by the
        fault-injection harness (:mod:`repro.faults.crashsim`); the
        store is unusable afterwards.
        """
        if not self._shut():
            return
        with self._lock:
            for release in (
                self._compaction.close,
                self._log.close,
                self._manifest.close,
                self._maintenance.close,
            ):
                try:
                    release()
                except Exception:  # noqa: BLE001 — dying anyway
                    pass

    def _check_open(self) -> None:
        if self._closed:
            raise ClosedError("store is closed")

    # -- replication hooks -----------------------------------------------

    def set_commit_listener(self, listener) -> None:
        """Register (or clear) the replication hook observing WAL commits.

        The listener is duck-typed with two methods, both called with
        the store lock held (so they must not re-enter the store):

        - ``on_commit(lsn, length, batch)`` — after every WAL append, in
          commit order; the frame occupies ``[lsn, lsn + length)``.
        - ``may_truncate(lsn) -> bool`` — asked before a WAL checkpoint
          at ``lsn``; returning False defers the truncation (e.g. a
          follower has not acknowledged the whole log yet). True means
          the truncation happens, there and then: ``lsn`` is the new
          ``wal_base``, and nothing else about positions changes.
        """
        with self._lock:
            self._log.set_listener(listener)

    def wal_position(self) -> WalPosition:
        """The log's current :class:`WalPosition`; its ``lsn`` is where
        a fully caught-up follower's cursor sits."""
        with self._lock:
            return self._log.position()

    def read_log(self, lsn: int, limit: int) -> tuple[bytes, int]:
        """``(span, frames)``: the raw bytes of the whole, CRC-valid
        frames that start at ``lsn`` and fit in ``limit`` bytes (never
        less than one frame; empty when the log does not hold ``lsn``)
        — how replication ships the log, by LSN and nothing else."""
        with self._lock:
            return self._log.read(lsn, limit)

    @property
    def upstream(self) -> tuple[int, int, int] | None:
        """A follower's replication cursor, ``(leader lineage, applied
        lsn, epoch)``; None for a store that follows nobody."""
        return self._log.upstream

    def set_upstream(self, cursor: tuple[int, int, int] | None) -> None:
        """Record how far this store has applied a leader's log.

        Held in memory and written out only by a clean :meth:`close`,
        once every write it covers is in runs; the replica applier calls
        this as it acknowledges, after the writes themselves.
        """
        with self._lock:
            self._log.set_upstream(cursor)

    def reset_lineage(self) -> None:
        """Start a fresh lineage and forget the upstream cursor.

        For a follower taking over as leader: from here on its log is
        no leader's prefix, and anyone holding a cursor into either
        history must be resynchronised rather than resumed.
        """
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
        """``put`` that reports where its time went.

        With ``wait=False`` the write commits only if that takes no more
        than a log append and a memtable insert, and otherwise returns
        None having changed nothing (see :meth:`_write`); the same holds
        for :meth:`timed_delete` and :meth:`timed_write_batch`.
        """
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

        ``wait=False`` is for a caller that must not park — an event
        loop's thread. Every reason to wait is checked *before* the WAL
        append, under a lock taken without blocking, so None means the
        log and the memtable are untouched and the caller can repeat
        the call with ``wait=True`` from a thread that may park. When
        nothing would wait, the write runs through the code below
        unchanged (the store lock is re-entrant).

        The clock is read once the store lock is held, around the WAL
        append, and at the end. Under ``group_commit`` the commit is the
        log's leader/follower protocol, entered with the lock released.
        """
        options = self._options
        if not wait:
            if options.sync_writes or options.group_commit:
                return None  # an fsync is a wait
            if not self._lock.acquire(blocking=False):
                return None
            try:
                self._check_open()
                if self._would_wait_locked(batch):
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
                lsn, length, io_seconds = self._log.commit(batch, clock)
                self._maybe_rotate()
        if options.group_commit:
            io_started = clock()
            lsn, length = self._log.commit_grouped(batch)
            io_seconds = clock() - io_started
        return WriteTiming(
            clock() - started, io_seconds, stall_seconds, lsn, lsn + length
        )

    def _insert(self, batch: list[tuple[bytes, bytes | None]]) -> None:
        """Apply a logged batch to the active memtable (lock held, or
        the store not yet shared: replay at open) and refresh the cached
        rows of its keys — every committed write passes here."""
        active = self._compaction.version.active
        for key, value in batch:
            if value is TOMBSTONE:
                active.delete(key)
            else:
                active.put(key, value)
        self._compaction.block_cache.refresh_rows(batch)

    def _would_wait_locked(
        self, batch: list[tuple[bytes, bytes | None]]
    ) -> bool:
        """Would committing ``batch`` now do more than log and insert?

        Store lock held. True when the stall gate is closed
        (:meth:`MaintenanceExecutor.await_headroom` would park), or when the
        batch could fill the active memtable while :meth:`_maybe_rotate`
        could not get by with a bare seal: the sealed queue is full (a
        flush stall), or there are no workers and rotation flushes on
        the caller.
        """
        version = self._compaction.version
        if version.write_stalled:
            return True
        if self._maintenance.seals_freely():
            return False
        return version.active.bytes_at_most_after(batch) >= self._memtable_target

    def _maybe_rotate(self) -> None:
        version = self._compaction.version
        if version.active.approximate_bytes < self._memtable_target:
            return
        if len(version.sealed) >= self._options.num_memtables - 1:
            self._maintenance.await_sealed_slot()  # a flush stall
        self._seal_active()
        self._maintenance.advance()

    # -- maintenance -----------------------------------------------------

    def _checkpoint_log(self) -> None:
        """Every memtable that was sealed before the last flush is
        durable in runs once the sealed queue is empty; if the active
        one holds nothing either, the log may restart (store lock held;
        :meth:`CommitLog.checkpoint` has the rest of the rule)."""
        version = self._compaction.version
        if not version.sealed and not len(version.active):
            self._log.checkpoint()

    def _seal_active(self) -> None:
        """Rotate — because the memtable filled, or a flush, checkpoint
        or close asked."""
        sealed_bytes = self._compaction.rotate().approximate_bytes
        self._ingested_bytes += sealed_bytes
        self._m_rotations.inc()
        self._obs.tracer.emit(
            obs_events.MEMTABLE_ROTATE,
            bytes=sealed_bytes,
            sealed_queue=len(self._compaction.version.sealed),
        )

    def _quiesce_memtables_locked(self) -> None:
        """Get every buffered write into runs (caller holds the lock).
        Writes can land while workers flush, the lock released; what
        did is flushed here, the lock held, so on return both memtables
        are empty."""
        if len(self._compaction.version.active) > 0:
            self._seal_active()
        self._maintenance.quiesce_memtables()
        if len(self._compaction.version.active) > 0:
            self._seal_active()
            self._maintenance.flush_here()

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
            self._quiesce_memtables_locked()
            self._checkpoint_log()

    def checkpoint(self, target_directory: str) -> int:
        """Copy :meth:`run_image` into ``target_directory`` as a store of
        its own: each file hard-linked by name — copied through the
        image's reader across filesystems, or once a merge retired the
        name — then a manifest of the image's runs. Returns their
        number."""
        target = os.path.abspath(target_directory)
        if os.path.exists(target) and os.listdir(target):
            raise ConfigurationError(
                f"checkpoint target {target!r} is not empty"
            )
        os.makedirs(target, exist_ok=True)
        image = self.run_image()
        for name, reader, size in image.files:
            destination = os.path.join(target, name)
            try:
                os.link(os.path.join(self._directory, name), destination)
            except OSError:
                with open(destination, "wb") as copy:
                    for offset in range(0, size, SEQUENTIAL_IO_BYTES):
                        length = min(SEQUENTIAL_IO_BYTES, size - offset)
                        copy.write(reader.read_at(offset, length))
        self._manifest.write_snapshot(
            os.path.join(target, "MANIFEST"), records=image.records
        )
        return len(image.records)

    # -- whole-store images ----------------------------------------------

    def run_image(self) -> RunImage:
        """Freeze the live runs: what a reset ships, and a checkpoint
        copies. Buffered writes are flushed first, then the records, the
        files and the LSN are read in one lock hold with both memtables
        empty; the files are the current version's readers of them.
        Refuses (:class:`~repro.errors.DataCorruptError`) while a run is
        quarantined: no copy would be whole.
        """
        with self._lock:
            self._check_open()
            self._quiesce_memtables_locked()
            for entry in self._compaction.quarantine.entries():
                raise entry.fence(f"run {entry.run_id} is quarantined")
            records = self._manifest.live_runs()
            runs = dict(self._compaction.version.plan)
            files = tuple(
                (name, reader, reader.file_bytes)
                for record in records
                for name, reader in zip(
                    record.files, runs[record.run_id].files
                )
            )
            return RunImage(self._log.applied(), records, files)

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
        under :meth:`new_run_names` — the whole store, as a reset does.
        Block CRCs are checked first: an edit names files before it opens
        them. Then in one lock hold the log is cut and one edit swaps
        every run for ``runs`` and forgets the memtables, so a crash
        reopens to the old runs or to exactly these."""
        report = IntegrityReport()
        for _level, files in runs:
            verify_files(self._directory, files, report)
        if report.problems:
            raise CorruptionError("; ".join(report.problems))
        for name in (name for _level, files in runs for name in files):
            with open(os.path.join(self._directory, name), "rb") as staged:
                os.fsync(staged.fileno())
        if runs:
            fsync_dir(self._directory)
        with self._lock:
            self._check_open()
            self._maintenance.drop_pending()
            self._log.checkpoint()  # what the memtables hold is dropped
            self._compaction.install(runs)

    # -- memory arbitration ----------------------------------------------

    def set_memory_budget(
        self, memtable_bytes: int, cache_bytes: int
    ) -> None:
        """Retarget the store's write memory and read cache at runtime.

        The memtable threshold takes effect at the next rotation check
        (an active memtable already past the new, smaller target seals
        on the next write — nothing is forced mid-write, so the
        claim/publish maintenance protocol is untouched); the block
        cache resizes immediately, evicting LRU blocks when shrinking.
        This is the knob :class:`repro.memory.MemoryArbiter` drives.
        """
        if memtable_bytes < 4096:
            raise ConfigurationError("memtable budget is implausibly small")
        if cache_bytes < 0:
            raise ConfigurationError("cache budget cannot be negative")
        with self._lock:
            self._check_open()
            self._memtable_target = memtable_bytes
        # The cache has its own leaf lock; resizing outside the store
        # lock keeps eviction work off the write path.
        self._compaction.block_cache.resize(
            cache_bytes, ghost_bytes_for(memtable_bytes, cache_bytes)
        )
        registry = self._obs.registry
        registry.gauge(
            "memory_budget_bytes",
            labels={"component": "memtable"},
            help="Current write-memory target, as set by the arbiter.",
        ).set(float(memtable_bytes))
        registry.gauge(
            "memory_budget_bytes",
            labels={"component": "block_cache"},
            help="Current read-cache capacity, as set by the arbiter.",
        ).set(float(cache_bytes))

    @property
    def memtable_target_bytes(self) -> int:
        """The live memtable threshold (options seed it, the arbiter moves it)."""
        with self._lock:
            return self._memtable_target

    def memory_signals(self) -> StoreStats:
        """The :meth:`stats` snapshot, under the name
        ``bench/server_proc.py`` still reads it by."""
        return self.stats()

    # -- reads -----------------------------------------------------------

    def _quarantine_read(self, run_id: int, reason: str) -> None:
        with self._lock:
            self._compaction.quarantine_run(run_id, reason, "read")

    def get(self, key: bytes) -> bytes | None:
        """Point lookup; None when absent (or deleted).

        Answered from the current :class:`~repro.engine.version.Version`
        without the store lock (:meth:`Version.get` has the probe order
        and the quarantine rule). Fresh checksum failures are re-read,
        then quarantine the run (:func:`~repro.engine.version.read_retrying`).
        """
        return read_retrying(self._get, self._quarantine_read, key)

    def _get(self, key: bytes) -> bytes | None:
        compaction = self._compaction
        version = compaction.version
        self._check_open()  # after the pin: close() lets go of the runs
        value, from_run = version.get(key, compaction.block_cache)
        # A run's answer becomes the key's row only if no write could
        # have reached the key since the pin: the version is still
        # current (no rotation, flush or merge) and its active memtable
        # lacks the key. Checked under the store lock, which every write
        # and its row refresh (_insert) hold; when another thread holds
        # it, the row is skipped rather than waited for.
        if from_run and self._lock.acquire(blocking=False):
            try:
                if compaction.version is version and not version.active.get(
                    key
                )[0]:
                    compaction.block_cache.put_row(key, value)
            finally:
                self._lock.release()
        return value

    def scan(
        self,
        lo: bytes | None = None,
        hi: bytes | None = None,
        limit: int | None = None,
    ) -> Iterator[tuple[bytes, bytes]]:
        """Ordered range scan over ``[lo, hi)``, at most ``limit`` rows.

        Snapshot-consistent: the store lock is held only to pin the
        current version and copy the active memtable's rows in range —
        at most ``limit`` plus its tombstones, enough for ``limit`` live
        rows; all of them when unbounded — and the rest is merged off it
        (:meth:`Version.scan`, which has the quarantine rule). Callers
        wanting streaming iteration over huge ranges should scan in
        key-range pages. Checksum failures are handled as :meth:`get`'s.
        """
        if limit is not None and limit < 0:
            raise ConfigurationError("scan limit cannot be negative")
        return iter(
            read_retrying(self._scan, self._quarantine_read, lo, hi, limit)
        )

    def _scan(self, lo, hi, limit) -> list[tuple[bytes, bytes]]:
        with self._lock:
            self._check_open()
            version = self._compaction.version
            entry = version.fence(lo, hi)
            if entry is not None:
                raise entry.fence(
                    f"scan range intersects quarantined run {entry.run_id}"
                )
            if limit == 0:
                return []
            active = version.active
            rows = list(
                islice(
                    active.items(lo, hi),
                    None if limit is None else limit + active.tombstone_count,
                )
            )
        results, blocks = version.scan(rows, lo, hi, limit)
        self._m_scans.inc()
        self._m_scan_rows.inc(len(results))
        self._m_scan_blocks.inc(blocks)
        return results

    # -- corruption survival ---------------------------------------------

    def quarantine_run(
        self, run_id: int, reason: str, source: str = "read"
    ) -> bool:
        """Quarantine a live run by id (operator/test hook).

        The organic paths — a double checksum failure on the read path,
        a scrub finding — quarantine automatically; this is the manual
        override. Returns False when the run is not live or already
        quarantined.
        """
        with self._lock:
            self._check_open()
            return (
                self._compaction.quarantine_run(run_id, reason, source)
                is not None
            )

    def live_runs(self) -> list:
        """The manifest's live run records, oldest first.

        Read-only operator/test hook: repair tooling and integrity
        tests need run identity (id, level, files) without reaching
        into store internals.
        """
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
        the fetch was issued — the caller (the leader's repair ticker)
        enforces that freshness via the FETCH_RANGE ack cursor.

        The rebuilt run is the fetched items **plus a tombstone for
        every key inside the bounds that other local sources still hold
        but the replica does not**: the corrupt run may have been the
        only thing shadowing an older value beneath it, and without the
        pinned tombstone the swap would resurrect that value. Writing
        and swapping it in is a maintenance task like any other
        (:meth:`MaintenanceExecutor.repair`): off-lock, debited against
        the shared rate limiter, installed at the old run's level and
        sequence, lifting the quarantine. Returns False when the run is
        no longer live, not quarantined, or still feeding an in-flight
        merge.
        """
        with self._lock:
            self._check_open()
            entry = self._compaction.quarantine.get(run_id)
            if entry is None:
                return False
            hi = entry.max_key + b"\x00"  # half-open cover of [min, max]
            fetched = {
                key: value for key, value in items if entry.covers(key)
            }
            local_keys = {
                key
                for key, _value in reconciling_iterator(
                    self._compaction.version.sources(
                        entry.min_key, hi, skip=run_id
                    ),
                    keep_tombstones=True,
                )
            }
            entries = [
                (key, fetched.get(key, TOMBSTONE))
                for key in sorted(set(fetched) | local_keys)
            ]
        return self._maintenance.repair(run_id, entries)

    # -- scrubbing --------------------------------------------------------

    def scrub_tick(self) -> bool:
        """Advance the scrubber by one claimed chunk, inline.

        The same claim/execute/publish cycle a maintenance worker runs,
        for a caller that steps the scrubber one chunk at a time (no
        serving tier does: its stores scrub on workers). Returns False
        when nothing was claimable — the scrubber is idle, not yet due,
        or another executor holds the claim.
        """
        return self._maintenance.scrub_tick()

    def scrub_pass(self) -> dict:
        """Force one full scrub pass, synchronously; returns its summary.

        Ignores the configured interval (``repro scrub`` and tests call
        this on stores with scrubbing disabled). With background workers
        active the pass may be partly executed by them; this call simply
        drives and waits until the pass that it forced completes.
        """
        return self._maintenance.scrub_pass()

    # -- introspection ---------------------------------------------------

    def stats(self) -> StoreStats:
        """Snapshot of store internals (for monitoring and tests).

        Atomic: every field is read under the store lock, which every
        maintenance step also holds, so no snapshot mixes pre- and
        post-merge values (``wal_bytes`` from before a checkpoint with
        ``components_per_level`` from after). Keep every mutable-state
        read inside the locked region. What depends on the memtables and
        the run set is read off the current version.
        """
        compaction, cache = self._compaction, self._compaction.block_cache
        with self._lock:
            version = compaction.version
            active = version.active
            return StoreStats(
                memtable_entries=len(active),
                # Sealed memtables awaiting flush are still live write
                # memory: reporting only the (freshly empty) active one
                # would zero the figure right after every rotation and
                # fool any controller keying off memory occupancy.
                memtable_bytes=sum(
                    m.approximate_bytes for m in version.memtables
                ),
                sealed_memtables=len(version.sealed),
                num_memtables=self._options.num_memtables,
                disk_components=compaction.component_count,
                components_per_level=version.levels,
                quarantined_runs=len(compaction.quarantine),
                merges_completed=compaction.merges_completed,
                write_stalls=self._maintenance.stall_count,
                stall_seconds_total=self._maintenance.stall_seconds,
                wal_bytes=self._log.size_bytes,
                write_stalled=version.write_stalled,
                write_headroom=version.write_headroom,
                throttle_sleep_seconds=(
                    compaction.rate_limiter.total_sleep_seconds
                ),
                block_cache_hit_rate=cache.hit_rate(),
                block_cache_used_bytes=cache.used_bytes,
                row_hits=cache.row_hits,
                ingested_bytes=(
                    self._ingested_bytes + active.approximate_bytes
                ),
                cache_hits=cache.hits,
                cache_misses=cache.misses,
                cache_evictions=cache.evictions,
                ghost_hit_bytes=cache.ghost_hit_bytes,
            )

    @property
    def obs(self):
        """The store's observability bundle (registry + tracer + clock)."""
        return self._obs

    @property
    def rate_limiter(self):
        """The shared flush/merge write throttle (introspection only).

        ``total_admitted_bytes`` over elapsed time is the measured
        maintenance write bandwidth — what the maintenance benchmark
        checks against the configured budget.
        """
        return self._compaction.rate_limiter

    def refresh_gauges(self) -> StoreStats:
        """Sync point-in-time gauges into the metrics registry.

        Called at scrape time (not on the write path): gauges describe
        "now", so computing them on demand costs nothing between
        scrapes. Returns the stats snapshot the gauges were read from so
        scrape handlers don't take the store lock twice.
        """
        stats = self.stats()
        registry = self._obs.registry
        # Block-cache counts live in the cache (bumped under its own
        # lock). Each refresh adds what they grew by since this store's
        # last one, read under the store lock so racing refreshes count
        # a lookup once, and stores sharing a bundle sum.
        cache = self._compaction.block_cache
        with self._lock:
            queue_depth = (
                len(self._compaction.version.sealed)
                + self._compaction.merge_jobs_in_flight
            )
            counts = (
                cache.hits, cache.misses, cache.evictions, cache.row_hits,
                cache.ghost_hit_bytes,
            )
            for (name, help_text), now, before in zip(
                _CACHE_COUNTERS, counts, self._cache_counted
            ):
                registry.counter(name, help=help_text).inc(now - before)
            self._cache_counted = counts
        for name, help_text, value in (
            ("engine_write_headroom",
             "Remaining component budget fraction (0 = stalled).",
             stats.write_headroom),
            ("engine_memory_fill",
             "Sealed-memtable queue occupancy in [0, 1].", stats.memory_fill),
            ("engine_wal_bytes", "Current write-ahead log size.",
             stats.wal_bytes),
            ("engine_disk_components", "Live disk components.",
             stats.disk_components),
            ("engine_write_stalled",
             "1 when the write gate is closed right now.",
             stats.write_stalled),
            ("engine_quarantined_runs",
             "Runs currently fenced off from reads as corrupt.",
             stats.quarantined_runs),
            ("engine_maintenance_queue_depth",
             "Sealed memtables plus in-flight merge jobs.", queue_depth),
            ("engine_block_cache_capacity_bytes",
             "Current block-cache byte budget.", cache.capacity_bytes),
            ("engine_block_cache_used_bytes",
             "Bytes currently held by the block cache.", cache.used_bytes),
        ):
            registry.gauge(name, help=help_text).set(value)
        return stats

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
