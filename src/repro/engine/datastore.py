"""The public storage engine API: an embeddable LSM key-value store.

:class:`LSMStore` composes the substrates — memtables, WAL,
manifest, sorted runs, and the policy/scheduler-driven compaction manager
— into the store a downstream application uses::

    from repro.engine import LSMStore, StoreOptions

    with LSMStore.open("/tmp/db", StoreOptions(policy="tiering")) as store:
        store.put(b"k", b"v")
        value = store.get(b"k")
        for key, value in store.scan(b"a", b"z"):
            ...

Writes go to the WAL then the active memtable; a full memtable is sealed
and flushed as a level-0 run; the component constraint stalls writes when
merges lag (the paper's "stop" interaction, Section 5.1.2), either
blocking the writer or raising
:class:`~repro.errors.WriteStalledError` per ``options.stall_mode``.
Maintenance (flushes + merge chunks) runs inline by default, or on a
pool of ``options.maintenance_threads`` background workers with
``options.background_maintenance`` — workers claim a task under the
store lock but perform its file I/O outside it (see
``docs/engine-concurrency.md`` for the claim/publish protocol).
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from ..errors import (
    ClosedError,
    ConfigurationError,
    CorruptionError,
    DataCorruptError,
    WriteStalledError,
)
from ..obs import Observability
from ..obs import events as obs_events
from ..scrub import Scrubber
from .compaction import CompactionManager
from .iterators import (
    EntryCursor,
    ReaderCorruption,
    RunCursor,
    merge_scan,
    reconcile_get,
    reconciling_iterator,
)
from .manifest import LogPosition, Manifest
from .memtable import MemTable, payload_bytes
from .options import StoreOptions, TOMBSTONE
from .quarantine import QuarantineEntry
from .ratelimiter import RateLimiter
from .wal import WriteAheadLog

#: Caps on one commit group, so a giant group can neither starve the
#: queue nor balloon the window a failed fsync rolls back: 1 MiB is
#: RocksDB's ``max_write_batch_group_size_bytes`` default, and the batch
#: count bounds the leader's apply loop under the store lock.
GROUP_COMMIT_MAX_BYTES = 1 * 2**20
GROUP_COMMIT_MAX_OPS = 1024


@dataclass(frozen=True)
class StoreStats:
    """A point-in-time summary of the store's state.

    ``write_stalls`` counts *writes* that observed a stalled tree (once
    per stalled write, not per polling iteration) and
    ``stall_seconds_total`` accumulates the wall-clock time those writes
    spent blocked in the headroom gate. ``write_stalled`` and
    ``write_headroom`` are instantaneous backpressure signals for
    admission controllers: headroom is the remaining fraction of the
    component budget (0.0 = stalled right now).
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
    #: Runs excluded from reads pending repair (default keeps older
    #: positional constructions — test fixtures, wire rebuilds — valid).
    quarantined_runs: int = 0

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


@dataclass(frozen=True)
class MemorySignals:
    """What the memory arbiter needs to know about one store.

    A compact, atomically-read snapshot of the write-memory and
    read-cache signals :class:`repro.memory.MemoryArbiter` drives its
    rebalance decisions from. ``memtable_bytes`` counts sealed
    memtables awaiting flush as well as the active one — buffered write
    memory that a rotation has not yet released. ``ingested_bytes`` is
    cumulative over the store's lifetime (per-tick deltas measure write
    rate); the cache counters are the :class:`BlockCache`'s cumulative
    totals (deltas measure read traffic and miss rate).
    """

    memtable_bytes: int
    memtable_target_bytes: int
    sealed_memtables: int
    num_memtables: int
    memory_fill: float
    write_stalls: int
    stall_seconds_total: float
    ingested_bytes: int
    cache_hits: int
    cache_misses: int
    cache_evictions: int
    cache_capacity_bytes: int
    cache_used_bytes: int


@dataclass(frozen=True)
class WriteTiming:
    """Where one write's time went (the engine leg of a request breakdown).

    ``engine_seconds`` is the total time inside the store lock for this
    write; ``io_seconds`` is the WAL-append portion of it; and
    ``stall_seconds`` is the portion spent blocked in the headroom gate
    (0.0 unless the write stalled). Produced only by the ``timed_*``
    write variants — the plain paths never read a clock.

    ``wal_offset``/``wal_end`` are the LSNs the write's commit frame
    starts and ends at (see :class:`WalPosition`; -1 when unknown); a
    replicated server waits for follower acks to reach ``wal_end``
    before acknowledging under quorum/all ack policies.
    """

    engine_seconds: float
    io_seconds: float
    stall_seconds: float
    wal_offset: int = -1
    wal_end: int = -1


class WalPosition(NamedTuple):
    """Where a store's log stands, in log-sequence numbers.

    An LSN counts every byte the log has ever held within one
    ``lineage``: ``wal_base`` is the LSN of the log file's first byte (a
    checkpoint truncates the file and moves the base up by what it
    held), ``lsn`` the LSN just past its last. A lineage survives a
    clean close and reopen; after a crash, or once a follower has been
    promoted, the store starts a fresh random one, so two positions
    compare only when their lineages are equal.
    """

    lineage: int
    lsn: int
    wal_base: int


def _new_lineage() -> int:
    # 53 random bits: still an exact integer in any JSON reader.
    return int.from_bytes(os.urandom(8), "big") >> 11


class _CommitEntry:
    """One writer's parked commit batch in the group-commit queue.

    The parked writer waits until a leader marks it ``done``, then reads
    either ``result`` — its frame's ``(lsn, length)`` — or ``error``.
    ``nbytes`` is the batch's raw key+value size, used to honour the
    group byte cap without encoding frames twice.
    """

    __slots__ = ("batch", "nbytes", "done", "result", "error")

    def __init__(self, batch: list[tuple[bytes, bytes | None]]) -> None:
        self.batch = batch
        self.nbytes = payload_bytes(batch)
        self.done = False
        self.result: tuple[int, int] | None = None
        self.error: BaseException | None = None


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
        self._m_stalls = self._obs.registry.counter(
            "engine_write_stalls_total",
            help="Writes that observed a stalled tree.",
        )
        self._m_stall_seconds = self._obs.registry.counter(
            "engine_stall_seconds_total",
            help="Time writers spent blocked in the headroom gate.",
        )
        self._m_flush_stalls = self._obs.registry.counter(
            "engine_flush_stalls_total",
            help="Rotations that found no free memory component.",
        )
        self._m_flush_stall_seconds = self._obs.registry.counter(
            "engine_flush_stall_seconds_total",
            help="Time writers spent waiting for a memtable to flush.",
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
        self._compaction = CompactionManager(
            directory, self._options, self._manifest, obs=self._obs
        )
        self._wal = WriteAheadLog(
            os.path.join(directory, "wal.log"),
            sync=self._options.sync_writes,
            fault_plan=self._options.fault_plan,
        )
        self._m_maintenance_failures = self._obs.registry.counter(
            "engine_maintenance_failures_total",
            help="Maintenance tasks (flush or merge chunk) that raised.",
        )
        self._m_corruption = {
            source: self._obs.registry.counter(
                "engine_corruption_detected_total",
                labels={"source": source},
                help="Runs quarantined after persistent corruption, "
                "by detection source.",
            )
            for source in ("read", "scrub")
        }
        self._m_repairs = self._obs.registry.counter(
            "engine_runs_repaired_total",
            help="Quarantined runs rebuilt from replica data.",
        )
        self._scrubber = Scrubber(
            interval=self._options.scrub_interval,
            chunk_bytes=self._compaction.chunk_bytes,
            rate_limiter=self._compaction.rate_limiter,
            scrub_limiter=(
                RateLimiter(self._options.scrub_rate_bytes_per_s)
                if self._options.scrub_rate_bytes_per_s
                else None
            ),
            obs=self._obs,
        )
        self._active = MemTable()
        self._sealed: list[MemTable] = []
        # Live memory knobs: the arbiter retargets these at runtime via
        # set_memory_budget(); options.memtable_bytes is only the seed.
        self._memtable_target = self._options.memtable_bytes
        self._ingested_bytes = 0
        self._commit_listener = None
        self._closed = False
        self._stall_count = 0
        self._stall_seconds = 0.0
        self._lock = threading.RLock()
        # The single "state changed" signal: workers wait on it for
        # work; stalled writers and quiesce paths wait on it for
        # progress. Every publish, rotation, and close notifies it.
        self._work_available = threading.Condition(self._lock)
        # True while a worker is writing the oldest sealed memtable out.
        # Exactly one flush may be in flight: flushes take fresh manifest
        # sequence stamps, so publishing them out of order would corrupt
        # the newest-first reconciliation order.
        self._flush_claimed = False
        # Group commit: parked writers queue on their own condition (NOT
        # the store lock) so the leader can fsync with the store lock
        # released — that window is where the next group forms.
        self._gc_cond = threading.Condition(threading.Lock())
        self._gc_queue: deque[_CommitEntry] = deque()
        self._gc_leader_busy = False
        # Frames appended but not yet applied/acked (a group mid-sync);
        # WAL checkpoints are deferred while non-zero so a truncation
        # can't discard them.
        self._wal_syncs_in_flight = 0
        self._m_gc_batches = self._obs.registry.counter(
            "engine_group_commit_batches_total",
            help="Commit batches that rode a group-commit frame group.",
        )
        self._m_gc_syncs = self._obs.registry.counter(
            "engine_group_commit_syncs_total",
            help="Group-commit fsyncs (one per group, not per batch).",
        )
        # A position read back proves a clean close and nothing since
        # (take_position voids it before the log can take an append) —
        # unless replay stopped short of the file's end, in which case
        # the LSNs it vouches for are not all there.
        position = self._manifest.take_position()
        if self._replay_wal() != self._wal.size_bytes:
            position = None
        if position is None:
            position = LogPosition(lineage=_new_lineage(), wal_base=0)
        self._lineage = position.lineage
        self._wal_base = position.wal_base
        self._upstream = position.upstream
        self._workers: list[threading.Thread] = []
        if self._options.background_maintenance:
            for index in range(self._options.maintenance_threads):
                worker = threading.Thread(
                    target=self._worker_loop,
                    args=(index,),
                    name=f"lsm-maintenance-{index}",
                    daemon=True,
                )
                self._workers.append(worker)
                worker.start()

    # -- lifecycle -------------------------------------------------------

    @classmethod
    def open(cls, directory: str, options: StoreOptions | None = None) -> "LSMStore":
        """Open (or create) a store at ``directory``."""
        return cls(directory, options)

    def __enter__(self) -> "LSMStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Flush buffered data, finish merges, and release resources.

        Workers are quiesced first: each finishes (publishes or abandons)
        the task it already claimed, then exits its loop; only after the
        join does the inline drain run, so it never races a claim.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._work_available.notify_all()
        for worker in self._workers:
            worker.join(timeout=30.0)
        # Let in-flight commit groups finish (parked writers racing the
        # close self-organize into leaders and fail with ClosedError).
        with self._gc_cond:
            self._gc_cond.notify_all()
            while self._gc_leader_busy or self._gc_queue:
                self._gc_cond.wait(timeout=0.05)
        with self._lock:
            self._flush_all_memtables()
            # The last flush's own checkpoint may have been vetoed or
            # skipped; without this one the next open replays — and
            # later flushes again — data that is already in runs.
            self._wal_checkpoint()
            self._compaction.drain()
            self._manifest.compact(
                LogPosition(self._lineage, self._wal_base, self._upstream)
            )
            self._compaction.close()
            self._wal.close()
            self._manifest.close()

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
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._work_available.notify_all()
        for worker in self._workers:
            worker.join(timeout=30.0)
        with self._lock:
            for release in (
                self._compaction.close,
                self._wal.close,
                self._manifest.close,
            ):
                try:
                    release()
                except Exception:  # noqa: BLE001 — dying anyway
                    pass

    def _check_open(self) -> None:
        if self._closed:
            raise ClosedError("store is closed")

    # -- recovery --------------------------------------------------------

    def _replay_wal(self) -> int:
        """Re-apply the log's intact frames; returns where they end."""
        end = 0
        for _start, end, ops in WriteAheadLog.stream_frames(self._wal.path):
            for key, value in ops:
                if value is TOMBSTONE:
                    self._active.delete(key)
                else:
                    self._active.put(key, value)
        return end

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
            self._commit_listener = listener

    def _notify_commit(self, lsn: int, length: int, batch) -> None:
        listener = self._commit_listener
        if listener is not None:
            listener.on_commit(lsn, length, batch)

    @property
    def wal_path(self) -> str:
        """The WAL's backing file (replication ships spans read from it:
        LSN ``n`` is at byte ``n - wal_base``)."""
        return self._wal.path

    def _lsn_locked(self) -> int:
        return self._wal_base + self._wal.size_bytes

    def wal_position(self) -> WalPosition:
        """The log's current :class:`WalPosition`; its ``lsn`` is where
        a fully caught-up follower's cursor sits."""
        with self._lock:
            return WalPosition(
                lineage=self._lineage,
                lsn=self._lsn_locked(),
                wal_base=self._wal_base,
            )

    def replication_snapshot(self) -> tuple[list[tuple[bytes, bytes]], int]:
        """Atomic ``(items, lsn)`` for replica resync: a follower that
        applies ``items`` as a fresh state and sets its cursor to
        ``lsn`` (in this store's lineage) is exactly caught up."""
        with self._lock:
            self._check_open()
            items = list(self.scan())
            return items, self._lsn_locked()

    @property
    def upstream(self) -> tuple[int, int, int] | None:
        """A follower's replication cursor, ``(leader lineage, applied
        lsn, epoch)``; None for a store that follows nobody."""
        return self._upstream

    def set_upstream(self, cursor: tuple[int, int, int] | None) -> None:
        """Record how far this store has applied a leader's log.

        Held in memory and written out only by a clean :meth:`close`,
        once every write it covers is in runs; the replica applier calls
        this as it acknowledges, after the writes themselves.
        """
        with self._lock:
            self._upstream = cursor

    def reset_lineage(self) -> None:
        """Start a fresh lineage and forget the upstream cursor.

        For a follower taking over as leader: from here on its log is
        no leader's prefix, and anyone holding a cursor into either
        history must be resynchronised rather than resumed.
        """
        with self._lock:
            self._lineage = _new_lineage()
            self._upstream = None

    # -- writes ----------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or update a key."""
        self._write([(key, value)])

    def delete(self, key: bytes) -> None:
        """Delete a key (adds an anti-matter entry)."""
        self._write([(key, TOMBSTONE)])

    def write_batch(self, batch: list[tuple[bytes, bytes | None]]) -> None:
        """Atomically log and apply a batch of puts/deletes."""
        if not batch:
            raise ConfigurationError("empty batch")
        self._write(batch)

    def _write(self, batch: list[tuple[bytes, bytes | None]]) -> None:
        if self._options.group_commit:
            self._commit_grouped(batch)
            return
        with self._lock:
            self._check_open()
            self._wait_for_headroom()
            self._apply_locked(batch)

    def _apply_locked(
        self, batch: list[tuple[bytes, bytes | None]]
    ) -> None:
        """Append, apply, and announce one batch (store lock held).

        The classic per-writer commit: WAL append (fsyncing per
        ``sync_writes``), memtable apply, replication notify, rotation
        check.
        """
        offset, length = self._wal.append(batch)
        for key, value in batch:
            if value is TOMBSTONE:
                self._active.delete(key)
            else:
                self._active.put(key, value)
        self._notify_commit(self._wal_base + offset, length, batch)
        self._maybe_rotate()

    # -- group commit ----------------------------------------------------

    def _commit_grouped(
        self, batch: list[tuple[bytes, bytes | None]]
    ) -> tuple[int, int]:
        """Commit ``batch`` through the group-commit queue.

        Admission (open check + headroom gate) happens under the store
        lock exactly as in the classic path; the commit itself is then
        handed to the leader/follower protocol of :meth:`_gc_park`.
        """
        with self._lock:
            self._check_open()
            self._wait_for_headroom()
        return self._gc_park(batch)

    def _gc_park(
        self, batch: list[tuple[bytes, bytes | None]]
    ) -> tuple[int, int]:
        """Park a batch in the commit queue; lead if first in line.

        Every parked writer waits until its entry is marked done — by
        itself (as leader) or by another writer's leadership term. The
        queue head becomes leader whenever no term is in progress, so
        leadership hands over without a dedicated thread, and everything
        that queued while the previous leader was fsyncing rides the
        next group.
        """
        entry = _CommitEntry(batch)
        group: list[_CommitEntry] | None = None
        with self._gc_cond:
            self._gc_queue.append(entry)
            while not entry.done:
                if not self._gc_leader_busy and self._gc_queue[0] is entry:
                    self._gc_leader_busy = True
                    group = self._take_group_locked()
                    break
                self._gc_cond.wait()
        if group is not None:
            try:
                self._commit_group(group)
            finally:
                with self._gc_cond:
                    self._gc_leader_busy = False
                    for member in group:
                        member.done = True
                    self._gc_cond.notify_all()
        if entry.error is not None:
            raise entry.error
        assert entry.result is not None
        return entry.result

    def _take_group_locked(self) -> list[_CommitEntry]:
        """Drain one group off the queue head (gc condition held).

        Always takes at least the leader's own entry; stops at the
        byte/batch caps.
        """
        group = [self._gc_queue.popleft()]
        total = group[0].nbytes
        while (
            self._gc_queue
            and len(group) < GROUP_COMMIT_MAX_OPS
            and total + self._gc_queue[0].nbytes <= GROUP_COMMIT_MAX_BYTES
        ):
            entry = self._gc_queue.popleft()
            group.append(entry)
            total += entry.nbytes
        return group

    def _commit_group(self, group: list[_CommitEntry]) -> None:
        """One leadership term: append the group, sync once, apply all.

        The frames land under the store lock (buffered write — fast),
        but the fsync runs with every lock released: that window is
        where the next group forms. Failures before the sync completes
        roll the WAL back to the group's start (nothing was acked), so
        the cursor and the file keep agreeing.
        """
        try:
            with self._lock:
                self._check_open()
                # Fixed until the group is applied: no checkpoint runs
                # while _wal_syncs_in_flight is non-zero.
                base = self._wal_base
                spans = self._wal.append_group(
                    [entry.batch for entry in group]
                )
                group_start = spans[0][0]
                group_end = spans[-1][0] + spans[-1][1]
                self._wal_syncs_in_flight += 1
        except BaseException as error:
            for entry in group:
                entry.error = error
            return
        try:
            synced = False
            if self._options.sync_writes:
                try:
                    self._wal.sync()
                except BaseException as error:
                    with self._lock:
                        if self._wal.size_bytes == group_end:
                            try:
                                self._wal.rollback(group_start)
                            except OSError:
                                pass  # rollback already failed the log closed
                        else:
                            # Someone moved the log under us (should be
                            # impossible while syncs are in flight) —
                            # refuse to guess.
                            self._wal.fail_closed()
                    for entry in group:
                        entry.error = error
                    return
                synced = True
            with self._lock:
                listener = self._commit_listener
                for entry, (offset, length) in zip(group, spans):
                    for key, value in entry.batch:
                        if value is TOMBSTONE:
                            self._active.delete(key)
                        else:
                            self._active.put(key, value)
                    if listener is not None:
                        listener.on_commit(
                            base + offset, length, entry.batch
                        )
                    entry.result = (base + offset, length)
                self._m_gc_batches.inc(len(group))
                if synced:
                    self._m_gc_syncs.inc()
                self._maybe_rotate()
        finally:
            with self._lock:
                self._wal_syncs_in_flight -= 1

    # -- timed writes (serving-tier latency breakdown) -------------------

    def timed_put(
        self, key: bytes, value: bytes, wait: bool = True
    ) -> WriteTiming | None:
        """``put`` that reports where its time went.

        With ``wait=False`` the write commits only if that takes no more
        than a log append and a memtable insert, and otherwise returns
        None having changed nothing (see :meth:`_write_timed`); the
        same holds for :meth:`timed_delete` and
        :meth:`timed_write_batch`.
        """
        return self._write_timed([(key, value)], wait)

    def timed_delete(
        self, key: bytes, wait: bool = True
    ) -> WriteTiming | None:
        """``delete`` that reports where its time went."""
        return self._write_timed([(key, TOMBSTONE)], wait)

    def timed_write_batch(
        self, batch: list[tuple[bytes, bytes | None]], wait: bool = True
    ) -> WriteTiming | None:
        """``write_batch`` that reports where its time went."""
        if not batch:
            raise ConfigurationError("empty batch")
        return self._write_timed(batch, wait)

    def _write_timed(
        self, batch: list[tuple[bytes, bytes | None]], wait: bool = True
    ) -> WriteTiming | None:
        """The instrumented twin of :meth:`_write`/:meth:`write_batch`.

        A separate path so the plain write methods stay free of clock
        reads (the embedded hot path); the serving tier calls this one
        to attach an engine/I-O/stall breakdown to each response.

        ``wait=False`` is for a caller that must not park — an event
        loop's thread. Every reason to wait is checked *before* the WAL
        append, under a lock taken without blocking, so None means the
        log and the memtable are untouched and the caller can repeat
        the call with ``wait=True`` from a thread that may park. When
        nothing would wait, the write runs through the code below
        unchanged (the store lock is re-entrant).
        """
        if not wait:
            options = self._options
            if options.sync_writes or options.group_commit:
                return None  # an fsync is a wait
            if not self._lock.acquire(blocking=False):
                return None
            try:
                self._check_open()
                if self._would_wait_locked(batch):
                    return None
                return self._write_timed(batch)
            finally:
                self._lock.release()
        clock = self._obs.clock
        if self._options.group_commit:
            started = clock()
            with self._lock:
                self._check_open()
                stall_before = self._stall_seconds
                self._wait_for_headroom()
                stall_seconds = self._stall_seconds - stall_before
            # The park covers queueing + the group's append and fsync;
            # that whole wait is this write's commit I/O.
            io_started = clock()
            lsn, length = self._gc_park(batch)
            finished = clock()
            return WriteTiming(
                engine_seconds=finished - started,
                io_seconds=finished - io_started,
                stall_seconds=stall_seconds,
                wal_offset=lsn,
                wal_end=lsn + length,
            )
        with self._lock:
            self._check_open()
            started = clock()
            stall_before = self._stall_seconds
            self._wait_for_headroom()
            stall_seconds = self._stall_seconds - stall_before
            io_started = clock()
            offset, length = self._wal.append(batch)
            io_seconds = clock() - io_started
            lsn = self._wal_base + offset
            for key, value in batch:
                if value is TOMBSTONE:
                    self._active.delete(key)
                else:
                    self._active.put(key, value)
            self._notify_commit(lsn, length, batch)
            self._maybe_rotate()
            return WriteTiming(
                engine_seconds=clock() - started,
                io_seconds=io_seconds,
                stall_seconds=stall_seconds,
                wal_offset=lsn,
                wal_end=lsn + length,
            )

    def _would_wait_locked(
        self, batch: list[tuple[bytes, bytes | None]]
    ) -> bool:
        """Would committing ``batch`` now do more than log and insert?

        Store lock held. True when the stall gate is closed
        (:meth:`_wait_for_headroom` would park or raise), or when the
        batch could fill the active memtable while :meth:`_maybe_rotate`
        could not get by with a bare seal: the sealed queue is full (a
        flush stall), or there are no workers and rotation flushes on
        the caller.
        """
        if self._compaction.is_write_stalled():
            return True
        if (
            self._options.background_maintenance
            and len(self._sealed) < self._options.num_memtables - 1
        ):
            return False
        return self._active.bytes_at_most_after(batch) >= self._memtable_target

    def _wait_for_headroom(self) -> None:
        """The write-stall gate: the paper's stop interaction mode.

        A stall is counted once per write that observed a stalled tree
        (not once per polling iteration), and the time a blocking writer
        spends here accumulates into ``stall_seconds_total``.
        """
        if not self._compaction.is_write_stalled():
            return
        self._stall_count += 1
        self._m_stalls.inc()
        self._obs.tracer.emit(
            obs_events.STALL_ENTER,
            mode=self._options.stall_mode,
            components=self._compaction.component_count,
        )
        if self._options.stall_mode == "reject":
            self._obs.tracer.emit(
                obs_events.STALL_EXIT, outcome="rejected", seconds=0.0
            )
            raise WriteStalledError(
                "component constraint violated; merges must catch up"
            )
        started = self._obs.clock()
        try:
            if self._workers:
                # Maintenance workers own progress: wake them, then wait
                # on the condition (which releases every RLock level)
                # until a publish clears the constraint. Raise rather
                # than hang when nothing claimable could ever clear it.
                self._work_available.notify_all()
                while self._compaction.is_write_stalled():
                    if self._closed:
                        raise ClosedError(
                            "store closed while a write was stalled"
                        )
                    if not (
                        self._sealed
                        or self._flush_claimed
                        or self._compaction.has_work()
                        or self._compaction.kick()
                    ):
                        raise ConfigurationError(
                            "write stalled with no merge work available: "
                            "the component constraint is too tight for "
                            "this policy configuration"
                        )
                    self._work_available.wait(timeout=0.05)
            else:
                while self._compaction.is_write_stalled():
                    self._advance_maintenance(blocking=True)
        finally:
            elapsed = self._obs.clock() - started
            self._stall_seconds += elapsed
            self._m_stall_seconds.inc(elapsed)
            self._obs.tracer.emit(
                obs_events.STALL_EXIT, outcome="resumed", seconds=elapsed
            )

    def _maybe_rotate(self) -> None:
        if self._active.approximate_bytes < self._memtable_target:
            return
        if len(self._sealed) >= self._options.num_memtables - 1:
            # No free memory component: a flush stall. Push maintenance
            # forward until one drains (flush stalls are rare when flushes
            # get I/O priority; with num_memtables=1 they are the norm).
            # Counted apart from the component-constraint stalls of
            # _wait_for_headroom, and timed on this branch only.
            started = self._obs.clock()
            try:
                if self._workers:
                    self._work_available.notify_all()
                    limit = max(1, self._options.num_memtables - 1)
                    while len(self._sealed) >= limit:
                        if self._closed:
                            raise ClosedError(
                                "store closed while a rotation was stalled"
                            )
                        self._work_available.wait(timeout=0.05)
                else:
                    while self._sealed:
                        self._advance_maintenance(blocking=True)
            finally:
                elapsed = self._obs.clock() - started
                self._m_flush_stalls.inc()
                self._m_flush_stall_seconds.inc(elapsed)
                self._obs.tracer.emit(
                    obs_events.FLUSH_STALL,
                    seconds=elapsed,
                    sealed_queue=len(self._sealed),
                )
        self._seal_active()
        self._work_available.notify_all()
        if not self._options.background_maintenance:
            self._advance_maintenance(blocking=False)

    # -- maintenance -----------------------------------------------------

    def _flush_oldest_sealed(self) -> None:
        memtable = self._sealed.pop(0)
        self._compaction.register_flush(memtable.items(), len(memtable))
        self._wal_checkpoint()

    def _wal_checkpoint(self) -> None:
        # Every memtable that was sealed before this flush is durable in
        # runs once the sealed queue is empty; the WAL can then restart.
        # A replication listener may veto the truncation while a
        # follower has yet to acknowledge part of the log — the
        # checkpoint is simply retried at the next flush, or by close().
        # A group whose frames are appended but whose fsync/apply is
        # still in flight lives only in the WAL tail — truncating now
        # would discard it, so the checkpoint waits for the next flush.
        if (
            self._wal_syncs_in_flight
            or self._sealed
            or len(self._active)
            or not self._wal.size_bytes
        ):
            return
        lsn = self._lsn_locked()
        listener = self._commit_listener
        if listener is not None and not listener.may_truncate(lsn):
            return
        self._wal.truncate()
        self._wal_base = lsn

    def _seal_active(self) -> None:
        """Rotate — because the memtable filled, or a flush, checkpoint
        or close asked."""
        sealed_bytes = self._active.approximate_bytes
        self._active.seal()
        self._sealed.append(self._active)
        self._active = MemTable()
        self._ingested_bytes += sealed_bytes
        self._m_rotations.inc()
        self._obs.tracer.emit(
            obs_events.MEMTABLE_ROTATE,
            bytes=sealed_bytes,
            sealed_queue=len(self._sealed),
        )

    def _flush_all_memtables(self) -> None:
        if len(self._active) > 0:
            self._seal_active()
        while self._sealed:
            self._flush_oldest_sealed()

    def _advance_maintenance(self, blocking: bool) -> None:
        """One pump: flush if a memtable waits, plus merge chunks.

        In inline mode this is the only engine of progress, so each pump
        also advances merges by enough chunks to keep compaction paced
        with ingestion (several memtables' worth of merge input per
        flush); otherwise merges would only ever run once the component
        constraint had already stalled writers.
        """
        progressed = False
        if self._sealed and not self._flush_claimed:
            self._flush_oldest_sealed()
            progressed = True
        budget = self._options.maintenance_chunks_per_rotation or max(
            2,
            int(8 * self._memtable_target // self._compaction.chunk_bytes)
            + 1,
        )
        for _ in range(budget):
            if not self._compaction.step():
                break
            progressed = True
        if not progressed and blocking and self._compaction.is_write_stalled():
            raise ConfigurationError(
                "write stalled with no merge work available: the component "
                "constraint is too tight for this policy configuration"
            )

    # -- the maintenance executor ---------------------------------------

    def _worker_loop(self, index: int) -> None:
        """One maintenance worker: claim under the lock, do I/O off it.

        The lock is held only to claim a task (marking the flush slot or
        merge job so no other worker co-advances it) and, inside
        :meth:`_execute_task`, to publish the finished result. The
        expensive part — reconciling and writing run files, plus any
        rate-limiter sleeps — runs with the lock released, so foreground
        reads and writes proceed underneath, and with several workers
        one can flush while others advance different merges.
        """
        busy = self._obs.registry.gauge(
            "engine_maintenance_worker_busy",
            labels={"worker": str(index)},
            help="1 while this maintenance worker is executing a task.",
        )
        self._obs.tracer.emit(
            obs_events.MAINTENANCE_WORKER, worker=index, state="start"
        )
        try:
            while True:
                with self._lock:
                    if self._closed:
                        return
                    task = self._claim_work_locked()
                    if task is None:
                        self._work_available.wait(timeout=0.05)
                        continue
                busy.set(1.0)
                try:
                    self._execute_task(task)
                finally:
                    busy.set(0.0)
        finally:
            self._obs.tracer.emit(
                obs_events.MAINTENANCE_WORKER, worker=index, state="stop"
            )

    def _claim_work_locked(self):
        """Claim one task (caller holds the lock); None when idle.

        Flushes take priority over merge chunks — memory components are
        the scarcest resource, and a full sealed queue stalls rotations.
        Only one flush may be claimed at a time (see ``_flush_claimed``);
        merges are claimed through the compaction manager's scheduler.
        Scrub chunks rank last: verification is the only maintenance
        work with no deadline, so it soaks up idle worker capacity
        without ever delaying a flush or merge claim.
        """
        if self._sealed and not self._flush_claimed:
            memtable = self._sealed[0]
            run_id, writer = self._compaction.begin_flush(len(memtable))
            self._flush_claimed = True
            return ("flush", memtable, run_id, writer)
        job = self._compaction.claim_merge()
        if job is not None:
            return ("merge", job)
        scrub = self._scrubber.claim(self._compaction.scrub_targets())
        if scrub is not None:
            return ("scrub", scrub)
        return None

    def _execute_task(self, task) -> None:
        """Run one claimed task's I/O off-lock, then publish under it.

        The claimed memtable stays in ``_sealed`` (read-visible) for the
        whole write; it is popped only after the run is published, so a
        reader always sees the data in exactly one place. A task that
        raises is abandoned — partial output deleted, claim released —
        and the worker survives to claim again.
        """
        kind = task[0]
        try:
            if kind == "flush":
                _, memtable, run_id, writer = task
                writer.add_many(memtable.items())
                stats = writer.finish()
                with self._lock:
                    self._compaction.publish_flush(run_id, stats)
                    self._sealed.remove(memtable)
                    self._flush_claimed = False
                    self._wal_checkpoint()
                    self._work_available.notify_all()
            elif kind == "merge":
                _, job = task
                finished = job.advance(self._compaction.chunk_bytes)
                with self._lock:
                    self._compaction.release_merge(job, finished)
                    self._work_available.notify_all()
            else:  # scrub
                _, scrub = task
                result = self._scrubber.execute(scrub)
                with self._lock:
                    self._scrubber.publish(result)
                    if result.finding is not None:
                        self._quarantine_locked(
                            result.run_id, result.finding, "scrub"
                        )
                    self._work_available.notify_all()
        except Exception:  # noqa: BLE001 — worker must survive any task
            with self._lock:
                self._abandon_task_locked(task)

    def _abandon_task_locked(self, task) -> None:
        """Clean up a failed task (caller holds the lock).

        A failed flush keeps its memtable sealed (the data is still in
        the WAL and remains readable); a failed merge is abandoned so
        the policy may reschedule the same inputs later; a failed scrub
        chunk releases the scrubber's claim and skips the current run
        (the next pass revisits it).
        """
        if task[0] == "flush":
            writer = task[3]
            try:
                writer.abandon()
            except Exception:  # noqa: BLE001 — best-effort cleanup
                pass
            self._flush_claimed = False
        elif task[0] == "merge":
            try:
                self._compaction.fail_merge(task[1])
            except Exception:  # noqa: BLE001 — best-effort cleanup
                pass
        else:
            try:
                self._scrubber.fail(task[1])
            except Exception:  # noqa: BLE001 — best-effort cleanup
                pass
        self._m_maintenance_failures.inc()
        self._work_available.notify_all()

    def _quiesce_memtables_locked(self) -> None:
        """Get every buffered write into runs (caller holds the lock).

        Inline mode flushes directly; worker mode seals the active
        memtable and waits for the workers to drain the sealed queue.
        """
        if not self._workers:
            self._flush_all_memtables()
            return
        if len(self._active) > 0:
            self._seal_active()
        self._work_available.notify_all()
        while self._sealed or self._flush_claimed:
            if self._closed:
                raise ClosedError("store closed while flushing")
            self._work_available.wait(timeout=0.05)

    def maintenance(self, max_steps: int = 1_000_000) -> None:
        """Run flushes and merges to quiescence."""
        with self._lock:
            self._check_open()
            if self._workers:
                self._work_available.notify_all()
                while (
                    self._sealed
                    or self._flush_claimed
                    or self._compaction.has_work()
                    or self._compaction.kick()
                ):
                    if self._closed:
                        raise ClosedError("store closed during maintenance")
                    self._work_available.wait(timeout=0.05)
                return
            while self._sealed:
                self._flush_oldest_sealed()
            self._compaction.drain(max_steps)

    def advance_maintenance(self) -> bool:
        """One bounded maintenance pump: the serving layer's stall hook.

        With ``stall_mode="reject"`` and inline maintenance nothing
        advances flushes or merges while writes are being bounced, so a
        front-end that rejects (or absorbs) stalled writes must push
        maintenance forward itself between attempts. Returns True while
        the write gate is still closed afterwards. When maintenance
        workers exist they own all progress — the pump just wakes them
        instead of competing for claims.
        """
        with self._lock:
            self._check_open()
            if self._workers:
                self._work_available.notify_all()
            elif self._sealed or self._compaction.has_work():
                self._advance_maintenance(blocking=False)
            return self._compaction.is_write_stalled()

    def flush(self) -> None:
        """Seal and flush the active memtable."""
        with self._lock:
            self._check_open()
            self._quiesce_memtables_locked()

    def checkpoint(self, target_directory: str) -> int:
        """Create an openable point-in-time copy of the store.

        Buffered writes are flushed to runs first, then every live run is
        hard-linked (falling back to a copy across filesystems) into
        ``target_directory`` together with a minimal manifest snapshot.
        The checkpoint opens as a normal store; in-flight merges in the
        source are irrelevant because their inputs are still live in the
        manifest. Returns the number of runs captured.
        """
        import shutil

        with self._lock:
            self._check_open()
            self._quiesce_memtables_locked()
            target = os.path.abspath(target_directory)
            if os.path.exists(target) and os.listdir(target):
                raise ConfigurationError(
                    f"checkpoint target {target!r} is not empty"
                )
            os.makedirs(target, exist_ok=True)
            records = self._manifest.live_runs()
            import json

            with open(
                os.path.join(target, "MANIFEST"), "w", encoding="utf-8"
            ) as manifest:
                for record in records:
                    source_path = os.path.join(
                        self._directory, record.filename
                    )
                    destination = os.path.join(target, record.filename)
                    try:
                        os.link(source_path, destination)
                    except OSError:
                        shutil.copy2(source_path, destination)
                    manifest.write(
                        json.dumps(
                            {
                                "op": "add",
                                "run_id": record.run_id,
                                "level": record.level,
                                "filename": record.filename,
                                "sequence": record.sequence,
                            },
                            sort_keys=True,
                        )
                        + "\n"
                    )
                manifest.flush()
                os.fsync(manifest.fileno())
            return len(records)

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
        self._compaction.block_cache.resize(cache_bytes)
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

    def memory_signals(self) -> MemorySignals:
        """Atomic snapshot of the arbiter's input signals."""
        with self._lock:
            self._check_open()
            cache = self._compaction.block_cache
            sealed_bytes = sum(
                memtable.approximate_bytes for memtable in self._sealed
            )
            slots = max(1, self._options.num_memtables - 1)
            return MemorySignals(
                memtable_bytes=(
                    self._active.approximate_bytes + sealed_bytes
                ),
                memtable_target_bytes=self._memtable_target,
                sealed_memtables=len(self._sealed),
                num_memtables=self._options.num_memtables,
                memory_fill=min(1.0, len(self._sealed) / slots),
                write_stalls=self._stall_count,
                stall_seconds_total=self._stall_seconds,
                ingested_bytes=(
                    self._ingested_bytes + self._active.approximate_bytes
                ),
                cache_hits=cache.hits,
                cache_misses=cache.misses,
                cache_evictions=cache.evictions,
                cache_capacity_bytes=cache.capacity_bytes,
                cache_used_bytes=cache.used_bytes,
            )

    # -- reads -----------------------------------------------------------

    def _sources(self):
        """Where reads look, newest data first (store lock held): the
        memtables, then the probe plan — ``(run_id, reader)``, or the
        :class:`QuarantineEntry` fencing a run, in probe position."""
        memtables = [self._active] + list(reversed(self._sealed))
        return memtables, self._compaction.read_plan()

    def _run_sources(self, lo=None, hi=None, skip=None) -> list:
        """``items(lo, hi)`` of every memtable and readable run, newest
        first (store lock held), leaving out run ``skip``."""
        memtables, plan = self._sources()
        return [memtable.items(lo, hi) for memtable in memtables] + [
            element.items(lo, hi)
            for run_id, element in plan
            if run_id != skip and not isinstance(element, QuarantineEntry)
        ]

    def _read_failed(
        self, failure: ReaderCorruption, previous: ReaderCorruption | None
    ) -> ReaderCorruption | None:
        """A fresh checksum failure on the read path (store lock held);
        the caller reads again, handing the result back as ``previous``.
        A first failure is only re-read — transient errors pass the
        second time. A second in a row quarantines the run: the next
        read fails fast if it still depends on it, and answers from the
        healthy remainder if the damage lay elsewhere or a concurrent
        merge retired the run."""
        if previous is None:
            return failure
        self._quarantine_locked(failure.run_id, str(failure.error), "read")
        return None

    def get(self, key: bytes) -> bytes | None:
        """Point lookup; None when absent (or deleted).

        Corruption containment: the probe walks sources newest-first, so
        a quarantined run only poisons the lookup when the probe actually
        *reaches* it — a newer memtable or run holding the key answers
        soundly, and a key outside the quarantined bounds never meets it
        at all. When the probe would depend on the quarantined run, the
        lookup fails fast with :class:`~repro.errors.DataCorruptError`
        rather than silently skipping the run (which could resurrect a
        deleted key or serve a stale value). Fresh checksum failures go
        through :meth:`_read_failed`.
        """
        failure = None
        while True:
            with self._lock:
                self._check_open()
                try:
                    found, value = reconcile_get(
                        self._probe(key, *self._sources())
                    )
                    return value if found else None
                except ReaderCorruption as error:
                    failure = self._read_failed(error, failure)

    @staticmethod
    def _probe(key, memtables, plan):
        for memtable in memtables:
            yield memtable.get(key)
        for run_id, element in plan:
            if isinstance(element, QuarantineEntry):
                if element.covers(key):
                    raise DataCorruptError(
                        f"run {element.run_id} is quarantined and its "
                        f"bounds cover the requested key",
                        run_id=element.run_id,
                        min_key=element.min_key,
                        max_key=element.max_key,
                    )
                continue
            if element.might_contain(key):
                try:
                    yield element.get(key)
                except CorruptionError as error:
                    raise ReaderCorruption(run_id, error) from error

    def scan(
        self,
        lo: bytes | None = None,
        hi: bytes | None = None,
        limit: int | None = None,
    ) -> Iterator[tuple[bytes, bytes]]:
        """Ordered range scan over ``[lo, hi)``, at most ``limit`` rows.

        Materializes the result under the store lock (snapshot-consistent
        and safe against concurrent flushes) — callers wanting streaming
        iteration over huge ranges should scan in key-range pages. The
        merge (:func:`~repro.engine.iterators.merge_scan`) looks up a
        data block only when a row of the result, or a stale copy of
        one, lies in it.

        Corruption containment: a range overlapping any quarantined
        run's bounds fails fast with
        :class:`~repro.errors.DataCorruptError` — every key in a scan
        result is a claim that no deleted key reappears and no stale
        value shadows a newer one, and a skipped run voids that claim
        for the whole overlap. Ranges provably outside the quarantined
        bounds keep serving. Fresh checksum failures — in a block the
        scan reads; one it never needs is the scrubber's to find — go
        through :meth:`_read_failed`, as :meth:`get`'s do.
        """
        if limit is not None and limit < 0:
            raise ConfigurationError("scan limit cannot be negative")
        failure = None
        while True:
            with self._lock:
                self._check_open()
                entry = self._compaction.quarantine.overlapping(lo, hi)
                if entry is not None:
                    raise DataCorruptError(
                        f"scan range intersects quarantined run "
                        f"{entry.run_id}",
                        run_id=entry.run_id,
                        min_key=entry.min_key,
                        max_key=entry.max_key,
                    )
                if limit == 0:
                    return iter(())
                memtables, plan = self._sources()
                try:
                    cursors = [
                        EntryCursor(memtable.items(lo, hi))
                        for memtable in memtables
                    ]
                    # A run whose key bounds miss [lo, hi) gets no
                    # cursor (a quarantined one cannot overlap here).
                    cursors += [
                        RunCursor(run_id, element, lo, hi)
                        for run_id, element in plan
                        if not isinstance(element, QuarantineEntry)
                        and (hi is None or element.min_key < hi)
                        and (lo is None or element.max_key >= lo)
                    ]
                    results = merge_scan(cursors, limit)
                except ReaderCorruption as error:
                    failure = self._read_failed(error, failure)
                    continue
                self._m_scans.inc()
                self._m_scan_rows.inc(len(results))
                self._m_scan_blocks.inc(sum(c.blocks for c in cursors))
                return iter(results)

    def multi_get(self, keys: list[bytes]) -> dict[bytes, bytes | None]:
        """Batched point lookups."""
        return {key: self.get(key) for key in keys}

    # -- corruption survival ---------------------------------------------

    def _quarantine_locked(
        self, run_id: int, reason: str, source: str
    ) -> QuarantineEntry | None:
        """Fence a run off (caller holds the lock); None when the run is
        no longer live or was already quarantined."""
        entry = self._compaction.quarantine_run(run_id, reason, source)
        if entry is None:
            return None
        self._m_corruption[source].inc()
        self._obs.tracer.emit(
            obs_events.CORRUPTION_QUARANTINE,
            run_id=run_id,
            level=entry.level,
            source=source,
            reason=reason,
            min_key=entry.min_key.hex(),
            max_key=entry.max_key.hex(),
        )
        return entry

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
            return self._quarantine_locked(run_id, reason, source) is not None

    def live_runs(self) -> list:
        """The manifest's live run records, oldest first.

        Read-only operator/test hook: repair tooling and integrity
        tests need run identity (id, level, filename) without reaching
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
                "scrub": self._scrubber.summary(),
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
        pinned tombstone the swap would resurrect that value. The
        replacement is written off-lock (it is ordinary maintenance
        I/O, debited against the shared rate limiter) and swapped in at
        the old run's level and sequence, lifting the quarantine.
        Returns False when the run is no longer live, not quarantined,
        or still feeding an in-flight merge.
        """
        with self._lock:
            self._check_open()
            entry = self._compaction.quarantine.get(run_id)
            begin = (
                self._compaction.begin_repair(run_id)
                if entry is not None
                else None
            )
            if begin is None:
                return False
            new_run_id, writer = begin
            lo = entry.min_key
            hi = entry.max_key + b"\x00"  # half-open cover of [min, max]
            fetched = {
                key: value for key, value in items if entry.covers(key)
            }
            local_keys = {
                key
                for key, _value in reconciling_iterator(
                    self._run_sources(lo, hi, skip=run_id),
                    keep_tombstones=True,
                )
            }
            entries = [
                (key, fetched[key] if key in fetched else TOMBSTONE)
                for key in sorted(set(fetched) | local_keys)
            ]
        try:
            writer.add_many(entries)
            stats = writer.finish()
        except Exception:
            writer.abandon()
            raise
        with self._lock:
            self._check_open()
            if not self._compaction.publish_repair(
                run_id, new_run_id, stats
            ):
                if os.path.exists(stats.path):
                    os.remove(stats.path)
                return False
            self._m_repairs.inc()
            self._obs.tracer.emit(
                obs_events.RUN_REPAIRED,
                run_id=run_id,
                replacement=new_run_id,
                entries=stats.entry_count,
                source=entry.source,
            )
            self._work_available.notify_all()
            return True

    def apply_reset(self, ops: list[tuple[bytes, bytes | None]]) -> None:
        """Replace the visible state with an authoritative snapshot.

        The replica-reset primitive: after this call, a scan returns
        exactly ``ops``. Unlike a scan-and-diff built on :meth:`scan`,
        this works while local runs are quarantined — the snapshot
        supersedes the entire store, so the quarantined runs are simply
        *dropped* (their unreadable contents need no tombstones: a key
        only they held is either in the snapshot, which rewrites it
        above them, or absent from it, which dropping realizes). Keys
        visible in the readable remainder but absent from the snapshot
        are tombstoned before the drop so nothing beneath a dropped run
        resurfaces.
        """
        with self._lock:
            self._check_open()
            snapshot_keys = {key for key, _value in ops}
            batch: list[tuple[bytes, bytes | None]] = [
                (key, TOMBSTONE)
                for key, _value in reconciling_iterator(self._run_sources())
                if key not in snapshot_keys
            ]
            batch.extend(ops)
            if batch:
                # Commit inline even under group_commit: this thread
                # holds the store lock, so parking in the commit queue
                # would deadlock against the leader needing the lock —
                # and a reset must not interleave with other writers
                # anyway.
                self._wait_for_headroom()
                self._apply_locked(batch)
            for entry in self._compaction.quarantine.entries():
                self._compaction.drop_run(entry.run_id)

    # -- scrubbing --------------------------------------------------------

    def scrub_tick(self) -> bool:
        """Advance the scrubber by one claimed chunk, inline.

        The same claim/execute/publish cycle a maintenance worker runs;
        this is the hook for stores without background workers (and for
        the serving tier's ticker). Returns False when nothing was
        claimable — the scrubber is idle, not yet due, or another
        executor holds the claim.
        """
        with self._lock:
            self._check_open()
            task = self._scrubber.claim(self._compaction.scrub_targets())
        if task is None:
            return False
        result = self._scrubber.execute(task)
        with self._lock:
            self._scrubber.publish(result)
            if result.finding is not None:
                self._quarantine_locked(result.run_id, result.finding, "scrub")
            self._work_available.notify_all()
        return True

    def scrub_pass(self) -> dict:
        """Force one full scrub pass, synchronously; returns its summary.

        Ignores the configured interval (``repro scrub`` and tests call
        this on stores with scrubbing disabled). With background workers
        active the pass may be partly executed by them; this call simply
        drives and waits until the pass that it forced completes.
        """
        with self._lock:
            self._check_open()
            passes_before = self._scrubber.passes_completed
            self._scrubber.force_due()
        while True:
            with self._lock:
                self._check_open()
                if self._scrubber.passes_completed != passes_before:
                    return self._scrubber.summary()
            if not self.scrub_tick():
                time.sleep(0.005)

    # -- introspection ---------------------------------------------------

    def stats(self) -> StoreStats:
        """Snapshot of store internals (for monitoring and tests).

        The snapshot is taken atomically: every field is read at a
        single maintenance-safe point under the store lock, which both
        cooperative maintenance (:meth:`advance_maintenance`) and the
        background thread also hold for each pump. No interleaving can
        produce a snapshot mixing pre- and post-merge values — e.g.
        ``wal_bytes`` from before a checkpoint with ``components_per_level``
        from after. Keep every mutable-state read inside the locked
        region: hoisting one out is exactly that torn-snapshot bug.
        What depends on the run set (levels, stall bit, headroom) is
        read off the compaction manager's cached view, not recomputed.
        """
        compaction = self._compaction
        with self._lock:
            return StoreStats(
                memtable_entries=len(self._active),
                # Sealed memtables awaiting flush are still live write
                # memory: reporting only the (freshly empty) active one
                # would zero the figure right after every rotation and
                # fool any controller keying off memory occupancy.
                memtable_bytes=self._active.approximate_bytes
                + sum(m.approximate_bytes for m in self._sealed),
                sealed_memtables=len(self._sealed),
                num_memtables=self._options.num_memtables,
                disk_components=compaction.component_count,
                components_per_level=compaction.levels(),
                quarantined_runs=len(compaction.quarantine),
                merges_completed=compaction.merges_completed,
                write_stalls=self._stall_count,
                stall_seconds_total=self._stall_seconds,
                wal_bytes=self._wal.size_bytes,
                write_stalled=compaction.is_write_stalled(),
                write_headroom=compaction.write_headroom(),
                throttle_sleep_seconds=(
                    compaction.rate_limiter.total_sleep_seconds
                ),
                block_cache_hit_rate=compaction.block_cache.hit_rate(),
                block_cache_used_bytes=compaction.block_cache.used_bytes,
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
        registry.gauge(
            "engine_write_headroom",
            help="Remaining component budget fraction (0 = stalled).",
        ).set(stats.write_headroom)
        registry.gauge(
            "engine_memory_fill",
            help="Sealed-memtable queue occupancy in [0, 1].",
        ).set(stats.memory_fill)
        registry.gauge(
            "engine_wal_bytes", help="Current write-ahead log size."
        ).set(stats.wal_bytes)
        registry.gauge(
            "engine_disk_components", help="Live disk components."
        ).set(stats.disk_components)
        registry.gauge(
            "engine_write_stalled",
            help="1 when the write gate is closed right now.",
        ).set(1.0 if stats.write_stalled else 0.0)
        registry.gauge(
            "engine_quarantined_runs",
            help="Runs currently fenced off from reads as corrupt.",
        ).set(float(stats.quarantined_runs))
        with self._lock:
            queue_depth = (
                len(self._sealed) + self._compaction.merge_jobs_in_flight
            )
        registry.gauge(
            "engine_maintenance_queue_depth",
            help="Sealed memtables plus in-flight merge jobs.",
        ).set(float(queue_depth))
        # Block-cache counters live in the cache (bumped under its own
        # lock); mirror the cumulative totals at scrape time instead of
        # double-counting on the lookup path.
        cache = self._compaction.block_cache
        registry.counter(
            "engine_block_cache_hits_total",
            help="Block lookups served from the cache.",
        ).set_total(float(cache.hits))
        registry.counter(
            "engine_block_cache_misses_total",
            help="Block lookups that fell through to disk.",
        ).set_total(float(cache.misses))
        registry.counter(
            "engine_block_cache_evictions_total",
            help="Blocks evicted to stay within the cache budget.",
        ).set_total(float(cache.evictions))
        registry.gauge(
            "engine_block_cache_capacity_bytes",
            help="Current block-cache byte budget.",
        ).set(float(cache.capacity_bytes))
        registry.gauge(
            "engine_block_cache_used_bytes",
            help="Bytes currently held by the block cache.",
        ).set(float(cache.used_bytes))
        return stats

    @property
    def write_stalled(self) -> bool:
        """Instantaneous backpressure bit: is the write gate closed now?"""
        with self._lock:
            return self._compaction.is_write_stalled()

    @property
    def options(self) -> StoreOptions:
        """The options this store was opened with."""
        return self._options

    @property
    def directory(self) -> str:
        """The store's data directory."""
        return self._directory
