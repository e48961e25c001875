"""The commit log: the write-ahead log file and what its bytes mean.

:class:`~repro.engine.wal.WriteAheadLog` knows frames and byte offsets
in one file. :class:`CommitLog` owns that file for a store and is the
only place that knows the rule *LSN = base + file offset*: callers
commit batches and get LSNs back, read the log by LSN, and never see a
path or an offset. With positions it owns what depends on them — the
lineage, a follower's upstream cursor, the commit listener, group
commit, the rule for cutting the log, replay at open, and the position
record a clean close leaves in the manifest. The store's lock ("lock
held" below means that lock) and three callbacks into the store arrive
through the constructor.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from typing import Callable, NamedTuple

from ..errors import ClosedError
from .manifest import LogPosition
from .memtable import payload_bytes
from .wal import WriteAheadLog

Batch = list[tuple[bytes, bytes | None]]

#: Caps on one commit group, so a giant group can neither starve the
#: queue nor balloon the window a failed fsync rolls back: 1 MiB is
#: RocksDB's ``max_write_batch_group_size_bytes`` default, and the batch
#: count bounds the leader's apply loop under the store lock.
GROUP_COMMIT_MAX_BYTES = 1 * 2**20
GROUP_COMMIT_MAX_OPS = 1024


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

    @property
    def log_bytes(self) -> int:
        """Bytes the log file holds now."""
        return self.lsn - self.wal_base

    def reaches(self, lsn: int) -> bool:
        """Does the log still hold everything from ``lsn`` on? (Only
        then can a reader whose cursor is ``lsn`` be resumed there.)"""
        return self.wal_base <= lsn <= self.lsn


def _refuse() -> None:
    raise ClosedError("store is closed")


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

    def __init__(self, batch: Batch) -> None:
        self.batch = batch
        self.nbytes = payload_bytes(batch)
        self.done = False
        self.result: tuple[int, int] | None = None
        self.error: BaseException | None = None


class CommitLog:
    """One store's log, addressed by LSN."""

    def __init__(
        self,
        path: str,
        *,
        sync: bool,
        fault_plan,
        registry,
        lock: threading.RLock,
        position: LogPosition | None,
        check_open: Callable[[], None],
        insert: Callable[[Batch], None],
        group_applied: Callable[[], None],
    ) -> None:
        """Open the log at ``path`` and replay it through ``insert``;
        ``position`` is what the manifest read back, if anything."""
        self._wal = WriteAheadLog(path, sync=sync, fault_plan=fault_plan)
        self._sync = sync
        self._lock = lock
        self._check_open = check_open
        self._insert = insert
        self._group_applied = group_applied
        self._commit_listener = None
        # Group commit: parked writers queue on their own condition (NOT
        # the store lock) so the leader can fsync with the store lock
        # released — that window is where the next group forms.
        self._gc_cond = threading.Condition(threading.Lock())
        self._gc_queue: deque[_CommitEntry] = deque()
        self._gc_leader_busy = False
        # Frames appended but not yet applied/acked (a group mid-sync);
        # checkpoints are deferred while non-zero so a truncation can't
        # discard them.
        self._wal_syncs_in_flight = 0
        self._group_lsn: int | None = None  # where that group starts
        self._m_gc_batches = registry.counter(
            "engine_group_commit_batches_total",
            help="Commit batches that rode a group-commit frame group.",
        )
        self._m_gc_syncs = registry.counter(
            "engine_group_commit_syncs_total",
            help="Group-commit fsyncs (one per group, not per batch).",
        )
        intact = 0
        for _start, intact, ops in WriteAheadLog.stream_frames(path):
            insert(ops)
        # A position read back proves a clean close and nothing since —
        # unless replay stopped short of the file's end, in which case
        # the LSNs it vouches for are not all there.
        if position is None or intact != self._wal.size_bytes:
            position = LogPosition(lineage=_new_lineage(), wal_base=0)
        self._lineage = position.lineage
        self._base = position.wal_base
        self._upstream = position.upstream

    # -- positions (lock held) -------------------------------------------

    def position(self) -> WalPosition:
        """The log's current :class:`WalPosition`."""
        return WalPosition(
            lineage=self._lineage,
            lsn=self._base + self._wal.size_bytes,
            wal_base=self._base,
        )

    def applied(self) -> int:
        """The LSN before which every frame is in the memtables: the end,
        or where a commit group appended but not yet applied starts."""
        if self._group_lsn is None:
            return self._base + self._wal.size_bytes
        return self._group_lsn

    @property
    def size_bytes(self) -> int:
        """Bytes the log file holds now."""
        return self._wal.size_bytes

    def read(self, lsn: int, limit: int) -> tuple[bytes, int]:
        """``(span, frames)`` as :meth:`WriteAheadLog.read_span` returns
        them for the byte ``lsn`` names today; empty when the log does
        not hold ``lsn`` (cut away, or not written yet)."""
        offset = lsn - self._base
        if not 0 <= offset < self._wal.size_bytes:
            return b"", 0
        return WriteAheadLog.read_span(self._wal.path, offset, limit)

    @property
    def upstream(self) -> tuple[int, int, int] | None:
        """A follower's replication cursor (see ``LSMStore.upstream``)."""
        return self._upstream

    def set_upstream(self, cursor: tuple[int, int, int] | None) -> None:
        self._upstream = cursor

    def reset_lineage(self) -> None:
        """Start a fresh lineage and forget the upstream cursor."""
        self._lineage = _new_lineage()
        self._upstream = None

    def set_listener(self, listener) -> None:
        """See ``LSMStore.set_commit_listener``."""
        self._commit_listener = listener

    # -- the per-writer commit (lock held) -------------------------------

    def commit(self, batch: Batch, clock) -> tuple[int, int, float]:
        """Append one batch (fsyncing per ``sync``), insert it, tell the
        listener. Returns the frame's ``(lsn, length)`` and the seconds
        the append took by ``clock``."""
        started = clock()
        offset, length = self._wal.append(batch)
        io_seconds = clock() - started
        lsn = self._base + offset
        self._insert(batch)
        listener = self._commit_listener
        if listener is not None:
            listener.on_commit(lsn, length, batch)
        return lsn, length, io_seconds

    # -- group commit (lock NOT held) ------------------------------------

    def commit_grouped(self, batch: Batch) -> tuple[int, int]:
        """Park a batch in the commit queue; lead if first in line.

        Every parked writer waits until its entry is marked done — by
        itself (as leader) or by another writer's leadership term. The
        queue head becomes leader whenever no term is in progress, so
        leadership hands over without a dedicated thread, and everything
        that queued while the previous leader was fsyncing rides the
        next group. Returns the batch's ``(lsn, length)``.
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
                base = self._base
                spans = self._wal.append_group(
                    [entry.batch for entry in group]
                )
                group_start = spans[0][0]
                group_end = spans[-1][0] + spans[-1][1]
                self._group_lsn = base + group_start
                self._wal_syncs_in_flight += 1
        except BaseException as error:
            for entry in group:
                entry.error = error
            return
        try:
            if self._sync:
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
            with self._lock:
                self._group_lsn = None
                listener = self._commit_listener
                for entry, (offset, length) in zip(group, spans):
                    self._insert(entry.batch)
                    if listener is not None:
                        listener.on_commit(
                            base + offset, length, entry.batch
                        )
                    entry.result = (base + offset, length)
                self._m_gc_batches.inc(len(group))
                if self._sync:
                    self._m_gc_syncs.inc()
                self._group_applied()
        finally:
            with self._lock:
                self._wal_syncs_in_flight -= 1
                self._group_lsn = None

    def settle(self) -> None:
        """Let in-flight commit groups finish (lock NOT held; parked
        writers racing the close self-organize into leaders and fail
        with ClosedError)."""
        with self._gc_cond:
            self._gc_cond.notify_all()
            while self._gc_leader_busy or self._gc_queue:
                self._gc_cond.wait(timeout=0.05)

    # -- cutting and closing (lock held) ---------------------------------

    def checkpoint(self) -> None:
        """Cut the log, if it can be cut now.

        The caller vouches that every write the log holds is durable in
        runs (no memtable, active or sealed, holds an entry); the log
        can then restart. It does not while a commit group's frames are
        appended but its fsync/apply is still in flight — they live
        only in the log's tail — or while the commit listener vetoes: a
        follower has yet to acknowledge part of the log. A refused cut
        is simply retried at the next flush, or by close(). A cut moves
        the base up by what the file held; no LSN changes.
        """
        if self._wal_syncs_in_flight or not self._wal.size_bytes:
            return
        lsn = self._base + self._wal.size_bytes
        listener = self._commit_listener
        if listener is not None and not listener.may_truncate(lsn):
            return
        self._wal.truncate()
        self._base = lsn

    def closing_record(self) -> LogPosition:
        """What a clean close records in the manifest, for the next open."""
        return LogPosition(self._lineage, self._base, self._upstream)

    def close(self) -> None:
        """Close the log file and let go of the store: the callbacks
        make a reference cycle, which would leave a closed store (its
        readers' indexes and filters) to the cyclic collector."""
        self._wal.close()
        self._check_open, self._insert, self._group_applied = _refuse, None, None
