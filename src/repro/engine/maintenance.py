"""The maintenance executor: who runs flushes, merge chunks, scrub
chunks and repair rebuilds, and on which thread.

Every task is **claimed** under the store lock, **executed** (its file
I/O) and **published** or abandoned under the lock again, in ``_run``
and nowhere else — by worker threads with ``background_maintenance``,
else by the calling thread, lock held (it is re-entrant): the write
that rotates a memtable flushes it and runs every merge that made
eligible, and every wait runs claims until its own condition holds.
:class:`MaintenanceExecutor` owns the workers, the single-flush claim
and the scrubber, and is the one place that asks which mode is on. The
store's lock and "state changed" condition, the compaction manager, the
sealed-memtable queue (the store appends, a published flush removes the
head) and three callbacks into the store arrive through the constructor
(``docs/engine-concurrency.md``). "Lock held" means that lock.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from ..errors import ClosedError, ConfigurationError
from ..obs import events as obs_events
from .compaction import CompactionManager
from .iterators import ReaderCorruption
from .memtable import MemTable
from .options import StoreOptions
from .ratelimiter import RateLimiter

#: How long a waiter sleeps before re-checking its condition without
#: having been notified (a missed wake-up costs this much, no more).
_POLL_SECONDS = 0.05


class MaintenanceExecutor:
    """Claims, executes and publishes one store's maintenance tasks."""

    def __init__(
        self,
        options: StoreOptions,
        obs,
        lock: threading.RLock,
        changed: threading.Condition,
        compaction: CompactionManager,
        sealed: list[MemTable],
        *,
        is_closed: Callable[[], bool],
        flushed: Callable[[], None],
        quarantine: Callable[[int, str, str], object],
    ) -> None:
        self._options = options
        self._obs = obs
        self._lock = lock
        # The single "state changed" signal: workers wait on it for
        # work; stalled writers and quiesce paths wait on it for
        # progress. Every publish, rotation, and close notifies it.
        self._changed = changed
        self._compaction = compaction
        self._sealed = sealed
        self._is_closed = is_closed
        self._flushed = flushed
        self._quarantine = quarantine
        # True while the oldest sealed memtable is being written out.
        # Exactly one flush may be in flight: flushes take fresh manifest
        # sequence stamps, so publishing them out of order would corrupt
        # the newest-first reconciliation order.
        self._flush_claimed = False
        # Imported here: repro.scrub imports the engine, so a top-level
        # import fails when repro.scrub is a process's first import.
        from ..scrub import Scrubber

        self._scrubber = Scrubber(
            interval=options.scrub_interval,
            chunk_bytes=compaction.chunk_bytes,
            rate_limiter=compaction.rate_limiter,
            scrub_limiter=(
                RateLimiter(options.scrub_rate_bytes_per_s)
                if options.scrub_rate_bytes_per_s
                else None
            ),
            obs=obs,
        )
        self._m_failures = obs.registry.counter(
            "engine_maintenance_failures_total",
            help="Maintenance tasks (flush, merge chunk, scrub chunk or "
            "repair rebuild) that raised and were abandoned.",
        )
        self._m_repairs = obs.registry.counter(
            "engine_runs_repaired_total",
            help="Quarantined runs rebuilt from replica data.",
        )
        #: Non-empty exactly when workers drive maintenance.
        self._workers: list[threading.Thread] = []
        if options.background_maintenance:
            for index in range(options.maintenance_threads):
                worker = threading.Thread(
                    target=self._worker_loop,
                    args=(index,),
                    name=f"lsm-maintenance-{index}",
                    daemon=True,
                )
                self._workers.append(worker)
                worker.start()

    def join(self) -> None:
        """Wait for the workers to exit (lock NOT held; the store has
        set its closed flag and notified). Each first publishes or
        abandons the task it had claimed; from here the caller drives
        (``close()``'s last flushes and merges)."""
        for worker in self._workers:
            worker.join(timeout=30.0)
        self._workers.clear()

    def close(self) -> None:
        """Let go of the store, last thing in its close or crash: the
        callbacks are a reference cycle (see :meth:`CommitLog.close`)."""
        self._is_closed = lambda: True
        self._flushed = self._quarantine = None

    # -- claim → execute → publish ---------------------------------------

    def _claim_flush_locked(self):
        """Claim the oldest sealed memtable's flush (lock held); None
        when nothing is sealed or a flush is already in flight."""
        if not self._sealed or self._flush_claimed:
            return None
        memtable = self._sealed[0]
        run_id, writer = self._compaction.begin_flush(len(memtable))
        self._flush_claimed = True
        return ("flush", memtable, run_id, writer)

    def _claim_locked(self):
        """Claim one task for a worker (lock held); None when idle.

        Flushes take priority over merge chunks — memory components are
        the scarcest resource, and a full sealed queue stalls rotations.
        Merges are claimed through the compaction manager's scheduler.
        Scrub chunks rank last: verification is the only maintenance
        work with no deadline, so it soaks up idle worker capacity
        without ever delaying a flush or merge claim.
        """
        return (
            self._claim_flush_locked()
            or self._claim_merge_locked()
            or self._claim_scrub_locked()
        )

    def _claim_merge_locked(self):
        job = self._compaction.claim_merge()
        return None if job is None else ("merge", job)

    def _claim_scrub_locked(self):
        scrub = self._scrubber.claim(self._compaction.scrub_targets())
        return None if scrub is None else ("scrub", scrub)

    def _run(self, task) -> bool:
        """Execute one claimed task's I/O, then publish under the lock
        (a worker comes without the lock, an inline caller holding it);
        True once published. The only caller of ``MergeJob.advance``.

        The claimed memtable stays in the sealed queue (read-visible)
        for the whole write and is removed only after the run is
        published, so a reader always sees the data in exactly one
        place. A task that raises is abandoned — partial output deleted,
        claim released; a merge is started again only after a back-off
        (``compaction.RETRY_SECONDS``) — and the error goes on to the
        caller. A merge whose *input* fails its checksum twice is
        contained instead: the run is quarantined (source ``merge``),
        nothing is raised, and the write that ran the chunk goes on.
        """
        try:
            kind = task[0]
            if kind == "flush":
                _, memtable, run_id, writer = task
                writer.add_many(memtable.items())
                stats = writer.finish()
                with self._lock:
                    self._compaction.publish_flush(run_id, stats)
                    self._sealed.remove(memtable)
                    self._flush_claimed = False
                    self._flushed()
                    self._changed.notify_all()
            elif kind == "merge":
                _, job = task
                finished = job.advance(self._compaction.chunk_bytes)
                with self._lock:
                    self._compaction.release_merge(job, finished)
                    self._changed.notify_all()
            elif kind == "repair":
                _, run_id, new_run_id, writer, entries = task
                writer.add_many(entries)
                stats = writer.finish()
                with self._lock:
                    self._check_open("during a repair")
                    lifted = self._compaction.publish_repair(
                        run_id, new_run_id, stats
                    )
                    if lifted is None:  # superseded, rebuilt file gone
                        return False
                    self._m_repairs.inc()
                    self._obs.tracer.emit(
                        obs_events.RUN_REPAIRED,
                        run_id=run_id,
                        replacement=new_run_id,
                        entries=stats.entry_count,
                        source=lifted.source,
                    )
                    self._changed.notify_all()
            else:  # scrub
                _, scrub = task
                result = self._scrubber.execute(scrub)
                with self._lock:
                    self._scrubber.publish(result)
                    if result.finding is not None:
                        self._quarantine(
                            result.run_id, result.finding, "scrub"
                        )
                    self._changed.notify_all()
            return True
        except ReaderCorruption as damage:
            with self._lock:
                self._abandon_locked(task)
                self._quarantine(damage.run_id, str(damage), "merge")
            return False
        except BaseException:
            with self._lock:
                self._abandon_locked(task, retry=True)
            raise

    def _abandon_locked(self, task, retry: bool = False) -> None:
        """Clean up a failed task (lock held).

        A failed flush keeps its memtable sealed (the data is still in
        the WAL and remains readable); a failed merge is abandoned so
        the policy may reschedule the same inputs later (with ``retry``,
        after a back-off); a failed repair
        leaves the run quarantined for the next attempt; a failed scrub
        chunk releases the scrubber's claim and skips the current run
        (the next pass revisits it).
        """
        try:
            if task[0] == "flush":
                self._flush_claimed = False
            if task[0] in ("flush", "repair"):
                task[3].abandon()
            elif task[0] == "merge":
                self._compaction.fail_merge(task[1], retry)
            else:
                self._scrubber.fail(task[1])
        except Exception:  # noqa: BLE001 — best-effort cleanup
            pass
        self._m_failures.inc()
        self._changed.notify_all()

    def _worker_loop(self, index: int) -> None:
        """One maintenance worker: claim under the lock, do I/O off it.

        The lock is held only to claim a task (marking the flush slot or
        merge job so no other worker co-advances it) and, inside
        :meth:`_run`, to publish the finished result. The expensive part
        — reconciling and writing run files, plus any rate-limiter
        sleeps — runs with the lock released, so foreground reads and
        writes proceed underneath, and with several workers one can
        flush while others advance different merges. A claim that
        raises (a run writer that cannot be opened, say) is counted as
        a failure, and the worker waits a poll and claims again.
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
                    if self._is_closed():
                        return
                    try:
                        task = self._claim_locked()
                    except Exception:  # noqa: BLE001 — counted; claim again
                        self._m_failures.inc()
                        task = None
                    if task is None:
                        self._changed.wait(timeout=_POLL_SECONDS)
                        continue
                busy.set(1.0)
                try:
                    self._run(task)
                except Exception:  # noqa: BLE001 — abandoned and counted
                    pass  # by _run; the worker survives to claim again
                finally:
                    busy.set(0.0)
        finally:
            self._obs.tracer.emit(
                obs_events.MAINTENANCE_WORKER, worker=index, state="stop"
            )

    # -- the caller as the engine of progress (lock held) ----------------

    def _step(self, claim) -> bool:
        """One task on the caller: ``claim`` it and run it, as a worker
        would, on the calling thread; False when there is none."""
        task = claim()
        if task is None:
            return False
        self._run(task)
        return True

    def _claim_next_locked(self):
        """The caller's next task: a flush before any merge chunk."""
        return self._claim_flush_locked() or self._claim_merge_locked()

    def _step_until_idle(self, max_steps: int | None = None) -> int:
        """Run flushes, then merge chunks, on the caller until none is
        claimable; the steps taken. With ``max_steps``, work still
        pending once that many are spent raises."""
        steps = 0
        while steps != max_steps:
            if not self._step(self._claim_next_locked):
                return steps
            steps += 1
        if self._sealed or self._compaction.has_work():
            raise ConfigurationError(
                "compaction did not converge within the step budget"
            )
        return steps

    @staticmethod
    def _too_tight() -> ConfigurationError:
        return ConfigurationError(
            "write stalled with no merge work available: the component "
            "constraint is too tight for this policy configuration"
        )

    # -- the drive mode: do workers make progress, or the caller? --------
    # Lock held; a worker-mode wait releases it (Condition.wait drops
    # every level), the caller keeps it throughout.

    def _check_open(self, doing: str) -> None:
        if self._is_closed():
            raise ClosedError(f"store closed {doing}")

    def _nothing_claimable(self) -> bool:
        return not (
            self._sealed
            or self._flush_claimed
            or self._compaction.has_work()
            or self._compaction.kick()
            or self._compaction.retry_pending()
        )

    def _drive(self, done: Callable[[], bool], doing: str) -> None:
        """Return once ``done()`` holds, raising rather than hanging when
        nothing claimable could ever make it hold. The mode is read once:
        ``join()`` empties the pool under a parked waiter, which must
        then see the close, not start driving. Workers own progress when
        they exist: wake them, then wait for a publish. Without them the
        caller claims and runs each task itself, a flush first, and
        never asks whether the store closed — ``close()``'s own drain
        comes here after the join."""
        if not self._workers:
            while not done():
                if self._step(self._claim_next_locked):
                    continue
                if not self._compaction.retry_pending():
                    raise self._too_tight()
                time.sleep(_POLL_SECONDS)
            return
        self._changed.notify_all()
        while not done():
            self._check_open(doing)
            if self._nothing_claimable():
                raise self._too_tight()
            self._changed.wait(timeout=_POLL_SECONDS)

    def seals_freely(self) -> bool:
        """Would a rotation now be a bare seal and a wake-up (workers
        flush, a sealed slot is free) — or wait for, or run, a flush?"""
        return (
            bool(self._workers)
            and len(self._sealed) < self._options.num_memtables - 1
        )

    def await_headroom(self) -> None:
        """Return once the stall gate is open."""
        stalled = self._compaction.is_write_stalled
        self._drive(lambda: not stalled(), "while a write was stalled")

    def await_sealed_slot(self) -> None:
        """Return once the sealed queue has room for one more memtable
        (a flush stall: every memory component is waiting on a flush)."""
        limit = max(1, self._options.num_memtables - 1)
        self._drive(
            lambda: len(self._sealed) < limit, "while a rotation was stalled"
        )

    def quiesce_memtables(self) -> None:
        """Return once every sealed memtable is in a run (a caller that
        drives runs flushes only: it claims a flush first, and stops
        when none is left)."""
        self._drive(
            lambda: not (self._sealed or self._flush_claimed), "while flushing"
        )

    def flush_here(self) -> None:
        """Flush the sealed queue on the caller, lock held throughout,
        so nothing is written meanwhile (no flush may be claimed)."""
        while self._step(self._claim_flush_locked):
            pass

    def drop_pending(self) -> None:
        """Wait out claimed flushes and merge chunks, then forget the
        sealed memtables: a reset's install supersedes them."""
        claimed = self._compaction.merge_claimed
        self._drive(
            lambda: not (self._flush_claimed or claimed()), "during a reset"
        )
        self._sealed.clear()

    def run_to_idle(self, max_steps: int = 1_000_000) -> None:
        """Run flushes and merges until none remain — when the caller
        drives, in at most ``max_steps`` tasks, waiting out a failed
        merge's back-off with the lock held, and raising the error of a
        merge start it makes itself."""
        if self._workers:
            self._drive(self._nothing_claimable, "during maintenance")
            return
        while True:
            self._compaction.kick(strict=True)
            max_steps -= self._step_until_idle(max_steps)
            if not self._compaction.retry_pending():
                return
            time.sleep(_POLL_SECONDS)

    def advance(self) -> None:
        """After a rotation: workers are woken rather than competed
        with; without them the caller flushes the sealed memtable and
        runs every merge that made eligible, leaving no work behind."""
        if self._workers:
            self._changed.notify_all()
        else:
            self._step_until_idle()

    # -- repair and scrubbing --------------------------------------------

    def repair(self, run_id: int, entries: list) -> bool:
        """``LSMStore.repair_run``'s rebuild: a run of ``entries``
        swapped in for quarantined ``run_id``, claimed and run on the
        calling thread (lock NOT held). False when the run is not live,
        not quarantined, or still feeding an in-flight merge."""
        with self._lock:
            self._check_open("before a repair")
            claim = self._compaction.begin_repair(run_id)
        if claim is None:
            return False
        return self._run(("repair", run_id, *claim, entries))

    def scrub_summary(self) -> dict:
        """JSON-safe scrub progress (lock held)."""
        return self._scrubber.summary()

    def scrub_tick(self) -> bool:
        """``LSMStore.scrub_tick``: one scrub chunk, claimed and run on
        the calling thread (lock NOT held)."""
        with self._lock:
            self._check_open("before a scrub chunk")
            task = self._claim_scrub_locked()
        if task is None:
            return False
        self._run(task)
        return True

    def scrub_pass(self) -> dict:
        """``LSMStore.scrub_pass`` (lock NOT held)."""
        with self._lock:
            self._check_open("before a scrub pass")
            passes_before = self._scrubber.passes_completed
            self._scrubber.force_due()
        while True:
            with self._lock:
                self._check_open("during a scrub pass")
                if self._scrubber.passes_completed != passes_before:
                    return self._scrubber.summary()
            if not self.scrub_tick():
                time.sleep(0.005)
