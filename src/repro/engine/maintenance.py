"""The maintenance executor: who runs flushes, merge chunks, scrub
chunks and repair rebuilds, and on which thread.

Every task is **claimed** under the store lock, **executed** (its file
I/O) and **published** or abandoned under the lock again, in ``_run``
and nowhere else — by the one maintenance thread with
``background_maintenance``, else by the calling thread, lock held (it
is re-entrant): the write that rotates a memtable flushes it and runs
every merge that made eligible, and every wait runs claims until its
own condition holds. The thread claims a flush before a merge chunk and
a merge chunk before a scrub chunk, so a sealed memtable's flush starts
after at most the one chunk in flight when it was sealed.
:class:`MaintenanceExecutor` owns the thread, the "state changed"
condition it and every waiter wait on, the single-flush claim, the
scrubber, the cut of the log after a flush, and the two waits a write
can meet — the stall gate and the flush stall, each counted and traced —
and is the one place that asks which mode is on. The store's lock, the
commit log (whose ``closed`` flag is the store's), the rotation rule
and the compaction manager (whose current version holds the sealed
memtables: a rotation appends one, a published flush removes the head)
arrive through the constructor; nothing here calls back into the store
(``docs/engine-concurrency.md``). "Lock held" means that lock.
"""

from __future__ import annotations

import threading
from typing import Callable

from ..errors import ClosedError, ConfigurationError
from ..obs import events as obs_events
from .commitlog import CommitLog
from .compaction import RETRY_SECONDS, CompactionManager
from .iterators import ReaderCorruption
from .options import StoreOptions
from .ratelimiter import RateLimiter
from .rotation import Rotation
from .scrub import Scrubber

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
        log: CommitLog,
        rotation: Rotation,
        compaction: CompactionManager,
    ) -> None:
        self._obs = obs
        self._lock = lock
        # The single "state changed" signal: the worker waits on it for
        # work; stalled writers and quiesce paths wait on it for
        # progress. Every publish, rotation, and close notifies it.
        self._changed = threading.Condition(lock)
        self._log = log
        self._rotation = rotation
        self._compaction = compaction
        # True while the oldest sealed memtable is being written out.
        # Exactly one flush may be in flight: flushes take fresh manifest
        # sequence stamps, so publishing them out of order would corrupt
        # the newest-first reconciliation order.
        self._flush_claimed = False
        #: No flush is claimed before this ``obs.clock()``: one failed.
        self._flush_retry_at = 0.0
        self._scrubber = Scrubber(
            interval=options.scrub_interval,
            chunk_bytes=compaction.chunk_bytes,
            rate_limiter=compaction.rate_limiter,
            scrub_limiter=RateLimiter(options.scrub_rate_bytes_per_s, obs),
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
        #: Writes that met the stall gate closed, and their seconds there.
        self.stall_count = 0
        self.stall_seconds = 0.0
        self._m_stalls = obs.registry.counter(
            "engine_write_stalls_total",
            help="Writes that observed a stalled tree.",
        )
        self._m_stall_seconds = obs.registry.counter(
            "engine_stall_seconds_total",
            help="Time writers spent blocked in the headroom gate.",
        )
        self._m_flush_stalls = obs.registry.counter(
            "engine_flush_stalls_total",
            help="Rotations that found no free memory component.",
        )
        self._m_flush_stall_seconds = obs.registry.counter(
            "engine_flush_stall_seconds_total",
            help="Time writers spent waiting for a memtable to flush.",
        )
        #: The maintenance thread; None when the caller drives.
        self._worker: threading.Thread | None = None
        if options.background_maintenance:
            self._worker = threading.Thread(
                target=self._worker_loop, name="lsm-maintenance-0", daemon=True
            )
            self._worker.start()

    def join(self) -> None:
        """Wake the worker and wait for it to exit (lock NOT held; the
        store has set its closed flag). It first publishes or abandons
        the task it had claimed; from here the caller drives
        (``close()``'s last flushes and merges)."""
        with self._lock:
            self._changed.notify_all()
        if self._worker is not None:
            self._worker.join(timeout=30.0)
            self._worker = None

    # -- claim → execute → publish ---------------------------------------

    def _claim_flush_locked(self):
        """Claim the oldest sealed memtable's flush (lock held); None
        when nothing is sealed or a flush is already in flight."""
        sealed = self._compaction.version.sealed
        if not sealed or self._flush_claimed:
            return None
        memtable = sealed[0]
        run_id, writer = self._compaction.begin_flush(len(memtable))
        self._flush_claimed = True
        return ("flush", memtable, run_id, writer)

    def _claim_locked(self):
        """Claim the worker's next task (lock held); None when idle.

        Flushes take priority over merge chunks — memory components are
        the scarcest resource, and a full sealed queue stalls rotations
        — so a sealed memtable waits for at most the one chunk in flight
        when it was sealed. Merges are claimed through the compaction
        manager's scheduler. Scrub chunks rank last: verification is the
        only maintenance work with no deadline, so it soaks up idle
        time without ever delaying a flush or merge claim. A flush that
        failed is claimed again after ``compaction.RETRY_SECONDS``.
        """
        flush_due = self._obs.clock() >= self._flush_retry_at
        return (
            (flush_due and self._claim_flush_locked())
            or self._claim_merge_locked()
            or self._claim_scrub_locked()
        )

    def _claim_merge_locked(self):
        job = self._compaction.claim_merge()
        return None if job is None else ("merge", job)

    def _claim_scrub_locked(self):
        scrub = self._scrubber.claim(self._compaction.version)
        return None if scrub is None else ("scrub", scrub)

    def _run(self, task) -> bool:
        """Execute one claimed task's I/O, then publish under the lock
        (a worker comes without the lock, an inline caller holding it);
        True once published. The only caller of ``MergeJob.advance``.

        The claimed memtable stays in the sealed queue (read-visible)
        for the whole write, and the version that adds the run is the
        one that removes it, so a reader always sees the data in exactly
        one place. A task that raises is abandoned — partial output deleted,
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
                    self._compaction.publish_flush(run_id, stats, memtable)
                    self._flush_claimed = False
                    self._cut_log()
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
                        self._compaction.quarantine_run(
                            result.run_id, result.finding, "scrub"
                        )
                    self._changed.notify_all()
            return True
        except ReaderCorruption as damage:
            with self._lock:
                self._abandon_locked(task)
                self._compaction.quarantine_run(
                    damage.run_id, str(damage), "merge"
                )
            return False
        except BaseException:
            with self._lock:
                self._abandon_locked(task, retry=True)
            raise

    def _abandon_locked(self, task, retry: bool = False) -> None:
        """Clean up a failed task (lock held).

        A failed flush keeps its memtable sealed (the data is still in
        the WAL and remains readable), claimed again by the worker after
        a back-off; a failed merge is abandoned so the policy may
        reschedule the same inputs later (with ``retry``, after a
        back-off); a failed repair leaves the run quarantined for the
        next attempt; a failed scrub chunk releases the scrubber's claim
        and skips the current run (the next pass revisits it).
        """
        try:
            if task[0] == "flush":
                self._flush_claimed = False
                self._flush_retry_at = self._obs.clock() + RETRY_SECONDS
            if task[0] in ("flush", "repair"):
                task[3].abandon()
            elif task[0] == "merge":
                self._compaction.fail_merge(task[1], retry)
            else:
                self._scrubber.fail()
        except Exception:  # noqa: BLE001 — best-effort cleanup
            pass
        self._m_failures.inc()
        self._changed.notify_all()

    def _worker_loop(self) -> None:
        """The maintenance thread: claim under the lock, do I/O off it.

        The lock is held only to claim a task and, inside :meth:`_run`,
        to publish the finished result. The expensive part — reconciling
        and writing run files, plus any rate-limiter sleeps — runs with
        the lock released, so foreground reads and writes proceed
        underneath. Concurrent merges share the thread chunk by chunk,
        as the scheduler splits the budget. A claim that raises (a run
        writer that cannot be opened, say) is counted as a failure, and
        the worker waits a poll and claims again.
        """
        busy = self._obs.registry.gauge(
            "engine_maintenance_worker_busy",
            labels={"worker": "0"},
            help="1 while the maintenance worker is executing a task.",
        )
        self._obs.tracer.emit(
            obs_events.MAINTENANCE_WORKER, worker=0, state="start"
        )
        try:
            while True:
                with self._lock:
                    if self._log.closed:
                        return
                    try:
                        task = self._claim_locked()
                    except Exception:  # noqa: BLE001 — counted; claim again
                        self._m_failures.inc()
                        task = None
                    if task is None:
                        self._obs.wait(self._changed, _POLL_SECONDS)
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
                obs_events.MAINTENANCE_WORKER, worker=0, state="stop"
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
        if self._compaction.version.sealed or self._compaction.has_work():
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

    # -- the drive mode: does the worker make progress, or the caller? ---
    # Lock held; a worker-mode wait releases it (Condition.wait drops
    # every level), the caller keeps it throughout.

    def _check_open(self, doing: str) -> None:
        if self._log.closed:
            raise ClosedError(f"store closed {doing}")

    def _nothing_claimable(self) -> bool:
        return not (
            self._compaction.version.sealed
            or self._flush_claimed
            or self._compaction.has_work()
            or self._compaction.kick()
            or self._compaction.retry_pending()
        )

    def _drive(self, done: Callable[[], bool], doing: str) -> None:
        """Return once ``done()`` holds, raising rather than hanging when
        nothing claimable could ever make it hold. The mode is read once:
        ``join()`` drops the worker under a parked waiter, which must
        then see the close, not start driving. The worker owns progress
        when there is one: wake it, then wait for a publish. Without it
        the caller claims and runs each task itself, a flush first, and
        never asks whether the store closed — ``close()``'s own drain
        comes here after the join."""
        if self._worker is None:
            while not done():
                if self._step(self._claim_next_locked):
                    continue
                if not self._compaction.retry_pending():
                    raise self._too_tight()
                self._obs.sleep(_POLL_SECONDS)
            return
        self._changed.notify_all()
        while not done():
            self._check_open(doing)
            if self._nothing_claimable():
                raise self._too_tight()
            self._obs.wait(self._changed, _POLL_SECONDS)

    def await_headroom(self) -> float:
        """The write-stall gate, the paper's stop interaction mode:
        return once it is open, with the seconds this caller waited
        (0.0 when it was open).

        A stall is counted once per write that observed a stalled tree
        (not once per polling iteration), and the time a blocking writer
        spends here accumulates into ``stall_seconds_total``.
        ``stall_exit`` says how the wait ended: ``resumed``, ``closed``
        under the writer, or ``failed`` — as a rule, nothing could ever
        clear the constraint.
        """
        compaction = self._compaction
        if not compaction.version.write_stalled:
            return 0.0
        self.stall_count += 1
        self._m_stalls.inc()
        self._obs.tracer.emit(
            obs_events.STALL_ENTER, components=compaction.component_count
        )
        started = self._obs.clock()
        outcome = "failed"  # any error but a close
        try:
            self._drive(
                lambda: not compaction.version.write_stalled,
                "while a write was stalled",
            )
            outcome = "resumed"
        except ClosedError:
            outcome = "closed"
            raise
        finally:
            # The wait drops the store lock, so other writers park here
            # too: each bills its own elapsed, never the total's growth.
            elapsed = self._obs.clock() - started
            self.stall_seconds += elapsed
            self._m_stall_seconds.inc(elapsed)
            self._obs.tracer.emit(
                obs_events.STALL_EXIT, outcome=outcome, seconds=elapsed
            )
        return elapsed

    def await_sealed_slot(self) -> None:
        """Return once the sealed queue has room for one more memtable.

        A flush stall: every spare memory component is waiting on a
        flush (:func:`~repro.engine.rotation.sealed_slots`; rare when
        flushes get I/O priority). Counted apart from
        :meth:`await_headroom`'s stalls, and timed here only.
        """
        compaction = self._compaction
        started = self._obs.clock()
        try:
            self._drive(
                self._rotation.slot_free, "while a rotation was stalled"
            )
        finally:
            elapsed = self._obs.clock() - started
            self._m_flush_stalls.inc()
            self._m_flush_stall_seconds.inc(elapsed)
            self._obs.tracer.emit(
                obs_events.FLUSH_STALL,
                seconds=elapsed,
                sealed_queue=len(compaction.version.sealed),
            )

    def rotate_if_full(self) -> None:
        """After a commit: seal the active memtable once it reaches the
        target, first waiting for a sealed slot if none is free (a flush
        stall). The write is already logged and in the memtable, so once
        the store closed — before the wait or during it — it returns
        without sealing: ``close()`` flushes what the write left. The
        worker is then woken rather than competed with; without it the
        caller flushes the sealed memtable and runs every merge that
        made eligible, leaving no work behind."""
        rotation = self._rotation
        if not rotation.full() or self._log.closed:
            return
        if not rotation.slot_free():
            try:
                self.await_sealed_slot()
            except ClosedError:
                return
        rotation.seal()
        if self._worker is not None:
            self._changed.notify_all()
        else:
            self._step_until_idle()

    def flush_memtables(self) -> None:
        """Get every buffered write into runs, then cut the log if it
        may be (a flush before may have been refused a cut). Writes can
        land while the worker flushes, the lock released; what did is sealed
        and flushed here on the caller, the lock held throughout (no
        flush may be claimed), so on return every memtable is empty."""
        compaction, rotation = self._compaction, self._rotation
        if len(compaction.version.active):
            rotation.seal()
        self._drive(
            lambda: not (compaction.version.sealed or self._flush_claimed),
            "while flushing",
        )
        if len(compaction.version.active):
            rotation.seal()
            while self._step(self._claim_flush_locked):
                pass
        self._cut_log()

    def _cut_log(self) -> None:
        """Every memtable that was sealed before the last flush is
        durable in runs once the sealed queue is empty; if the active
        one holds nothing either, the log may restart
        (:meth:`CommitLog.checkpoint` has the rest of the rule)."""
        version = self._compaction.version
        if not version.sealed and not len(version.active):
            self._log.checkpoint()

    def drop_pending(self) -> None:
        """Wait out claimed flushes and merge chunks: a reset's install
        supersedes the sealed memtables, and the merges' inputs."""
        claimed = self._compaction.merge_claimed
        self._drive(
            lambda: not (self._flush_claimed or claimed()), "during a reset"
        )

    def run_to_idle(self, max_steps: int = 1_000_000) -> None:
        """Run flushes and merges until none remain — when the caller
        drives, in at most ``max_steps`` tasks, waiting out a failed
        merge's back-off with the lock held, and raising the error of a
        merge start it makes itself."""
        if self._worker is not None:
            self._drive(self._nothing_claimable, "during maintenance")
            return
        while True:
            self._compaction.kick(strict=True)
            max_steps -= self._step_until_idle(max_steps)
            if not self._compaction.retry_pending():
                return
            self._obs.sleep(_POLL_SECONDS)

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
                self._obs.sleep(0.005)
