"""Lifecycle tests for the maintenance executor and its one thread.

These tests pin down the claim/publish protocol's guarantees with
condition-variable stepping rather than wall-clock sleeps: instrumented
``MergeJob.advance`` hooks observe or gate worker progress, and the
store's own quiesce points (``maintenance()``, ``flush()``, ``close()``)
provide the synchronization barriers. Bounds on waiting are counted in
merge chunks, not in time.
"""

import os
import random
import threading
import time

import pytest

from repro.engine import (
    CompactionManager,
    LSMStore,
    MergeJob,
    SSTableReader,
    SSTableWriter,
    StoreOptions,
    compaction,
    maintenance,
)
from repro.obs import events as obs_events

WORKERS = StoreOptions(
    memtable_bytes=16 * 1024,
    policy="tiering",
    size_ratio=3,
    scheduler="greedy",
    levels=3,
    background_maintenance=True,
)


def run_files(directory):
    return {name for name in os.listdir(directory) if name.endswith(".run")}


def maintenance_threads():
    return [
        thread
        for thread in threading.enumerate()
        if thread.name.startswith("lsm-maintenance")
    ]


class TestNoCoAdvance:
    def test_one_thread_advances_every_merge(self, tmp_path, monkeypatch):
        # Every entry into MergeJob.advance is recorded with its thread:
        # with workers on, the store's one maintenance thread runs every
        # chunk, and never two at once.
        original = MergeJob.advance
        guard = threading.Lock()
        running = [0]
        overlaps: list[int] = []
        threads: set[str] = set()

        def tracked(self, chunk_bytes):
            with guard:
                running[0] += 1
                if running[0] > 1:
                    overlaps.append(id(self))
                threads.add(threading.current_thread().name)
            try:
                return original(self, chunk_bytes)
            finally:
                with guard:
                    running[0] -= 1

        monkeypatch.setattr(MergeJob, "advance", tracked)
        before = maintenance_threads()
        with LSMStore.open(str(tmp_path / "db"), WORKERS) as store:
            started = [t for t in maintenance_threads() if t not in before]
            assert [t.name for t in started] == ["lsm-maintenance-0"]
            for i in range(4000):
                store.put(f"user{i % 600:06d}".encode(), b"v" * 64)
            store.maintenance()
            merges = store.stats().merges_completed
            # Before the close, whose own drain runs on the caller.
            assert threads == {"lsm-maintenance-0"}
        assert merges > 0  # the guard was actually exercised
        assert not overlaps
        assert not started[0].is_alive()

    def test_a_sealed_memtable_waits_for_at_most_one_merge_chunk(
        self, tmp_path, monkeypatch
    ):
        """The worker claims a flush before a merge chunk, so between a
        memtable's seal and the start of its flush at most one chunk —
        the one in flight at the seal — ends, however many merges wait."""
        events: list[str] = []
        guard = threading.Lock()

        def record(kind):
            with guard:
                events.append(kind)

        rotate = CompactionManager.rotate
        claim_flush = maintenance.MaintenanceExecutor._claim_flush_locked
        advance = MergeJob.advance

        def sealed(self):
            memtable = rotate(self)
            record("seal")
            return memtable

        def claimed(self):
            task = claim_flush(self)
            if task is not None:
                record("flush")
            return task

        def chunk(self, chunk_bytes):
            time.sleep(0.001)  # let writes seal memtables mid-merge
            finished = advance(self, chunk_bytes)
            record("chunk")
            return finished

        monkeypatch.setattr(CompactionManager, "rotate", sealed)
        monkeypatch.setattr(
            maintenance.MaintenanceExecutor, "_claim_flush_locked", claimed
        )
        monkeypatch.setattr(MergeJob, "advance", chunk)
        options = WORKERS.with_(
            memtable_bytes=4096, merge_chunk_bytes=1024, constraint_limit=1000
        )
        rng = random.Random(49)
        with LSMStore.open(str(tmp_path / "db"), options) as store:
            for _ in range(1200):
                store.put(b"%012d" % rng.randrange(10**12), b"v" * 64)
            store.maintenance()
            merges = store.stats().merges_completed
        seals = [i for i, kind in enumerate(events) if kind == "seal"]
        flushes = [i for i, kind in enumerate(events) if kind == "flush"]
        assert len(seals) == len(flushes) > 20
        waits = [
            events[seal:flush].count("chunk")
            for seal, flush in zip(seals, flushes)
        ]
        assert merges > 0 and events.count("chunk") > len(seals)
        assert max(waits) == 1, waits  # some seals met a chunk in flight

    def test_fair_scheduler_with_workers(self, tmp_path):
        options = WORKERS.with_(scheduler="fair")
        with LSMStore.open(str(tmp_path / "db"), options) as store:
            for i in range(4000):
                store.put(f"user{i % 600:06d}".encode(), b"v" * 64)
            store.maintenance()
            assert store.get(b"user000000") == b"v" * 64
        with LSMStore.open(str(tmp_path / "db"), options.with_(
            background_maintenance=False
        )) as reopened:
            assert len(list(reopened.scan())) == 600


def a_merge_chunk_held(store, monkeypatch) -> threading.Event:
    """Load 600 keys and flush them with no merge claimed, then let the
    worker claim a merge and hold it at its first chunk; returns the
    event that lets the chunk go. Nothing is written while it is held:
    the one worker could flush nothing."""
    manager = store._compaction
    manager.claim_merge = lambda: None
    for i in range(4000):
        store.put(f"user{i % 600:06d}".encode(), b"v" * 64)
    store.flush()
    original = MergeJob.advance
    entered = threading.Event()
    release = threading.Event()

    def gated(self, chunk_bytes):
        entered.set()
        release.wait(timeout=30.0)
        return original(self, chunk_bytes)

    monkeypatch.setattr(MergeJob, "advance", gated)
    del manager.claim_merge
    assert entered.wait(timeout=30.0)
    return release


class TestQuiesce:
    def test_close_mid_merge_leaves_no_orphan_runs(
        self, tmp_path, monkeypatch
    ):
        # close() arrives while the worker holds a claimed, half-written
        # merge; the worker must finish or abandon it before close()'s
        # join, and the directory must end with exactly the manifest's
        # live runs.
        directory = str(tmp_path / "db")
        # A generous component budget: with merges held back, writers
        # must not hit the stall gate and wait for progress that cannot
        # come.
        store = LSMStore.open(directory, WORKERS.with_(constraint_limit=1000))
        release = a_merge_chunk_held(store, monkeypatch)
        closer = threading.Thread(target=store.close)
        closer.start()
        release.set()
        closer.join(timeout=30.0)
        assert not closer.is_alive()
        with LSMStore.open(directory, WORKERS.with_(
            background_maintenance=False
        )) as reopened:
            live = {
                record.files[0]
                for record in reopened._manifest.live_runs()
            }
            assert run_files(directory) == live
            assert len(list(reopened.scan())) == 600

    def test_crash_mid_merge_recovers_cleanly(self, tmp_path, monkeypatch):
        directory = str(tmp_path / "db")
        store = LSMStore.open(directory, WORKERS.with_(constraint_limit=1000))
        release = a_merge_chunk_held(store, monkeypatch)
        crasher = threading.Thread(target=store.crash)
        crasher.start()
        release.set()
        crasher.join(timeout=30.0)
        assert not crasher.is_alive()
        # Recovery sweeps any abandoned partial output and replays the
        # WAL: every write must still be visible.
        with LSMStore.open(directory, WORKERS.with_(
            background_maintenance=False
        )) as reopened:
            assert len(list(reopened.scan())) == 600
            live = {
                record.files[0]
                for record in reopened._manifest.live_runs()
            }
            assert run_files(directory) == live

    def test_flush_waits_for_workers(self, tmp_path):
        with LSMStore.open(str(tmp_path / "db"), WORKERS) as store:
            for i in range(1000):
                store.put(f"user{i:06d}".encode(), b"v" * 64)
            assert store.stats().memtable_entries > 0
            rotations = store.obs.registry.counter(
                "engine_memtable_rotations_total"
            )
            before = rotations.value
            store.flush()
            stats = store.stats()
            assert stats.memtable_entries == 0
            assert stats.sealed_memtables == 0
            assert stats.wal_bytes == 0
            # An explicit flush seals the active memtable: a rotation
            # like any other, counted and traced as one.
            assert rotations.value == before + 1
            rotated = [
                event
                for event in store.obs.tracer.events()
                if event.kind == obs_events.MEMTABLE_ROTATE
            ]
            assert len(rotated) == rotations.value


class TestFailureIsolation:
    def test_failed_merge_is_abandoned_and_retried(
        self, tmp_path, monkeypatch
    ):
        # The first merge advance raises; the worker must abandon that
        # job (partial output deleted), record the failure, and survive
        # to complete the rescheduled merge later.
        original = MergeJob.advance
        failures = threading.Semaphore(1)

        def flaky(self, chunk_bytes):
            if failures.acquire(blocking=False):
                raise OSError("injected merge failure")
            return original(self, chunk_bytes)

        monkeypatch.setattr(MergeJob, "advance", flaky)
        directory = str(tmp_path / "db")
        with LSMStore.open(directory, WORKERS) as store:
            for i in range(4000):
                store.put(f"user{i % 600:06d}".encode(), b"v" * 64)
            store.maintenance()
            counters = store.obs.registry.snapshot()["counters"]
            failed = [
                series["value"]
                for series in counters
                if series["name"] == "engine_maintenance_failures_total"
            ]
            assert failed and failed[0] >= 1
            assert store.stats().merges_completed > 0
        with LSMStore.open(directory, WORKERS.with_(
            background_maintenance=False
        )) as reopened:
            assert len(list(reopened.scan())) == 600


class TestObservability:
    def test_worker_lifecycle_events_and_gauges(self, tmp_path):
        directory = str(tmp_path / "db")
        store = LSMStore.open(directory, WORKERS)
        for i in range(1500):
            store.put(f"user{i % 400:06d}".encode(), b"v" * 64)
        store.maintenance()
        store.refresh_gauges()
        gauges = store.obs.registry.snapshot()["gauges"]
        busy_workers = {
            series["labels"]["worker"]
            for series in gauges
            if series["name"] == "engine_maintenance_worker_busy"
        }
        assert busy_workers == {"0"}
        depths = [
            series["value"]
            for series in gauges
            if series["name"] == "engine_maintenance_queue_depth"
        ]
        assert depths == [0.0]
        tracer = store.obs.tracer
        store.close()
        starts = [
            event
            for event in tracer.events()
            if event.kind == obs_events.MAINTENANCE_WORKER
            and event.fields.get("state") == "start"
        ]
        stops = [
            event
            for event in tracer.events()
            if event.kind == obs_events.MAINTENANCE_WORKER
            and event.fields.get("state") == "stop"
        ]
        assert [e.fields["worker"] for e in starts] == [0]
        assert [e.fields["worker"] for e in stops] == [0]

    def test_waiting_for_a_free_memtable_is_counted_as_a_flush_stall(
        self, tmp_path, monkeypatch
    ):
        finish = SSTableWriter.finish

        def slow_finish(writer):
            time.sleep(0.05)
            return finish(writer)

        monkeypatch.setattr(SSTableWriter, "finish", slow_finish)
        with LSMStore.open(str(tmp_path / "db"), WORKERS) as store:
            # Four memtables' worth, written faster than one flush ends:
            # a rotation finds the only spare memtable still sealed.
            for i in range(600):
                store.put(f"user{i:06d}".encode(), b"v" * 64)
            counters = {
                series["name"]: series["value"]
                for series in store.obs.registry.snapshot()["counters"]
                if not series["labels"]
            }
            stalls = [
                event
                for event in store.obs.tracer.events()
                if event.kind == obs_events.FLUSH_STALL
            ]
            stats = store.stats()
        assert counters["engine_flush_stalls_total"] == len(stalls) >= 1
        waited = sum(event.fields["seconds"] for event in stalls)
        assert waited > 0
        assert counters["engine_flush_stall_seconds_total"] == (
            pytest.approx(waited)
        )
        # Not a component-constraint stall: those counters stay put.
        assert stats.write_stalls == 0
        assert stats.stall_seconds_total == 0.0
        assert counters["engine_write_stalls_total"] == 0

    def test_inline_maintenance_never_flush_stalls(self, tmp_path):
        options = StoreOptions(
            memtable_bytes=16 * 1024, background_maintenance=False
        )
        with LSMStore.open(str(tmp_path / "db"), options) as store:
            for i in range(600):
                store.put(f"user{i:06d}".encode(), b"v" * 64)
            snapshot = store.obs.registry.snapshot()["counters"]
            kinds = {event.kind for event in store.obs.tracer.events()}
        assert obs_events.MEMTABLE_ROTATE in kinds
        assert {
            series["name"]: series["value"]
            for series in snapshot
            if series["name"].startswith("engine_flush_stall")
        } == {
            "engine_flush_stalls_total": 0,
            "engine_flush_stall_seconds_total": 0,
        }
        assert obs_events.FLUSH_STALL not in kinds


class TestCallerDrive:
    def test_a_rotating_write_leaves_no_merge_behind(self, tmp_path):
        """Without workers the caller is the only worker: the put that
        rotates flushes and runs every merge that made eligible, so no
        put returns with a merge in flight, and the gate never closes."""
        options = StoreOptions(
            memtable_bytes=4096,
            merge_chunk_bytes=1024,
            policy="tiering",
            size_ratio=3,
            levels=4,
        )
        rng = random.Random(37)
        with LSMStore.open(str(tmp_path / "db"), options) as store:
            for _ in range(3000):
                key = b"%012d" % rng.randrange(10**12)
                store.put(key, b"v" * 64)
                assert not store._compaction.has_work()
            stats = store.stats()
        assert stats.merges_completed > 0
        assert stats.write_stalls == 0


def counter(store, name):
    return sum(
        series["value"]
        for series in store.obs.registry.snapshot()["counters"]
        if series["name"] == name
    )


def hold_back_merges(store, rows=600):
    """Load ``rows`` keys and flush them with no merge claimed; then
    let go of the merges they scheduled (lock held on return, no flush
    pending): the next claim schedules them again and opens their
    files."""
    manager = store._compaction
    manager.claim_merge = lambda: None
    for i in range(rows):
        store.put(f"user{i:06d}".encode(), b"v" * 64)
    store.flush()
    store._lock.acquire()
    assert manager.has_work()
    for job in list(manager._jobs.values()):
        manager.fail_merge(job)
    del manager.claim_merge


def fail_once(monkeypatch, cls, name, failed):
    """``cls.name`` raises ``OSError`` on its first call."""
    original = getattr(cls, name)

    def once(self, *args, **kwargs):
        if not failed:
            failed.append(name)
            raise OSError("injected: too many open files")
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, once)


def opened_handles(monkeypatch):
    """Every merge input handle opened from now on."""
    handles = []
    original = SSTableReader.sequential_handle

    def recorded(self):
        handles.append(original(self))
        return handles[-1]

    monkeypatch.setattr(SSTableReader, "sequential_handle", recorded)
    return handles


class TestFailures:
    @pytest.mark.parametrize(
        "cls, name",
        [(SSTableReader, "sequential_handle"), (SSTableWriter, "__init__")],
        ids=["an-input", "the-output"],
    )
    def test_a_claim_that_cannot_open_a_merges_files_is_retried(
        self, tmp_path, monkeypatch, cls, name
    ):
        handles = opened_handles(monkeypatch)
        failed = []
        outcome = []

        def load():
            with LSMStore.open(str(tmp_path / "db"), WORKERS) as store:
                hold_back_merges(store)
                fail_once(monkeypatch, cls, name, failed)
                store._lock.release()
                while not failed:
                    time.sleep(0.01)
                store.maintenance()
                manager = store._compaction
                outcome.append(
                    (
                        store.stats().merges_completed > 0,
                        counter(store, "engine_maintenance_failures_total"),
                        len(list(store.scan())),
                        # No input is left marked as merging, and no
                        # handle of the failed start is left open.
                        any(c.merging for c in manager._components.values()),
                        [h.path for h in handles if not h._file.closed],
                    )
                )

        loader = threading.Thread(target=load, daemon=True)
        loader.start()
        loader.join(timeout=60.0)
        assert not loader.is_alive(), "maintenance stopped for good"
        assert outcome == [(True, 1, 600, False, [])]

    def test_a_flush_claim_that_raises_does_not_end_the_worker(
        self, tmp_path, monkeypatch
    ):
        original = CompactionManager.begin_flush
        failed = []

        def once(self, entry_hint):
            if not failed:
                failed.append(entry_hint)
                raise OSError("injected: no space left on device")
            return original(self, entry_hint)

        monkeypatch.setattr(CompactionManager, "begin_flush", once)
        outcome = []

        def load():
            with LSMStore.open(str(tmp_path / "db"), WORKERS) as store:
                for i in range(4000):
                    store.put(f"user{i % 600:06d}".encode(), b"v" * 64)
                store.maintenance()
                outcome.append(
                    (
                        counter(store, "engine_maintenance_failures_total"),
                        len(list(store.scan())),
                    )
                )

        # Without the guard the worker dies and writers wait forever.
        loader = threading.Thread(target=load, daemon=True)
        loader.start()
        loader.join(timeout=60.0)
        assert not loader.is_alive(), "maintenance stopped for good"
        assert failed and outcome == [(1, 600)]

    def test_a_merge_whose_reads_fail_backs_off(self, tmp_path, monkeypatch):
        assert compaction.RETRY_SECONDS >= maintenance._POLL_SECONDS
        failing_until = [float("inf")]
        read_at = SSTableReader.read_at

        def flaky(self, offset, length):
            # Only a merge's handles read through a buffered file.
            if self._file is not None and time.monotonic() < failing_until[0]:
                raise OSError("injected: I/O error")
            return read_at(self, offset, length)

        attempts = []
        advance = MergeJob.advance

        def counted(self, chunk_bytes):
            attempts.append(time.monotonic())
            return advance(self, chunk_bytes)

        monkeypatch.setattr(SSTableReader, "read_at", flaky)
        monkeypatch.setattr(MergeJob, "advance", counted)
        with LSMStore.open(str(tmp_path / "db"), WORKERS) as store:
            for i in range(800):
                store.put(f"user{i:06d}".encode(), b"v" * 64)
            deadline = time.monotonic() + 10.0
            while not attempts:
                assert time.monotonic() < deadline, "no merge was tried"
                time.sleep(0.01)
            failing_until[0] = attempts[0] + 0.5
            flushes = counter(store, "engine_flushes_total")
            for i in range(100):
                store.put(f"late{i:06d}".encode(), b"v" * 64)
            store.flush()
            # The flush published while the merge was still failing.
            assert time.monotonic() < failing_until[0]
            assert counter(store, "engine_flushes_total") > flushes
            time.sleep(max(0.0, failing_until[0] - time.monotonic()))
            store.maintenance()
            assert store.stats().merges_completed > 0
            failed = [at for at in attempts if at < failing_until[0]]
            # One attempt per back-off, not a busy loop.
            assert 2 <= len(failed) <= 0.5 / compaction.RETRY_SECONDS + 2
            assert counter(
                store, "engine_maintenance_failures_total"
            ) == len(failed)
            assert len(list(store.scan())) == 900

    def test_a_flush_whose_publish_fails_backs_off(self, tmp_path, monkeypatch):
        # A publish writes its manifest edit before it opens the run's
        # reader, so each failed one leaves a run file that the manifest
        # names and that must stay: the retries must be bounded.
        directory = str(tmp_path / "db")
        failing_until = [0.0]
        load = SSTableReader._load

        def flaky(self):
            if time.monotonic() < failing_until[0]:
                raise OSError("injected: I/O error")
            return load(self)

        monkeypatch.setattr(SSTableReader, "_load", flaky)
        keys = [f"user{i:06d}".encode() for i in range(150)]
        with LSMStore.open(directory, WORKERS) as store:
            failing_until[0] = time.monotonic() + 0.5
            for key in keys:
                store.put(key, b"v" * 64)
            store.flush()
            assert time.monotonic() >= failing_until[0]
            assert counter(store, "engine_maintenance_failures_total") >= 2
            left = run_files(directory)
            assert len(left) <= 0.5 / compaction.RETRY_SECONDS + 2
            assert all(store.get(key) == b"v" * 64 for key in keys)
        with LSMStore.open(directory, WORKERS) as store:
            assert all(store.get(key) == b"v" * 64 for key in keys)
            assert len(list(store.scan())) == len(keys)

    def test_an_inline_drain_raises_a_failed_start_then_waits_it_out(
        self, tmp_path, monkeypatch
    ):
        options = WORKERS.with_(background_maintenance=False)
        failed = []
        with LSMStore.open(str(tmp_path / "db"), options) as store:
            manager = store._compaction
            hold_back_merges(store)
            fail_once(monkeypatch, SSTableReader, "sequential_handle", failed)
            store._lock.release()
            # The caller drives: the start it made failed, so it is told.
            with pytest.raises(OSError, match="injected"):
                store.maintenance()
            assert manager.retry_pending() and not manager.has_work()
            assert counter(store, "engine_maintenance_failures_total") == 1
            # Called inside the back-off, the drain waits it out and
            # merges, rather than returning with the merge still due.
            store.maintenance()
            assert store.stats().merges_completed > 0
            assert not manager.kick()
            assert len(list(store.scan())) == 600

    def test_an_inline_merge_whose_reads_fail_backs_off(
        self, tmp_path, monkeypatch
    ):
        options = WORKERS.with_(background_maintenance=False)
        with LSMStore.open(str(tmp_path / "db"), options) as store:
            hold_back_merges(store)
            failing_until = time.monotonic() + 0.5
            read_at = SSTableReader.read_at

            def flaky(self, offset, length):
                # Only a merge's handles read through a buffered file.
                if self._file is not None and time.monotonic() < failing_until:
                    raise OSError("injected: I/O error")
                return read_at(self, offset, length)

            attempts = []
            advance = MergeJob.advance

            def counted(self, chunk_bytes):
                attempts.append(time.monotonic())
                return advance(self, chunk_bytes)

            monkeypatch.setattr(SSTableReader, "read_at", flaky)
            monkeypatch.setattr(MergeJob, "advance", counted)
            store._lock.release()
            raised = 0
            while True:
                try:
                    store.maintenance()
                    break
                except OSError:
                    raised += 1
                if raised == 1:
                    # A flush publishes while the merge is failing.
                    flushes = counter(store, "engine_flushes_total")
                    for i in range(100):
                        store.put(f"late{i:06d}".encode(), b"v" * 64)
                    store.flush()
                    assert counter(store, "engine_flushes_total") > flushes
            assert time.monotonic() >= failing_until
            assert store.stats().merges_completed > 0
            failed = [at for at in attempts if at < failing_until]
            # Each drain tried once, after the back-off, until one merged.
            assert raised == len(failed)
            assert 2 <= len(failed) <= 0.5 / compaction.RETRY_SECONDS + 2
            assert len(list(store.scan())) == 700


class TestKnownGaps:
    @pytest.mark.xfail(
        strict=True,
        reason="With workers on, the log is truncated only when a flush "
        "publishes over an empty active memtable, which a busy writer "
        "never grants. The fix is one log segment per memtable, retired "
        "at its flush's publish (docs/engine.md, 'Known gaps').",
    )
    def test_the_wal_stays_bounded_under_sustained_writes(self, tmp_path):
        options = StoreOptions(
            memtable_bytes=16 * 1024,
            num_memtables=2,
            background_maintenance=True,
        )
        # What is not yet in a run is at most every memtable, full; twice
        # that leaves room for framing and for a checkpoint running late.
        bound = options.num_memtables * options.memtable_bytes * 2
        largest = 0
        with LSMStore.open(str(tmp_path / "db"), options) as store:
            rotations = store.obs.registry.counter(
                "engine_memtable_rotations_total"
            )
            for i in range(20_000):
                if rotations.value >= 20:
                    break
                store.put(f"user{i:06d}".encode(), b"v" * 64)
                largest = max(largest, store.stats().wal_bytes)
            assert rotations.value >= 20
        assert largest < bound
