"""Group-commit WAL tests, plus the cursor-desync regression suite.

The cursor tests pin the bugfix: a failed append must leave the WAL's
in-memory cursor agreeing with the physical file, or replication
offsets handed out afterwards point at garbage. The group tests pin
the leader/follower commit protocol: one fsync per group, per-batch
frames so offsets stay addressable, and torn groups that read as
normal crash residue — never as interior corruption.
"""

import os
import shutil
import threading

import pytest

from repro.engine import (
    LSMStore,
    StoreOptions,
    WriteAheadLog,
    scan_wal,
)
from repro.engine import wal as wal_module
from repro.errors import FaultInjectedError, WalFailedError
from repro.faults import FaultPlan, FaultRule, apply_ops


def _counter(store, name: str) -> float:
    snapshot = store.obs.registry.snapshot()
    return sum(
        entry["value"]
        for entry in snapshot["counters"]
        if entry["name"] == name
    )


class TestCursorResync:
    """A failed append must not desync the cursor from the file."""

    def test_torn_first_append_truncates_partial_bytes(self, tmp_path):
        path = str(tmp_path / "wal.log")
        plan = FaultPlan([FaultRule("wal.write", 0, "torn", keep_bytes=5)])
        log = WriteAheadLog(path, fault_plan=plan)
        with pytest.raises(FaultInjectedError):
            log.append([(b"a", b"1")])
        # The torn 5 bytes were physically dropped, not left for the
        # next frame to land after.
        assert log.size_bytes == 0
        assert os.path.getsize(path) == 0
        offset, length = log.append([(b"a", b"1")])
        log.close()
        assert (offset, length) == (0, os.path.getsize(path))
        assert scan_wal(path).state == "clean"
        assert list(WriteAheadLog.replay(path)) == [(b"a", b"1")]

    def test_torn_later_append_keeps_acked_prefix(self, tmp_path):
        path = str(tmp_path / "wal.log")
        plan = FaultPlan([FaultRule("wal.write", 1, "torn", keep_bytes=3)])
        log = WriteAheadLog(path, fault_plan=plan)
        first = log.append([(b"a", b"1")])
        with pytest.raises(FaultInjectedError):
            log.append([(b"b", b"2")])
        assert log.size_bytes == os.path.getsize(path) == sum(first)
        second = log.append([(b"c", b"3")])
        log.close()
        assert second[0] == sum(first)
        assert scan_wal(path).state == "clean"
        assert list(WriteAheadLog.replay(path)) == [
            (b"a", b"1"), (b"c", b"3")
        ]

    def test_fsync_failure_drops_the_unsynced_frame(self, tmp_path):
        # The frame hit the file intact but was never synced (and never
        # acked) — keeping it would hand replication an offset for
        # bytes that may not survive power loss.
        path = str(tmp_path / "wal.log")
        plan = FaultPlan([FaultRule("wal.fsync", 1, "fail")])
        log = WriteAheadLog(path, sync=True, fault_plan=plan)
        first = log.append([(b"a", b"1")])
        with pytest.raises(FaultInjectedError):
            log.append([(b"b", b"2")])
        assert log.size_bytes == os.path.getsize(path) == sum(first)
        log.close()
        assert list(WriteAheadLog.replay(path)) == [(b"a", b"1")]

    def test_failed_log_refuses_appends(self, tmp_path):
        log = WriteAheadLog(str(tmp_path / "wal.log"))
        log.append([(b"a", b"1")])
        log.fail_closed()
        with pytest.raises(WalFailedError):
            log.append([(b"b", b"2")])
        with pytest.raises(WalFailedError):
            log.sync()
        log.close()

    def test_rollback_discards_unacked_suffix(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(path)
        first_end = sum(log.append([(b"a", b"1")]))
        log.append([(b"b", b"2")])
        log.rollback(first_end)
        assert log.size_bytes == os.path.getsize(path) == first_end
        log.append([(b"c", b"3")])
        log.close()
        assert list(WriteAheadLog.replay(path)) == [
            (b"a", b"1"), (b"c", b"3")
        ]


class TestAppendGroup:
    def test_one_physical_write_many_frames(self, tmp_path):
        path = str(tmp_path / "wal.log")
        plan = FaultPlan()  # no rules: just the occurrence counters
        log = WriteAheadLog(path, fault_plan=plan)
        batches = [[(b"a", b"1")], [(b"b", b"2"), (b"c", None)], [(b"d", b"4")]]
        spans = log.append_group(batches)
        log.close()
        assert plan.occurrences("wal.write") == 1
        # Per-batch frames stay individually addressable.
        assert spans[0][0] == 0
        for (offset, length), (next_offset, _) in zip(spans, spans[1:]):
            assert offset + length == next_offset
        streamed = list(WriteAheadLog.stream_frames(path))
        assert [(s[0], s[1] - s[0]) for s in streamed] == spans
        assert [s[2] for s in streamed] == [
            [(b"a", b"1")], [(b"b", b"2"), (b"c", None)], [(b"d", b"4")]
        ]

    def test_group_does_not_fsync(self, tmp_path):
        path = str(tmp_path / "wal.log")
        plan = FaultPlan()
        log = WriteAheadLog(path, sync=True, fault_plan=plan)
        log.append_group([[(b"a", b"1")], [(b"b", b"2")]])
        assert plan.occurrences("wal.fsync") == 0
        log.sync()
        assert plan.occurrences("wal.fsync") == 1
        log.close()

    def test_torn_group_write_resyncs_cursor(self, tmp_path):
        path = str(tmp_path / "wal.log")
        plan = FaultPlan([FaultRule("wal.write", 1, "torn", keep_bytes=9)])
        log = WriteAheadLog(path, fault_plan=plan)
        first = log.append([(b"a", b"1")])
        with pytest.raises(FaultInjectedError):
            log.append_group([[(b"b", b"2")], [(b"c", b"3")]])
        assert log.size_bytes == os.path.getsize(path) == sum(first)
        spans = log.append_group([[(b"d", b"4")]])
        log.close()
        assert spans[0][0] == sum(first)
        assert scan_wal(path).state == "clean"


class TestGroupBoundaryCrashSweep:
    """Byte-granular crash sweep across a multi-batch group."""

    def _grouped_wal(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(path)
        batches = [
            [(b"k0", b"v0")],
            [(b"k1", b"v1"), (b"k0", None)],
            [(b"k2", b"v2" * 7)],
        ]
        spans = log.append_group(batches)
        log.sync()
        log.close()
        boundaries = [0] + [offset + length for offset, length in spans]
        return path, batches, boundaries

    def test_every_cut_recovers_a_frame_prefix(self, tmp_path):
        path, batches, boundaries = self._grouped_wal(tmp_path)
        with open(path, "rb") as log_file:
            pristine = log_file.read()
        total = boundaries[-1]
        assert total == len(pristine)
        for cut in range(total + 1):
            with open(path, "wb") as crashed:
                crashed.write(pristine[:cut])
            intact = max(
                index
                for index, boundary in enumerate(boundaries)
                if boundary <= cut
            )
            scan = scan_wal(path)
            # A group torn mid-frame is normal crash residue — it must
            # never classify as interior corruption.
            assert scan.state != "corrupt", f"cut at byte {cut}"
            assert scan.state == ("clean" if cut in boundaries else "torn")
            assert scan.frames == intact
            assert scan.valid_bytes == boundaries[intact]
            recovered = list(WriteAheadLog.replay(path))
            expected = [op for batch in batches[:intact] for op in batch]
            assert recovered == expected, f"cut at byte {cut}"

    def test_synced_group_survives_whole(self, tmp_path):
        path, batches, boundaries = self._grouped_wal(tmp_path)
        # No acked (synced) write may be lost: the untruncated log
        # replays every batch of the group.
        recovered = apply_ops(WriteAheadLog.replay(path))
        expected = apply_ops(op for batch in batches for op in batch)
        assert recovered == expected

    def test_damage_inside_a_grouped_frame_is_corrupt(self, tmp_path):
        path, _batches, boundaries = self._grouped_wal(tmp_path)
        with open(path, "r+b") as damaged:
            damaged.seek(boundaries[1] + 10)
            damaged.write(b"\xff")
        scan = scan_wal(path)
        assert scan.state == "corrupt"
        assert scan.frames == 1
        assert scan.valid_bytes == boundaries[1]


class TestGroupCommitStore:
    def _options(self, **extra):
        defaults = dict(
            memtable_bytes=8 * 2**20,
            sync_writes=True,
            group_commit=True,
        )
        defaults.update(extra)
        return StoreOptions(**defaults)

    def test_single_writer_counts_one_sync_per_batch(self, tmp_path):
        with LSMStore.open(str(tmp_path), self._options()) as store:
            for index in range(5):
                store.put(b"k%d" % index, b"v%d" % index)
            assert _counter(store, "engine_group_commit_batches_total") == 5
            assert _counter(store, "engine_group_commit_syncs_total") == 5
            for index in range(5):
                assert store.get(b"k%d" % index) == b"v%d" % index

    def test_unsynced_group_commit_never_fsyncs(self, tmp_path):
        options = self._options(sync_writes=False)
        with LSMStore.open(str(tmp_path), options) as store:
            for index in range(5):
                store.put(b"k%d" % index, b"v%d" % index)
            assert _counter(store, "engine_group_commit_batches_total") == 5
            assert _counter(store, "engine_group_commit_syncs_total") == 0

    def test_concurrent_writers_share_fsyncs(self, tmp_path, monkeypatch):
        """The whole point: one fsync covers a group of writers."""
        fsyncs = [0]
        real_fsync = wal_module.fsync_file

        def slow_counting_fsync(file):
            fsyncs[0] += 1
            real_fsync(file)
            # Widen the sync window so followers pile up behind the
            # leader and groups actually form on fast disks.
            threading.Event().wait(0.002)

        monkeypatch.setattr(wal_module, "fsync_file", slow_counting_fsync)
        threads, writers, per_writer = [], 8, 25
        with LSMStore.open(str(tmp_path), self._options()) as store:
            def write(writer: int) -> None:
                for index in range(per_writer):
                    store.put(b"w%d-%d" % (writer, index), b"x" * 32)

            for writer in range(writers):
                thread = threading.Thread(target=write, args=(writer,))
                thread.start()
                threads.append(thread)
            for thread in threads:
                thread.join()

            total = writers * per_writer
            batches = _counter(store, "engine_group_commit_batches_total")
            syncs = _counter(store, "engine_group_commit_syncs_total")
            assert batches == total
            assert syncs == fsyncs[0]
            # Amortization: strictly fewer fsyncs than acked writes.
            assert syncs < total
            for writer in range(writers):
                for index in range(per_writer):
                    assert store.get(b"w%d-%d" % (writer, index)) == b"x" * 32

    def test_acked_group_writes_survive_a_crash(self, tmp_path):
        """Copy the live directory (a crash image) and recover it."""
        live = str(tmp_path / "live")
        threads, writers, per_writer = [], 4, 10
        store = LSMStore.open(live, self._options())
        try:
            def write(writer: int) -> None:
                for index in range(per_writer):
                    store.put(b"w%d-%d" % (writer, index), b"v")

            for writer in range(writers):
                thread = threading.Thread(target=write, args=(writer,))
                thread.start()
                threads.append(thread)
            for thread in threads:
                thread.join()
            # Every put above was acked ⇒ its group was fsynced. A crash
            # now (simulated by copying the directory before close) must
            # lose none of them.
            crashed = str(tmp_path / "crashed")
            shutil.copytree(live, crashed)
        finally:
            store.close()
        with LSMStore.open(crashed, StoreOptions()) as recovered:
            state = dict(recovered.scan())
        for writer in range(writers):
            for index in range(per_writer):
                assert state[b"w%d-%d" % (writer, index)] == b"v"

    def test_write_batch_groups_and_recovers(self, tmp_path):
        with LSMStore.open(str(tmp_path), self._options()) as store:
            store.write_batch([(b"a", b"1"), (b"b", b"2")])
            store.write_batch([(b"a", None), (b"c", b"3")])
            assert store.get(b"a") is None
            assert store.get(b"b") == b"2"
            assert store.get(b"c") == b"3"
            assert _counter(store, "engine_group_commit_batches_total") == 2
        with LSMStore.open(str(tmp_path)) as reopened:
            assert dict(reopened.scan()) == {b"b": b"2", b"c": b"3"}
