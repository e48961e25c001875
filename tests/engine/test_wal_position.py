"""The log's position across truncations, closes, crashes: LSN + lineage.

``wal_position()`` is what replication cursors are made of. Its one
promise: two positions with the same lineage count bytes of the same
history — so a lineage may outlive the process only when the store can
prove nothing was lost or written in between (a clean close, recorded
in the manifest, voided at the next open).
"""

import json
import os
import shutil
import tempfile
import threading

from hypothesis import given, settings, strategies as st

from repro.engine import (
    LogPosition,
    LSMStore,
    Manifest,
    StoreOptions,
    WriteAheadLog,
)

OPTIONS = StoreOptions(
    memtable_bytes=16 * 1024,
    policy="tiering",
    size_ratio=3,
    levels=3,
    background_maintenance=False,
)


class Listener:
    """Records what the store tells a commit listener; vetoes on demand."""

    def __init__(self, grant=True):
        self.grant = grant
        self.commits = []
        self.asked = []

    def on_commit(self, lsn, length, batch):
        self.commits.append((lsn, length))

    def may_truncate(self, lsn):
        self.asked.append(lsn)
        return self.grant


def manifest_lines(path):
    with open(os.path.join(path, "MANIFEST"), encoding="utf-8") as manifest:
        return [json.loads(line) for line in manifest if line.strip()]


def wal_bytes(path):
    return os.path.getsize(os.path.join(path, "wal.log"))


class TestLsn:
    def test_a_checkpoint_moves_the_base_not_the_lsn(self, tmp_path):
        with LSMStore.open(str(tmp_path / "db"), OPTIONS) as store:
            start = store.wal_position()
            assert (start.lsn, start.wal_base) == (0, 0)
            first = store.timed_put(b"a", b"1")
            assert (first.wal_offset, first.wal_end) == (0, store.stats().wal_bytes)
            store.flush()  # everything in runs: the log is cut
            cut = store.wal_position()
            assert store.stats().wal_bytes == 0
            assert cut == (start.lineage, first.wal_end, first.wal_end)
            second = store.timed_put(b"b", b"2")
            assert second.wal_offset == first.wal_end
            after = store.wal_position()
            assert after.lsn == second.wal_end == cut.lsn + store.stats().wal_bytes
            assert after.wal_base == cut.wal_base

    def test_the_listener_hears_lsns(self, tmp_path):
        listener = Listener()
        with LSMStore.open(str(tmp_path / "db"), OPTIONS) as store:
            store.set_commit_listener(listener)
            store.put(b"a", b"1")
            store.flush()
            store.write_batch([(b"b", b"2"), (b"c", None)])
            store.set_commit_listener(None)
            (first, first_len), (second, _) = listener.commits
            assert first == 0 and second == first_len
            assert listener.asked == [first_len]

    def test_a_veto_keeps_the_log_and_the_base(self, tmp_path):
        listener = Listener(grant=False)
        with LSMStore.open(str(tmp_path / "db"), OPTIONS) as store:
            store.set_commit_listener(listener)
            store.put(b"a", b"1")
            store.flush()
            position = store.wal_position()
            assert position.wal_base == 0
            assert position.lsn == store.stats().wal_bytes > 0
            store.set_commit_listener(None)

    def test_group_commit_reports_lsns_too(self, tmp_path):
        options = StoreOptions(
            memtable_bytes=16 * 1024,
            group_commit=True,
            sync_writes=True,
            background_maintenance=False,
        )
        listener = Listener()
        with LSMStore.open(str(tmp_path / "db"), options) as store:
            store.put(b"a", b"1")
            store.flush()
            base = store.wal_position().wal_base
            assert base > 0
            store.set_commit_listener(listener)
            timing = store.timed_put(b"b", b"2")
            store.set_commit_listener(None)
            assert listener.commits == [
                (base, timing.wal_end - timing.wal_offset)
            ]
            assert timing.wal_offset == base


BATCHES = st.lists(
    st.lists(
        st.tuples(
            st.sampled_from([b"a", b"b", b"c", b"d"]),
            st.one_of(st.none(), st.binary(min_size=1, max_size=40)),
        ),
        min_size=1,
        max_size=4,
    ),
    min_size=1,
    max_size=4,
)
STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("append"), BATCHES),
        st.tuples(st.just("group"), BATCHES),
        st.tuples(st.just("cut"), st.just([])),
    ),
    min_size=1,
    max_size=8,
)


class TestReadByLsn:
    """``read_log(lsn, limit)`` is ``read_span`` of the log's file at
    ``lsn - wal_base``: the one rule, kept by the store, however the
    frames got there and wherever the base has moved to."""

    @settings(max_examples=40, deadline=None)
    @given(steps=STEPS, limits=st.lists(st.integers(1, 400), min_size=3, max_size=3))
    def test_reading_through_the_store_is_reading_the_file_at_lsn_minus_base(
        self, steps, limits
    ):
        listener = Listener()
        with tempfile.TemporaryDirectory() as scratch:
            # group_commit: a write is a commit group (concurrent ones
            # share a group, a lone one is a group of one).
            options = OPTIONS.with_(group_commit=True)
            with LSMStore.open(scratch, options) as store:
                store.set_commit_listener(listener)
                path = os.path.join(scratch, "wal.log")
                for kind, batches in steps:
                    if kind == "append":
                        for batch in batches:
                            store.write_batch(batch)
                    elif kind == "group":
                        writers = [
                            threading.Thread(target=store.write_batch, args=(batch,))
                            for batch in batches
                        ]
                        for writer in writers:
                            writer.start()
                        for writer in writers:
                            writer.join(30.0)
                    position = store.wal_position()
                    if kind == "cut":
                        store.flush()
                        # The base moves up by what the file held.
                        assert store.wal_position() == (
                            position.lineage, position.lsn, position.lsn
                        )
                        position = store.wal_position()
                    # No LSN ever moves: the frames are back to back
                    # from 0, across every cut so far.
                    ends = [lsn + length for lsn, length in listener.commits]
                    assert [lsn for lsn, _ in listener.commits] == (
                        [0] + ends
                    )[: len(ends)]
                    assert position.lsn == (ends[-1] if ends else 0)
                    assert position.log_bytes == wal_bytes(scratch)
                    for lsn, _length in listener.commits:
                        for limit in limits:
                            got = store.read_log(lsn, limit)
                            if lsn < position.wal_base:
                                assert got == (b"", 0)  # cut away
                            else:
                                assert got == WriteAheadLog.read_span(
                                    path, lsn - position.wal_base, limit
                                )
                                assert got[1] >= 1
                    assert store.read_log(position.lsn, 64) == (b"", 0)
                    assert position.reaches(position.lsn)
                    assert not position.reaches(position.lsn + 1)
                    assert not position.reaches(position.wal_base - 1)
                store.set_commit_listener(None)


class TestLineage:
    def test_a_clean_close_keeps_lineage_lsn_and_upstream(self, tmp_path):
        path = str(tmp_path / "db")
        with LSMStore.open(path, OPTIONS) as store:
            store.put(b"a", b"1")
            store.set_upstream((41, 1234, 2))
            before = store.wal_position()
        assert manifest_lines(path)[-1] == {
            "op": "position",
            "lineage": before.lineage,
            "wal_base": before.lsn,  # close() cut the log
            "upstream": [41, 1234, 2],
        }
        with LSMStore.open(path, OPTIONS) as reopened:
            assert reopened.wal_position() == (
                before.lineage, before.lsn, before.lsn,
            )
            assert reopened.upstream == (41, 1234, 2)

    def test_the_record_is_void_while_the_store_is_open(self, tmp_path):
        path, copy = str(tmp_path / "db"), str(tmp_path / "copy")
        LSMStore.open(path, OPTIONS).close()
        with LSMStore.open(path, OPTIONS) as store:
            lineage = store.wal_position().lineage
            # before a single write: what a power cut now would leave
            shutil.copytree(path, copy)
            assert manifest_lines(path)[-1] == {
                "op": "position", "lineage": None,
            }
        with LSMStore.open(copy, OPTIONS) as survivor:
            assert survivor.wal_position().lineage != lineage
        with LSMStore.open(path, OPTIONS) as reopened:
            assert reopened.wal_position().lineage == lineage

    def test_crash_means_a_fresh_lineage_and_no_upstream(self, tmp_path):
        path = str(tmp_path / "db")
        store = LSMStore.open(path, OPTIONS)
        store.put(b"a", b"1")
        store.set_upstream((41, 1234, 2))
        before = store.wal_position()
        store.crash()
        with LSMStore.open(path, OPTIONS) as recovered:
            after = recovered.wal_position()
            assert recovered.get(b"a") == b"1"
            assert after.lineage != before.lineage
            assert (after.lsn, after.wal_base) == (wal_bytes(path), 0)
            assert recovered.upstream is None

    def test_a_log_that_does_not_replay_whole_voids_the_record(self, tmp_path):
        path = str(tmp_path / "db")
        listener = Listener(grant=False)
        store = LSMStore.open(path, OPTIONS)
        store.set_commit_listener(listener)  # so close() leaves a log
        store.put(b"a", b"1")
        before = store.wal_position()
        store.close()
        assert wal_bytes(path) == before.lsn
        with open(os.path.join(path, "wal.log"), "r+b") as log:
            log.truncate(before.lsn - 1)
        with LSMStore.open(path, OPTIONS) as recovered:
            assert recovered.wal_position().lineage != before.lineage
            assert recovered.get(b"a") == b"1"  # it was flushed as well

    def test_a_vetoed_close_resumes_with_the_log_it_kept(self, tmp_path):
        path = str(tmp_path / "db")
        store = LSMStore.open(path, OPTIONS)
        store.set_commit_listener(Listener(grant=False))
        store.put(b"a", b"1")
        before = store.wal_position()
        store.close()
        with LSMStore.open(path, OPTIONS) as reopened:
            assert reopened.wal_position() == before
            assert reopened.wal_position().wal_base == 0

    def test_reset_lineage_forgets_the_upstream(self, tmp_path):
        with LSMStore.open(str(tmp_path / "db"), OPTIONS) as store:
            store.put(b"a", b"1")
            store.set_upstream((41, 1234, 2))
            before = store.wal_position()
            store.reset_lineage()
            after = store.wal_position()
            assert after.lineage != before.lineage
            assert after[1:] == before[1:]
            assert store.upstream is None

    def test_a_checkpoint_copy_is_its_own_lineage(self, tmp_path):
        path, copy = str(tmp_path / "db"), str(tmp_path / "copy")
        with LSMStore.open(path, OPTIONS) as store:
            store.put(b"a", b"1")
            store.set_upstream((41, 1234, 2))
            store.checkpoint(copy)
            with LSMStore.open(copy, OPTIONS) as clone:
                assert clone.get(b"a") == b"1"
                assert clone.wal_position().lineage != (
                    store.wal_position().lineage
                )
                assert clone.upstream is None


class TestCloseCheckpoints:
    """``close()`` used to reach the checkpoint only through a flush."""

    def test_nothing_left_to_flush_still_cuts_the_log(self, tmp_path):
        path = str(tmp_path / "db")
        listener = Listener(grant=False)
        store = LSMStore.open(path, OPTIONS)
        store.set_commit_listener(listener)
        for index in range(400):
            store.put(b"key-%04d" % index, b"v" * 100)
        store.flush()  # vetoed: every byte is still in the log
        rows = list(store.scan())
        assert store.stats().memtable_entries == 0
        assert wal_bytes(path) > 40_000
        store.set_commit_listener(None)  # what shipper.stop() does
        store.close()
        assert wal_bytes(path) == 0
        with LSMStore.open(path, OPTIONS) as reopened:
            assert reopened.stats().memtable_entries == 0
            assert list(reopened.scan()) == rows


class TestManifestRecord:
    def test_position_round_trips_and_is_taken_once(self, tmp_path):
        manifest = Manifest(str(tmp_path))
        run = manifest.allocate_run_id()
        manifest.add_run(run, 0, ("a.run",))
        manifest.compact(LogPosition(7, 99, (8, 50, 1)))
        manifest.close()
        recovered = Manifest(str(tmp_path))
        assert [r.run_id for r in recovered.live_runs()] == [run]
        assert recovered.take_position() == LogPosition(7, 99, (8, 50, 1))
        assert recovered.take_position() is None
        recovered.close()
        # voided on disk, not just in memory
        again = Manifest(str(tmp_path))
        assert again.take_position() is None
        assert [r.run_id for r in again.live_runs()] == [run]
        again.close()

    def test_no_upstream_and_no_position(self, tmp_path):
        manifest = Manifest(str(tmp_path))
        assert manifest.take_position() is None
        manifest.compact(LogPosition(7, 0))
        manifest.close()
        recovered = Manifest(str(tmp_path))
        assert recovered.take_position() == LogPosition(7, 0, None)
        recovered.compact()  # a snapshot that vouches for nothing
        recovered.close()
        emptied = Manifest(str(tmp_path))
        assert emptied.take_position() is None
        emptied.close()
