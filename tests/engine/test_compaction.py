"""Tests for the compaction driver and its scheduler disciplines."""

import os

import pytest

from repro.engine import (
    CompactionManager,
    LSMStore,
    Manifest,
    StoreOptions,
)
from repro.errors import ConfigurationError

from . import bare_manager


def make_manager(tmp_path, **option_overrides):
    options = StoreOptions(
        memtable_bytes=8 * 1024,
        policy="tiering",
        size_ratio=3,
        levels=3,
        **option_overrides,
    )
    directory = str(tmp_path)
    manifest = Manifest(directory)
    return CompactionManager(directory, options, manifest), manifest


def flush_entries(manager, start, count, value=b"x" * 64):
    items = [
        (f"k{start + i:08d}".encode(), value) for i in range(count)
    ]
    bare_manager.flush(manager, iter(items), count)


class TestFlushAndMerge:
    def test_flush_creates_level0_run(self, tmp_path):
        manager, manifest = make_manager(tmp_path)
        flush_entries(manager, 0, 100)
        assert manager.component_count == 1
        assert manager.version.levels == {0: 1}
        manager.close()
        manifest.close()

    def test_tiering_merge_after_t_flushes(self, tmp_path):
        manager, manifest = make_manager(tmp_path)
        for batch in range(3):
            flush_entries(manager, batch * 100, 100)
        assert manager.has_work()
        bare_manager.drain(manager)
        assert manager.version.levels == {1: 1}
        assert manager.merges_completed == 1
        manager.close()
        manifest.close()

    def test_merge_files_replace_inputs_on_disk(self, tmp_path):
        manager, manifest = make_manager(tmp_path)
        for batch in range(3):
            flush_entries(manager, batch * 100, 100)
        inputs = {name for r in manifest.live_runs() for name in r.files}
        bare_manager.drain(manager)
        after = {f for f in os.listdir(tmp_path) if f.endswith(".run")}
        assert len(after) == 1
        assert after.isdisjoint(inputs)
        manager.close()
        manifest.close()

    def test_chunked_execution_is_incremental(self, tmp_path):
        manager, manifest = make_manager(tmp_path)
        for batch in range(3):
            flush_entries(manager, batch * 100, 5000, value=b"y" * 200)
        steps = 0
        while manager.has_work():
            assert bare_manager.step(manager)
            steps += 1
        assert steps >= 3  # several chunks, not one monolithic pass
        manager.close()
        manifest.close()

    def test_drain_step_budget(self, tmp_path):
        # Three flushes make a merge; flush() runs flushes only, so it
        # is still pending at the call, and a budget of 0 takes no step.
        options = StoreOptions(
            memtable_bytes=8 * 1024,
            policy="tiering",
            size_ratio=3,
            levels=3,
            merge_chunk_bytes=1,
        )
        with LSMStore.open(str(tmp_path), options) as store:
            for batch in range(3):
                for i in range(100):
                    store.put(f"k{batch * 100 + i:08d}".encode(), b"x" * 64)
                store.flush()
            assert store._compaction.has_work()
            with pytest.raises(ConfigurationError):
                store.maintenance(max_steps=0)

    def test_drain_that_converges_in_exactly_its_budget_returns(
        self, tmp_path
    ):
        # Three flushes leave one merge of one chunk: a budget of one
        # step runs it, and nothing is left to exceed the budget with.
        options = StoreOptions(
            memtable_bytes=8 * 1024, policy="tiering", size_ratio=3, levels=3
        )
        with LSMStore.open(str(tmp_path), options) as store:
            for batch in range(3):
                for i in range(50):
                    store.put(f"k{batch * 50 + i:08d}".encode(), b"x" * 64)
                store.flush()
            assert store._compaction.has_work()
            store.maintenance(max_steps=1)
            assert store.stats().merges_completed == 1
            assert not store._compaction.has_work()


class TestStallSignal:
    def test_constraint_reports_stall(self, tmp_path):
        # The lowest limit tiering at T = 3 over three levels can meet;
        # no merge runs here, so the seventh flush reaches it.
        manager, manifest = make_manager(tmp_path, constraint_limit=7)
        for run in range(6):
            flush_entries(manager, run * 100, 50)
        assert not manager.version.write_stalled
        flush_entries(manager, 600, 50)
        assert manager.version.write_stalled
        manager.close()
        manifest.close()


class TestSchedulerDisciplines:
    @pytest.mark.parametrize("scheduler", ["single", "fair", "greedy"])
    def test_all_schedulers_converge(self, tmp_path, scheduler):
        store_dir = tmp_path / scheduler
        options = StoreOptions(
            memtable_bytes=8 * 1024,
            policy="tiering",
            size_ratio=3,
            levels=3,
            scheduler=scheduler,
        )
        with LSMStore.open(str(store_dir), options) as store:
            for i in range(4000):
                store.put(f"user{i % 600:06d}".encode(), b"v" * 48)
            store.maintenance()
            stats = store.stats()
            assert stats.merges_completed >= 1
            assert len(list(store.scan())) == 600


class TestCrashRecovery:
    def test_orphan_outputs_removed_on_reopen(self, tmp_path):
        manager, manifest = make_manager(tmp_path)
        for batch in range(3):
            flush_entries(manager, batch * 100, 5000, value=b"z" * 400)
        # advance the merge partially, then "crash" (no finish)
        assert manager.has_work()
        bare_manager.step(manager)
        assert manager.has_work()  # still unfinished after one chunk
        live_before = {name for r in manifest.live_runs() for name in r.files}
        partial = [
            f
            for f in os.listdir(tmp_path)
            if f.endswith(".run") and f not in live_before
        ]
        assert partial  # an unfinished output exists on disk
        manager.close()
        manifest.close()
        manifest2 = Manifest(str(tmp_path))
        manager2 = CompactionManager(
            str(tmp_path),
            StoreOptions(memtable_bytes=8 * 1024, policy="tiering",
                         size_ratio=3, levels=3),
            manifest2,
        )
        remaining = {f for f in os.listdir(tmp_path) if f.endswith(".run")}
        assert remaining == {name for r in manifest2.live_runs() for name in r.files}
        # and the recovered tree re-schedules + completes the merge
        bare_manager.drain(manager2)
        assert manager2.version.levels == {1: 1}
        manager2.close()
        manifest2.close()


class TestNewestCopyWins:
    """A merge keeps the newest copy of a key whatever order its policy
    lists the inputs in: leveling and lazy leveling list the incoming
    runs before the older resident they absorb."""

    @pytest.mark.parametrize(
        "policy, size_ratio, versions",
        [("leveling", 3, 4), ("lazy-leveling", 2, 8)],
    )
    def test_reopen_reads_the_last_put(
        self, tmp_path, policy, size_ratio, versions
    ):
        options = StoreOptions(
            memtable_bytes=4096, policy=policy, size_ratio=size_ratio,
            levels=2,
        )
        directory = str(tmp_path / "db")
        with LSMStore.open(directory, options) as store:
            for version in range(versions):
                store.put(b"key", b"v%d" % version)
                store.flush()
                store.maintenance()
            assert store.stats().merges_completed >= 1
        with LSMStore.open(directory, options) as store:
            assert store.get(b"key") == b"v%d" % (versions - 1)
