"""Integration-grade tests for the LSMStore public API."""

import gc
import threading
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import LSMStore, SSTableReader, StoreOptions
from repro.errors import ClosedError, ConfigurationError

SMALL = StoreOptions(
    memtable_bytes=16 * 1024,
    policy="tiering",
    size_ratio=3,
    scheduler="greedy",
    levels=3,
)


@pytest.fixture
def store(tmp_path):
    with LSMStore.open(str(tmp_path / "db"), SMALL) as opened:
        yield opened


class TestBasicKeyValue:
    def test_put_get_delete(self, store):
        store.put(b"k", b"v")
        assert store.get(b"k") == b"v"
        store.delete(b"k")
        assert store.get(b"k") is None

    def test_overwrite(self, store):
        store.put(b"k", b"1")
        store.put(b"k", b"2")
        assert store.get(b"k") == b"2"

    def test_get_missing(self, store):
        assert store.get(b"missing") is None

    def test_write_batch(self, store):
        store.write_batch([(b"a", b"1"), (b"b", None), (b"c", b"3")])
        assert store.get(b"a") == b"1"
        assert store.get(b"b") is None
        assert store.get(b"c") == b"3"

    def test_empty_batch_rejected(self, store):
        with pytest.raises(ConfigurationError):
            store.write_batch([])


class TestReadAcrossComponents:
    def fill(self, store, count=2000, value_size=64):
        for i in range(count):
            store.put(f"user{i % 700:06d}".encode(), b"v" * value_size)

    def test_reads_span_memtable_and_runs(self, store):
        self.fill(store)
        store.maintenance()
        stats = store.stats()
        assert stats.disk_components >= 1
        assert store.get(b"user000001") == b"v" * 64
        store.put(b"user000001", b"fresh")
        assert store.get(b"user000001") == b"fresh"

    def test_delete_shadows_older_runs(self, store):
        self.fill(store, count=1500)
        store.flush()
        store.delete(b"user000005")
        assert store.get(b"user000005") is None
        store.maintenance()
        assert store.get(b"user000005") is None

    def test_scan_reconciles_components(self, store):
        self.fill(store, count=1500)
        store.flush()
        store.put(b"user000002", b"newest")
        results = dict(store.scan(b"user000000", b"user000005"))
        assert results[b"user000002"] == b"newest"
        assert len(results) == 5

    def test_scan_limit(self, store):
        self.fill(store, count=500)
        results = list(store.scan(limit=7))
        assert len(results) == 7

    def test_scan_is_sorted_unique(self, store):
        self.fill(store, count=3000)
        store.maintenance()
        keys = [k for k, _ in store.scan()]
        assert keys == sorted(set(keys))


def block_lookups(store):
    stats = store.stats()
    return stats.cache_hits + stats.cache_misses


class TestPointLookupProbes:
    def test_a_get_asks_each_probed_run_once(self, tmp_path, monkeypatch):
        """Regression: the probe asked ``might_contain`` and then
        ``SSTableReader.get`` asked again — two hashes of the key per
        run. Now: one filter probe per run the key's bounds reach, one
        ``get`` (one block lookup) per run whose filter says maybe."""
        options = SMALL.with_(size_ratio=10, memtable_bytes=1 << 20)
        calls = {"might_contain": 0, "filter": 0, "get": 0}
        probe = SSTableReader.might_contain
        lookup = SSTableReader.get

        def counted_probe(self, key):
            calls["might_contain"] += 1
            return probe(self, key)

        def counted_lookup(self, key):
            calls["get"] += 1
            return lookup(self, key)

        class CountingFilter:
            def __init__(self, inner):
                self.inner = inner

            def might_contain(self, key):
                calls["filter"] += 1
                return self.inner.might_contain(key)

        with LSMStore.open(str(tmp_path / "db"), options) as store:
            for generation in range(3):  # three runs over the same keys
                for i in range(100):
                    store.put(b"user%04d" % i, b"%d" % generation)
                store.flush()
            assert store.stats().disk_components == 3
            for _run_id, run in store._compaction.read_plan():
                for reader in run.files:
                    reader._filter = CountingFilter(reader._filter)
            monkeypatch.setattr(SSTableReader, "might_contain", counted_probe)
            monkeypatch.setattr(SSTableReader, "get", counted_lookup)
            before = block_lookups(store)
            # In the newest run: probed once, found, done.
            assert store.get(b"user0042") == b"2"
            assert calls == {"might_contain": 1, "filter": 1, "get": 1}
            assert block_lookups(store) - before == 1
            # Inside every run's bounds, in none: each filter asked once
            # (a false positive would add a get; at most one per run).
            calls.update(might_contain=0, filter=0, get=0)
            assert store.get(b"user0042x") is None
            assert calls["might_contain"] == calls["filter"] == 3
            assert calls["get"] <= 3
            # Outside the bounds: no filter, no block.
            calls.update(might_contain=0, filter=0, get=0)
            assert store.get(b"zzz") is None
            assert calls == {"might_contain": 3, "filter": 0, "get": 0}

    def test_reader_get_alone_still_answers_without_the_filter(self, store):
        """``SSTableReader.get`` no longer consults the filter itself:
        absent keys inside the bounds cost it a block, keys outside
        them nothing."""
        for i in range(0, 100, 2):
            store.put(b"user%04d" % i, b"v")
        store.flush()
        [(_run_id, run)] = store._compaction.read_plan()
        [reader] = run.files
        before = block_lookups(store)
        assert reader.get(b"user0010") == (True, b"v")
        assert reader.get(b"user0011") == (False, None)
        assert reader.get(b"a") == (False, None)
        assert reader.get(b"z") == (False, None)
        assert block_lookups(store) - before == 2


class TestCompactionBehaviour:
    def test_merges_reduce_components(self, store):
        for i in range(12_000):
            store.put(f"user{i % 900:06d}".encode(), b"v" * 64)
        store.maintenance()
        stats = store.stats()
        assert stats.merges_completed >= 1
        # tiering keeps bounded components once merged
        assert stats.disk_components <= 12

    def test_tombstones_purged_at_bottom(self, tmp_path):
        options = SMALL.with_(num_memtables=1)
        with LSMStore.open(str(tmp_path / "db2"), options) as store:
            for i in range(400):
                store.put(f"k{i:05d}".encode(), b"x" * 32)
            for i in range(400):
                store.delete(f"k{i:05d}".encode())
            store.flush()
            store.maintenance()
            assert list(store.scan()) == []
            # after full compaction the data is physically gone
            total_entries = sum(
                1 for _ in store.scan()
            )
            assert total_entries == 0


class TestDurability:
    def test_recovery_from_wal(self, tmp_path):
        path = str(tmp_path / "db")
        store = LSMStore.open(path, SMALL)
        store.put(b"durable", b"yes")
        # simulate crash: skip close(), reopen from disk artifacts
        store._log._wal._file.flush()
        store2 = LSMStore.open(path + "-copy", SMALL)
        store2.close()
        reopened = LSMStore.open(path, SMALL)
        try:
            assert reopened.get(b"durable") == b"yes"
        finally:
            reopened.close()
        store._closed = True  # silence the leaked store

    def test_clean_close_and_reopen(self, tmp_path):
        path = str(tmp_path / "db")
        with LSMStore.open(path, SMALL) as store:
            for i in range(3000):
                store.put(f"k{i % 500:05d}".encode(), str(i).encode())
        with LSMStore.open(path, SMALL) as reopened:
            assert reopened.get(b"k00001") is not None
            keys = [k for k, _ in reopened.scan()]
            assert len(keys) == 500

    def test_deletes_survive_reopen(self, tmp_path):
        path = str(tmp_path / "db")
        with LSMStore.open(path, SMALL) as store:
            store.put(b"gone", b"1")
            store.flush()
            store.delete(b"gone")
        with LSMStore.open(path, SMALL) as reopened:
            assert reopened.get(b"gone") is None


class TestLifecycle:
    def test_closed_store_rejects_operations(self, tmp_path):
        store = LSMStore.open(str(tmp_path / "db"), SMALL)
        store.close()
        with pytest.raises(ClosedError):
            store.put(b"a", b"1")
        with pytest.raises(ClosedError):
            store.get(b"a")
        store.close()  # idempotent

    @pytest.mark.parametrize("end", ["close", "crash"])
    @pytest.mark.parametrize("background", [False, True])
    def test_a_closed_store_is_freed_without_the_cyclic_collector(
        self, tmp_path, end, background
    ):
        """The commit log and the maintenance executor call back into
        the store; closing must undo that cycle, or every closed store
        keeps its readers' indexes and filters until a full collection.
        What still answers after a close keeps answering."""
        options = SMALL.with_(
            background_maintenance=background, group_commit=True
        )
        store = LSMStore.open(str(tmp_path / "db"), options)
        store.put(b"a", b"1")
        gc.collect()
        gc.disable()
        try:
            getattr(store, end)()
            assert store.stats().wal_bytes == store.wal_position().log_bytes
            assert store.upstream is None
            for refused in (
                lambda: store.put(b"b", b"2"),
                store.scrub_tick,
                lambda: store._log.commit_grouped([(b"late", b"leader")]),
            ):
                with pytest.raises(ClosedError):
                    refused()
            alive = weakref.ref(store)
            del store, refused
            assert alive() is None
        finally:
            gc.enable()

    def test_stats_shape(self, store):
        store.put(b"a", b"1")
        stats = store.stats()
        assert stats.memtable_entries == 1
        assert stats.disk_components == 0
        assert stats.write_stalls == 0


class TestBackgroundMaintenance:
    def test_background_thread_mode(self, tmp_path):
        options = SMALL.with_(background_maintenance=True)
        with LSMStore.open(str(tmp_path / "db"), options) as store:
            for i in range(6000):
                store.put(f"user{i % 800:06d}".encode(), b"v" * 64)
            # reads remain correct while the background thread merges
            assert store.get(b"user000000") == b"v" * 64
        # close() drains; reopening sees everything
        with LSMStore.open(str(tmp_path / "db"), SMALL) as reopened:
            assert len(list(reopened.scan())) == 800

    def test_concurrent_writers(self, tmp_path):
        options = SMALL.with_(background_maintenance=True)
        errors = []
        with LSMStore.open(str(tmp_path / "db"), options) as store:
            def writer(base):
                try:
                    for i in range(500):
                        store.put(f"t{base}-{i:05d}".encode(), b"v" * 32)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(target=writer, args=(t,)) for t in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            assert store.get(b"t0-00000") == b"v" * 32
        with LSMStore.open(str(tmp_path / "db"), SMALL) as reopened:
            assert len(list(reopened.scan())) == 2000


class TestPropertyBased:
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["put", "delete"]),
                st.integers(0, 50),
                st.binary(min_size=1, max_size=32),
            ),
            min_size=1,
            max_size=150,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_matches_dict_model(self, tmp_path_factory, ops):
        directory = tmp_path_factory.mktemp("prop")
        reference: dict[bytes, bytes] = {}
        tiny = SMALL.with_(memtable_bytes=4096)
        with LSMStore.open(str(directory / "db"), tiny) as store:
            for op, key_index, value in ops:
                key = f"key{key_index:04d}".encode()
                if op == "put":
                    store.put(key, value)
                    reference[key] = value
                else:
                    store.delete(key)
                    reference.pop(key, None)
            for key, value in reference.items():
                assert store.get(key) == value
            assert dict(store.scan()) == reference
