"""Tests for the shared LRU cache of rows and spans."""

import pytest

from repro.engine import BlockCache, LSMStore, StoreOptions
from repro.engine.blockcache import ROW_OVERHEAD_BYTES, SPAN_ADMIT_SCANS
from repro.errors import ConfigurationError, DataCorruptError

from .images import frozen, install


class TestBlockCacheUnit:
    def test_put_get_roundtrip(self):
        cache = BlockCache(1024)
        cache.put_row(b"k", b"row-a", cache.epoch)
        assert cache.get(b"k") == (True, b"row-a")
        assert cache.row_hits == 1

    def test_miss_recorded(self):
        """A get the cache cannot answer is not counted: the lookup goes
        on to blocks, and each block a query reads counts once."""
        cache = BlockCache(1024)
        assert cache.get(b"k") == (False, None)
        assert cache.row_hits == cache.misses == 0
        cache.count_block_read()
        assert cache.misses == 1

    def test_lru_eviction_order(self):
        row = len(b"k0") + 10 + ROW_OVERHEAD_BYTES
        cache = BlockCache(3 * row)
        for index in range(3):
            cache.put_row(b"k%d" % index, b"v" * 10, cache.epoch)
        cache.get(b"k0")  # refresh row k0
        cache.put_row(b"k3", b"v" * 10, cache.epoch)  # evicts k1 (LRU)
        assert cache.get(b"k0") == (True, b"v" * 10)
        assert cache.get(b"k1") == (False, None)
        assert cache.used_bytes <= 3 * row

    def test_oversized_row_not_cached(self):
        cache = BlockCache(100)
        cache.put_row(b"k", b"x" * 100, cache.epoch)
        assert cache.used_bytes == 0
        assert cache.get(b"k") == (False, None)

    def test_zero_capacity_disables(self):
        """No span is admitted at zero, however often its scan repeats."""
        cache = BlockCache(0)
        for _ in range(3):
            cache.put_span(b"a", b"z", None, [(b"k", b"v")], cache.epoch)
        assert cache.span_rows(b"a", b"z", None) == []
        assert cache.used_bytes == 0

    def test_zero_capacity_lookups_count_as_misses(self):
        # A disabled cache still counts the blocks queries read, so read
        # amplification is measured with or without a budget.
        cache = BlockCache(0)
        cache.count_block_read()
        cache.count_block_read()
        assert cache.misses == 2
        assert cache.row_hits == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            BlockCache(-1)


class TestRowEntries:
    def test_a_row_and_a_deletion_round_trip(self):
        cache = BlockCache(4096)
        assert cache.get(b"k") == (False, None)
        cache.put_row(b"k", b"value", cache.epoch)
        cache.put_row(b"gone", None, cache.epoch)
        assert cache.get(b"k") == (True, b"value")
        assert cache.get(b"gone") == (True, None)
        assert cache.row_hits == 2
        # Row lookups are not block lookups.
        assert cache.misses == 0
        assert cache.used_bytes == (
            len(b"k") + len(b"value") + len(b"gone") + 2 * ROW_OVERHEAD_BYTES
        )

    def test_rows_are_refreshed_by_key_and_dropped_all_at_once(self):
        cache = BlockCache(4096)
        for key in (b"a", b"b", b"c"):
            cache.put_row(key, b"v", cache.epoch)
        cache.refresh_rows([(b"a", b"new"), (b"b", None), (b"missing", b"x")])
        assert cache.get(b"a") == (True, b"new")
        assert cache.get(b"b") == (True, None)
        assert cache.get(b"missing") == (False, None)  # no row made
        assert cache.drop_all_rows() == (
            len(b"anew") + len(b"b") + len(b"cv") + 3 * ROW_OVERHEAD_BYTES
        )
        assert cache.get(b"c") == (False, None)
        assert cache.used_bytes == 0

    def test_a_refresh_that_no_longer_fits_drops_the_row(self):
        """A refreshed row is admitted again by the row rule."""
        cache = BlockCache(1000)
        cache.put_row(b"a", b"v" * 300, cache.epoch)
        cache.put_row(b"b", b"v" * 10, cache.epoch)
        cache.refresh_rows([(b"b", b"w" * 350)])
        assert cache.get(b"b") == (True, b"w" * 350)
        # Growing past the budget evicts the least recent row ...
        cache.refresh_rows([(b"a", b"v" * 400)])
        assert cache.get(b"b") == (False, None)
        assert cache.used_bytes == 1 + 400 + ROW_OVERHEAD_BYTES
        # ... and larger than the whole budget, the row itself.
        cache.refresh_rows([(b"a", b"w" * 1000)])
        assert cache.get(b"a") == (False, None)
        assert cache.used_bytes == 0

    def test_zero_capacity_caches_no_row(self):
        cache = BlockCache(0)
        cache.put_row(b"k", b"v", cache.epoch)
        assert cache.get(b"k") == (False, None)
        assert cache.used_bytes == 0


def _loaded(tmp_path, block_cache_bytes=1 << 20, **options):
    """A store whose keys ``user000000`` .. ``user000399`` are all in
    runs, so a get reads a run, not a memtable."""
    store = LSMStore.open(
        str(tmp_path / "db"),
        StoreOptions(
            memtable_bytes=16 * 1024,
            levels=3,
            block_cache_bytes=block_cache_bytes,
            **options,
        ),
    )
    for i in range(3000):
        store.put(f"user{i % 400:06d}".encode(), b"v" * 64)
    store.flush()
    store.maintenance()
    return store


def _block_lookups(store) -> int:
    stats = store.stats()
    return stats.cache_hits + stats.cache_misses


class TestBlockCacheInStore:
    def test_repeated_lookups_hit_cache(self, tmp_path):
        """The first get of a key reads a block and caches the row it
        wanted; every repeat is a row hit, with no block lookup."""
        with _loaded(tmp_path) as store:
            keys = [f"user{i:06d}".encode() for i in range(0, 400, 11)]
            for key in keys:
                assert store.get(key) == b"v" * 64
            lookups = _block_lookups(store)
            assert lookups >= len(keys)
            for _ in range(2):
                for key in keys:
                    assert store.get(key) == b"v" * 64
            stats = store.stats()
            assert _block_lookups(store) == lookups
            assert stats.row_hits == 2 * len(keys)
            assert stats.block_cache_used_bytes > 0

    def test_cache_disabled_still_correct(self, tmp_path):
        options = StoreOptions(
            memtable_bytes=16 * 1024, levels=3, block_cache_bytes=0
        )
        with LSMStore.open(str(tmp_path / "db"), options) as store:
            for i in range(2000):
                store.put(f"user{i % 300:06d}".encode(), b"v" * 64)
            store.maintenance()
            assert store.get(b"user000007") == b"v" * 64
            stats = store.stats()
            assert stats.row_hits == stats.cache_hits == 0

    def test_merged_away_runs_leave_the_cache(self, tmp_path):
        options = StoreOptions(
            memtable_bytes=8 * 1024, levels=3, block_cache_bytes=1 << 20
        )
        with LSMStore.open(str(tmp_path / "db"), options) as store:
            for i in range(4000):
                store.put(f"user{i % 500:06d}".encode(), b"v" * 48)
                if i % 500 == 0:
                    store.get(f"user{i % 500:06d}".encode())
            store.maintenance()
            used_after = store.stats().block_cache_used_bytes
            # whatever remains cached belongs to live runs only; reads
            # against the fully merged store still succeed
            assert store.get(b"user000001") is not None
            assert used_after >= 0


def _rows(store) -> dict[bytes, bytes | None]:
    """The store's cached rows, ``key -> value`` (None: deleted)."""
    answers = store._compaction.block_cache._answers
    return {key: value for key, value in answers.items() if type(key) is bytes}


SMALL = StoreOptions(memtable_bytes=16 * 1024, levels=3)


class TestRowTier:
    """A cached row answers a get only while no write, and no change of
    the run set, could have changed the answer."""

    def test_a_get_reads_the_block_a_scan_just_read_again(self, tmp_path):
        """No block is cached: a get of a key in the block a scan read
        reads it from its run again, and both reads are lookups."""
        with _loaded(tmp_path) as store:
            cache = store._compaction.block_cache
            counters = store.obs.registry.snapshot

            def scan_blocks() -> float:
                return sum(
                    c["value"] for c in counters()["counters"]
                    if c["name"] == "engine_scan_blocks_total"
                )

            before, scanned = store.stats(), scan_blocks()
            assert len(list(store.scan(b"user000100", None, limit=1))) == 1
            scan = store.stats().cache_misses - before.cache_misses
            assert scan == scan_blocks() - scanned >= 1
            assert store.get(b"user000101") == b"v" * 64
            after = store.stats()
            assert after.cache_hits == 0
            assert after.cache_misses == before.cache_misses + scan + 1
            assert cache.used_bytes == len(_rows(store)) * (
                len(b"user000101") + 64 + ROW_OVERHEAD_BYTES
            )

    @pytest.mark.parametrize("write", ["put", "delete", "write_batch"])
    def test_a_write_after_a_cached_get_is_seen(self, tmp_path, write):
        key, other = b"user000007", b"user000008"
        with _loaded(tmp_path) as store:
            assert store.get(key) == store.get(other) == b"v" * 64
            assert {key, other} <= _rows(store).keys()
            if write == "put":
                store.put(key, b"new")
            elif write == "delete":
                store.delete(key)
            else:
                store.write_batch([(key, b"new"), (other, None)])
                assert _rows(store)[other] is None
            expected = None if write == "delete" else b"new"
            assert _rows(store)[key] == expected
            store.flush()  # so that a run, not the memtable, answers
            for _ in range(2):
                assert store.get(key) == expected
                if write == "write_batch":
                    assert store.get(other) is None

    def test_a_cached_tombstone_answers_deleted(self, tmp_path):
        with LSMStore.open(str(tmp_path / "db"), SMALL) as store:
            store.put(b"k", b"v")
            store.flush()
            store.delete(b"k")
            store.flush()
            assert store.get(b"k") is None  # the newer run's tombstone
            assert b"k" in _rows(store)
            lookups, hits = _block_lookups(store), store.stats().row_hits
            assert store.get(b"k") is None
            assert _block_lookups(store) == lookups
            assert store.stats().row_hits == hits + 1
            store.put(b"k", b"back")
            store.flush()
            assert store.get(b"k") == b"back"

    def test_group_commit_writes_refresh_rows(self, tmp_path):
        key, other = b"user000011", b"user000012"
        with _loaded(tmp_path, group_commit=True) as store:
            assert store.get(key) == store.get(other) == b"v" * 64
            store.put(key, b"grouped")
            store.write_batch([(other, b"x"), (other, None)])
            assert _rows(store)[key] == b"grouped"
            assert _rows(store)[other] is None
            store.flush()
            lookups = _block_lookups(store)
            assert store.get(key) == b"grouped"
            assert store.get(other) is None
            assert _block_lookups(store) == lookups

    def test_apply_reset_drops_the_rows_it_rewrites(self, tmp_path):
        kept, dropped = b"user000012", b"user000013"
        with _loaded(tmp_path) as store:
            assert store.get(kept) and store.get(dropped)
            with frozen(tmp_path / "leader", [(kept, b"reset")]) as image:
                install(store, image)
            assert not _rows(store).keys() & {kept, dropped}
            store.flush()
            assert store.get(kept) == b"reset"
            assert store.get(dropped) is None

    def test_quarantine_drops_rows_and_a_covered_get_still_fails(
        self, tmp_path
    ):
        keys = [f"k{i:04d}".encode() for i in range(100)]
        with LSMStore.open(str(tmp_path / "db"), SMALL) as store:
            for key in keys:
                store.put(key, b"value-" + key)
            store.flush()
            assert store.get(keys[5]) == b"value-k0005"
            [record] = store.live_runs()
            assert store.quarantine_run(record.run_id, "test")
            assert not _rows(store)
            with pytest.raises(DataCorruptError) as excinfo:
                store.get(keys[5])
            assert excinfo.value.run_id == record.run_id
            assert (excinfo.value.min_key, excinfo.value.max_key) == (
                keys[0], keys[-1]
            )
            store.put(b"zzz", b"fresh")
            assert store.get(b"zzz") == b"fresh"

    def test_repair_drops_rows(self, tmp_path):
        with LSMStore.open(str(tmp_path / "db"), SMALL) as store:
            store.put(b"a", b"1")
            store.flush()
            store.put(b"z", b"1")
            store.flush()
            newer = max(store.live_runs(), key=lambda r: r.sequence)
            assert store.get(b"a") == b"1"
            assert store.quarantine_run(newer.run_id, "test")
            assert not _rows(store)
            # The fenced run's bounds are [z, z]: "a" is still served,
            # and cached again.
            assert store.get(b"a") == b"1"
            assert b"a" in _rows(store)
            assert store.repair_run(newer.run_id, [(b"z", b"2")])
            assert not _rows(store)
            assert store.get(b"z") == b"2"
            assert store.get(b"a") == b"1"

    def test_a_zero_budget_caches_nothing(self, tmp_path):
        key = b"user000014"
        with _loaded(tmp_path, block_cache_bytes=0) as store:
            for _ in range(2):
                assert store.get(key) == b"v" * 64
            stats = store.stats()
            assert stats.row_hits == 0
            assert stats.block_cache_used_bytes == 0
            assert stats.cache_hits == 0 and stats.cache_misses >= 2

    def test_rows_and_scanned_blocks_share_one_budget(self, tmp_path):
        """Rows hold the budget, and a scan's blocks take none of it."""
        budget = 8 * 1024
        with _loaded(tmp_path, block_cache_bytes=budget) as store:
            cache = store._compaction.block_cache
            for i in range(400):
                key = f"user{i:06d}".encode()
                assert store.get(key) == b"v" * 64
                if i % 50 == 0:
                    assert len(list(store.scan(key, None, limit=100))) > 0
                assert cache.used_bytes <= budget
            assert cache.evictions > 0
            # By here rows hold the budget, and a scan evicts no row.
            rows = _rows(store)
            assert budget - cache.used_bytes < 4096
            list(store.scan(None, None, limit=100))
            assert _rows(store) == rows
            assert cache.used_bytes <= budget

    def test_a_scan_twice_the_budget_leaves_a_hot_row(self, tmp_path):
        budget, hot = 8 * 1024, b"user000123"
        with _loaded(tmp_path, block_cache_bytes=budget) as store:
            cache = store._compaction.block_cache
            assert store.get(hot) == b"v" * 64
            scanned = list(store.scan(None, None))
            assert sum(len(k) + len(v) for k, v in scanned) > 2 * budget
            lookups, hits = _block_lookups(store), cache.row_hits
            assert store.get(hot) == b"v" * 64
            assert cache.row_hits == hits + 1
            assert _block_lookups(store) == lookups

    def test_a_batch_refreshes_to_its_last_write(self, tmp_path):
        key, gone = b"user000016", b"user000017"
        with _loaded(tmp_path) as store:
            assert store.get(key) == store.get(gone) == b"v" * 64
            store.write_batch(
                [(key, b"first"), (gone, b"x"), (key, b"last"), (gone, None)]
            )
            assert _rows(store)[key] == b"last"
            assert _rows(store)[gone] is None
            store.delete(key)
            assert _rows(store)[key] is None
            store.flush()
            lookups = _block_lookups(store)
            assert store.get(key) is None and store.get(gone) is None
            assert _block_lookups(store) == lookups

    def test_a_refresh_that_no_longer_fits_drops_the_row(self, tmp_path):
        budget, key = 4096, b"user000020"
        with _loaded(tmp_path, block_cache_bytes=budget) as store:
            cache = store._compaction.block_cache
            assert store.get(key) == b"v" * 64
            store.put(key, b"w" * budget)
            assert key not in _rows(store)
            assert cache.used_bytes <= cache.capacity_bytes
            store.flush()
            assert store.get(key) == b"w" * budget

    @pytest.mark.parametrize("end", ["close", "crash"])
    def test_a_closed_store_releases_its_cache(self, tmp_path, end):
        store = _loaded(tmp_path)
        cache = store._compaction.block_cache
        assert store.get(b"user000015") == b"v" * 64
        for _ in range(SPAN_ADMIT_SCANS):
            assert len(list(store.scan(b"user000100", None, limit=50))) == 50
        assert _rows(store) and cache._spans
        getattr(store, end)()
        assert cache.used_bytes == 0
        assert not cache._answers and not cache._spans and not cache._starts
