"""Tests for the shared LRU cache of blocks and rows."""

import pytest

from repro.engine import BlockCache, LSMStore, StoreOptions
from repro.engine.blockcache import ROW_OVERHEAD_BYTES, ROWS
from repro.errors import ConfigurationError, DataCorruptError

from .images import frozen, install


class TestBlockCacheUnit:
    def test_put_get_roundtrip(self):
        cache = BlockCache(1024)
        gen = cache.register_reader()
        cache.put(gen, 0, b"block-a")
        assert cache.get(gen, 0) == b"block-a"
        assert cache.hits == 1

    def test_miss_recorded(self):
        cache = BlockCache(1024)
        gen = cache.register_reader()
        assert cache.get(gen, 42) is None
        assert cache.misses == 1
        assert cache.hit_rate() == 0.0

    def test_lru_eviction_order(self):
        cache = BlockCache(30)
        gen = cache.register_reader()
        cache.put(gen, 0, b"a" * 10)
        cache.put(gen, 1, b"b" * 10)
        cache.put(gen, 2, b"c" * 10)
        cache.get(gen, 0)  # refresh block 0
        cache.put(gen, 3, b"d" * 10)  # evicts block 1 (LRU)
        assert cache.get(gen, 0) is not None
        assert cache.get(gen, 1) is None
        assert cache.used_bytes <= 30

    def test_oversized_block_not_cached(self):
        cache = BlockCache(10)
        gen = cache.register_reader()
        cache.put(gen, 0, b"x" * 100)
        assert cache.used_bytes == 0

    def test_zero_capacity_disables(self):
        cache = BlockCache(0)
        gen = cache.register_reader()
        cache.put(gen, 0, b"data")
        assert cache.get(gen, 0) is None

    def test_zero_capacity_lookups_count_as_misses(self):
        # A disabled cache still fields real lookups the reader had to
        # satisfy from disk; hit_rate() must honestly report 0%, not
        # pretend the cache was never consulted.
        cache = BlockCache(0)
        gen = cache.register_reader()
        cache.get(gen, 0)
        cache.get(gen, 1)
        assert cache.misses == 2
        assert cache.hits == 0
        assert cache.hit_rate() == 0.0

    def test_generations_do_not_alias(self):
        cache = BlockCache(1024)
        first = cache.register_reader()
        second = cache.register_reader()
        cache.put(first, 0, b"first")
        assert cache.get(second, 0) is None

    def test_evict_reader_frees_its_bytes(self):
        cache = BlockCache(1024)
        doomed = cache.register_reader()
        kept = cache.register_reader()
        cache.put(doomed, 0, b"x" * 100)
        cache.put(kept, 0, b"y" * 50)
        assert cache.evict_reader(doomed) == 100
        assert cache.used_bytes == 50
        assert cache.get(kept, 0) is not None

    def test_evict_reader_unknown_generation_is_noop(self):
        cache = BlockCache(1024)
        gen = cache.register_reader()
        cache.put(gen, 0, b"x" * 10)
        assert cache.evict_reader(999) == 0
        assert cache.used_bytes == 10

    def test_eviction_maintains_generation_index(self):
        # LRU eviction must also drop the key from the per-generation
        # index, or a later evict_reader would KeyError on the block it
        # believes is still cached.
        cache = BlockCache(20)
        doomed = cache.register_reader()
        cache.put(doomed, 0, b"a" * 10)
        cache.put(doomed, 1, b"b" * 10)
        cache.put(doomed, 2, b"c" * 10)  # evicts offset 0
        assert cache.evict_reader(doomed) == 20
        assert cache.used_bytes == 0

    def test_clear_resets_generation_index(self):
        cache = BlockCache(1024)
        gen = cache.register_reader()
        cache.put(gen, 0, b"x" * 10)
        cache.clear()
        assert cache.evict_reader(gen) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            BlockCache(-1)


class TestRowEntries:
    def test_a_row_and_a_deletion_round_trip(self):
        cache = BlockCache(4096)
        assert cache.get_row(b"k") == (False, None)
        cache.put_row(b"k", b"value")
        cache.put_row(b"gone", None)
        assert cache.get_row(b"k") == (True, b"value")
        assert cache.get_row(b"gone") == (True, None)
        assert cache.row_hits == 2
        # Row lookups are not block lookups.
        assert cache.hits == cache.misses == 0
        assert cache.used_bytes == (
            len(b"k") + len(b"value") + len(b"gone") + 2 * ROW_OVERHEAD_BYTES
        )

    def test_rows_are_dropped_by_key_and_all_at_once(self):
        cache = BlockCache(4096)
        gen = cache.register_reader()
        cache.put(gen, 0, b"b" * 100)
        for key in (b"a", b"b", b"c"):
            cache.put_row(key, b"v")
        cache.drop_rows([b"a", b"missing"])
        assert cache.get_row(b"a") == (False, None)
        assert cache.get_row(b"b") == (True, b"v")
        assert cache.drop_all_rows() == 2 * (2 + ROW_OVERHEAD_BYTES)
        assert cache.get_row(b"c") == (False, None)
        # Blocks are untouched, and a reader's eviction leaves rows be.
        assert cache.used_bytes == 100
        cache.put_row(b"d", b"v")
        assert cache.evict_reader(gen) == 100
        assert cache.get_row(b"d") == (True, b"v")

    def test_rows_and_blocks_evict_each_other_in_one_budget(self):
        cache = BlockCache(1000)
        gen = cache.register_reader()
        cache.put_row(b"k", b"v" * 500)  # charged 801
        cache.put(gen, 0, b"b" * 300)  # 1101 > 1000: the row goes
        assert cache.get_row(b"k") == (False, None)
        assert cache.used_bytes == 300
        cache.put_row(b"k2", b"v" * 500)  # and now the block does
        assert cache.get(gen, 0) is None
        assert cache.get_row(b"k2") == (True, b"v" * 500)
        assert cache.evictions == 2
        assert cache.used_bytes <= cache.capacity_bytes

    def test_zero_capacity_caches_no_row(self):
        cache = BlockCache(0)
        cache.put_row(b"k", b"v")
        assert cache.get_row(b"k") == (False, None)
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
            assert store.stats().block_cache_hit_rate == 0.0

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


def _rows(store) -> set[bytes]:
    """The keys the store's cache holds a row for."""
    members = store._compaction.block_cache._by_generation.get(ROWS, ())
    return {key for _, key in members}


SMALL = StoreOptions(memtable_bytes=16 * 1024, levels=3)


class TestRowTier:
    """A cached row answers a get only while no write, and no change of
    the run set, could have changed the answer."""

    def test_a_get_uses_a_scanned_block_but_adds_none(self, tmp_path):
        with _loaded(tmp_path) as store:
            cache = store._compaction.block_cache
            assert store.get(b"user000020") == b"v" * 64
            assert set(cache._by_generation) == {ROWS}  # a row, no block
            assert len(list(store.scan(b"user000100", None, limit=5))) == 5
            assert set(cache._by_generation) - {ROWS}
            hits = cache.hits
            assert store.get(b"user000101") == b"v" * 64
            assert cache.hits > hits  # the block the scan brought in

    @pytest.mark.parametrize("write", ["put", "delete", "write_batch"])
    def test_a_write_after_a_cached_get_is_seen(self, tmp_path, write):
        key, other = b"user000007", b"user000008"
        with _loaded(tmp_path) as store:
            assert store.get(key) == store.get(other) == b"v" * 64
            assert {key, other} <= _rows(store)
            if write == "put":
                store.put(key, b"new")
            elif write == "delete":
                store.delete(key)
            else:
                store.write_batch([(key, b"new"), (other, None)])
                assert other not in _rows(store)
            assert key not in _rows(store)
            store.flush()  # so that a run, not the memtable, answers
            expected = None if write == "delete" else b"new"
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

    def test_group_commit_writes_drop_rows(self, tmp_path):
        key = b"user000011"
        with _loaded(tmp_path, group_commit=True) as store:
            assert store.get(key) == b"v" * 64
            store.put(key, b"grouped")
            assert key not in _rows(store)
            store.flush()
            assert store.get(key) == b"grouped"

    def test_apply_reset_drops_the_rows_it_rewrites(self, tmp_path):
        kept, dropped = b"user000012", b"user000013"
        with _loaded(tmp_path) as store:
            assert store.get(kept) and store.get(dropped)
            with frozen(tmp_path / "leader", [(kept, b"reset")]) as image:
                install(store, image)
            assert not _rows(store) & {kept, dropped}
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
            assert _rows(store)
            list(store.scan(None, None, limit=100))
            assert set(cache._by_generation) - {ROWS}  # and blocks

    @pytest.mark.parametrize("end", ["close", "crash"])
    def test_a_closed_store_releases_its_cache(self, tmp_path, end):
        store = _loaded(tmp_path)
        cache = store._compaction.block_cache
        assert store.get(b"user000015") == b"v" * 64
        assert len(list(store.scan(None, None, limit=50))) == 50
        assert _rows(store) and set(cache._by_generation) - {ROWS}
        getattr(store, end)()
        assert cache.used_bytes == 0
        assert not cache._by_generation
