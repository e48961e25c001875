"""The block cache's ghost list: what it evicted or refused, looked up
again, is the read side's marginal saving."""

from repro.engine import BlockCache, LSMStore, StoreOptions
from repro.engine.blockcache import ROW_OVERHEAD_BYTES


def row_charge(key: bytes, value: bytes) -> int:
    return len(key) + len(value) + ROW_OVERHEAD_BYTES


class TestGhostList:
    def test_the_ghost_stays_within_its_bound(self):
        cache = BlockCache(40, ghost_bytes=35)
        gen = cache.register_reader()
        for offset in range(100):
            cache.put(gen, offset, b"x" * 10)
            assert cache.ghost_bytes <= 35
        assert cache.ghost_bytes == 30  # the last three evicted
        assert cache.evictions == 96

    def test_an_evicted_block_looked_up_again_counts_its_bytes_once(self):
        cache = BlockCache(20, ghost_bytes=100)
        gen = cache.register_reader()
        cache.put(gen, 0, b"a" * 10)
        cache.put(gen, 1, b"b" * 10)
        cache.put(gen, 2, b"c" * 10)  # evicts block 0
        assert cache.get(gen, 0) is None
        assert cache.ghost_hit_bytes == 10
        assert cache.get(gen, 0) is None  # forgotten: no second count
        assert cache.ghost_hit_bytes == 10
        assert cache.get(gen, 9) is None  # never cached: no count
        assert cache.ghost_hit_bytes == 10

    def test_a_refused_block_counts_too(self):
        cache = BlockCache(10, ghost_bytes=100)
        gen = cache.register_reader()
        cache.put(gen, 0, b"a" * 40)  # larger than the whole budget
        assert cache.used_bytes == 0
        assert cache.get(gen, 0) is None
        assert cache.ghost_hit_bytes == 40

    def test_a_hit_counts_nothing(self):
        cache = BlockCache(100, ghost_bytes=100)
        gen = cache.register_reader()
        cache.put(gen, 0, b"a" * 10)
        assert cache.get(gen, 0) == b"a" * 10
        assert cache.ghost_hit_bytes == 0

    def test_rows_count_the_same_way(self):
        charge = row_charge(b"k0", b"v" * 10)
        cache = BlockCache(2 * charge, ghost_bytes=10 * charge)
        for index in range(3):  # the third evicts k0
            cache.put_row(b"k%d" % index, b"v" * 10, cache.epoch)
        assert cache.get_row(b"k0") == (False, None)
        assert cache.ghost_hit_bytes == charge
        assert cache.get_row(b"k0") == (False, None)
        assert cache.ghost_hit_bytes == charge
        # Refused: larger than the budget, inside the ghost's bound.
        cache.put_row(b"big", b"v" * (3 * charge), cache.epoch)
        cache.get_row(b"big")
        assert cache.ghost_hit_bytes == charge + row_charge(
            b"big", b"v" * (3 * charge)
        )

    def test_a_ghost_of_zero_bytes_remembers_nothing(self):
        cache = BlockCache(10)
        gen = cache.register_reader()
        cache.put(gen, 0, b"a" * 10)
        cache.put(gen, 1, b"b" * 10)
        cache.get(gen, 0)
        assert cache.ghost_bytes == 0
        assert cache.ghost_hit_bytes == 0


class TestGhostAcrossResize:
    def test_a_shrink_puts_what_it_evicts_in_the_ghost(self):
        cache = BlockCache(100, ghost_bytes=100)
        gen = cache.register_reader()
        for offset in range(5):
            cache.put(gen, offset, b"x" * 10)
        cache.resize(20)
        assert cache.used_bytes == 20
        assert cache.ghost_bytes == 30
        for offset in range(3):  # the three least recent went
            assert cache.get(gen, offset) is None
        assert cache.ghost_hit_bytes == 30
        assert cache.ghost_bytes == 0

    def test_a_smaller_bound_drops_the_oldest_ghosts(self):
        cache = BlockCache(10, ghost_bytes=100)
        gen = cache.register_reader()
        for offset in range(6):
            cache.put(gen, offset, b"x" * 10)
        assert cache.ghost_bytes == 50
        cache.resize(10, ghost_bytes=20)
        assert cache.ghost_bytes == 20
        assert cache.get(gen, 0) is None  # dropped from the ghost
        assert cache.ghost_hit_bytes == 0
        assert cache.get(gen, 4) is None  # still remembered
        assert cache.ghost_hit_bytes == 10

    def test_a_cache_grown_from_zero_is_paid_back_by_its_ghost(self):
        cache = BlockCache(0, ghost_bytes=50)
        gen = cache.register_reader()
        for _ in range(2):
            for offset in range(4):
                if cache.get(gen, offset) is None:
                    cache.put(gen, offset, b"x" * 10)
        # Every block was refused, then asked for again.
        assert cache.ghost_hit_bytes == 40
        cache.resize(100)
        for offset in range(4):
            cache.put(gen, offset, b"x" * 10)
        assert cache.ghost_bytes == 40  # the last refusals, untouched
        assert cache.used_bytes == 40

    def test_clear_forgets_the_ghost(self):
        cache = BlockCache(10, ghost_bytes=100)
        gen = cache.register_reader()
        cache.put(gen, 0, b"x" * 10)
        cache.put(gen, 1, b"x" * 10)
        cache.clear()
        assert cache.ghost_bytes == 0
        assert cache.get(gen, 0) is None
        assert cache.ghost_hit_bytes == 0


def test_store_stats_and_the_registry_agree(tmp_path):
    # A ghost of 3.6 KB (5% of 72 KiB): 13 rows of these sizes.
    options = StoreOptions(memtable_bytes=64 * 1024, block_cache_bytes=8192)
    with LSMStore.open(str(tmp_path / "db"), options) as store:
        for i in range(800):
            store.put(f"k{i:05d}".encode(), b"v" * 100)
        store.flush()
        store.maintenance()
        # 35 rows cycle through a cache of 29: each is asked for again
        # a few evictions after it went.
        for _ in range(3):
            for i in range(35):
                store.get(f"k{i:05d}".encode())
        stats = store.refresh_gauges()
        counters = {
            c["name"]: c["value"]
            for c in store.obs.registry.snapshot()["counters"]
        }
        assert stats.ghost_hit_bytes > 0
        assert counters["engine_block_cache_ghost_hit_bytes_total"] == (
            stats.ghost_hit_bytes
        )
        assert stats.ghost_hit_bytes == (
            store._compaction.block_cache.ghost_hit_bytes
        )
