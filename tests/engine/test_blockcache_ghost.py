"""The cache's ghost list: what it evicted or refused, looked up again,
is the read side's marginal saving."""

from repro.engine import BlockCache, LSMStore, StoreOptions
from repro.engine.blockcache import ROW_OVERHEAD_BYTES

#: What one row ``k<i>`` -> ten bytes is charged, for i below 10.
ROW = len(b"k0") + 10 + ROW_OVERHEAD_BYTES


def row_charge(key: bytes, value: bytes) -> int:
    return len(key) + len(value) + ROW_OVERHEAD_BYTES


def put_rows(cache, indexes) -> None:
    for index in indexes:
        cache.put_row(b"k%d" % index, b"v" * 10, cache.epoch)


class TestGhostList:
    def test_the_ghost_stays_within_its_bound(self):
        cache = BlockCache(4 * ROW, ghost_bytes=3 * ROW + ROW // 2)
        for index in range(100):
            cache.put_row(b"k%02d" % index, b"v" * 9, cache.epoch)
            assert cache.ghost_bytes <= 3 * ROW + ROW // 2
        assert cache.ghost_bytes == 3 * ROW  # the last three evicted
        assert cache.evictions == 96

    def test_an_evicted_entry_looked_up_again_counts_its_bytes_once(self):
        cache = BlockCache(2 * ROW, ghost_bytes=10 * ROW)
        put_rows(cache, range(3))  # the third evicts k0
        assert cache.get(b"k0") == (False, None)
        assert cache.ghost_hit_bytes == ROW
        assert cache.get(b"k0") == (False, None)  # forgotten: no second count
        assert cache.ghost_hit_bytes == ROW
        assert cache.get(b"k9") == (False, None)  # never cached: no count
        assert cache.ghost_hit_bytes == ROW

    def test_a_refused_entry_counts_too(self):
        cache = BlockCache(ROW, ghost_bytes=10 * ROW)
        big = b"v" * (2 * ROW)
        cache.put_row(b"big", big, cache.epoch)  # larger than the budget
        assert cache.used_bytes == 0
        assert cache.get(b"big") == (False, None)
        assert cache.ghost_hit_bytes == row_charge(b"big", big)

    def test_a_hit_counts_nothing(self):
        cache = BlockCache(10 * ROW, ghost_bytes=10 * ROW)
        put_rows(cache, [0])
        assert cache.get(b"k0") == (True, b"v" * 10)
        assert cache.ghost_hit_bytes == 0

    def test_rows_count_the_same_way(self):
        charge = row_charge(b"k0", b"v" * 10)
        cache = BlockCache(2 * charge, ghost_bytes=10 * charge)
        for index in range(3):  # the third evicts k0
            cache.put_row(b"k%d" % index, b"v" * 10, cache.epoch)
        assert cache.get(b"k0") == (False, None)
        assert cache.ghost_hit_bytes == charge
        assert cache.get(b"k0") == (False, None)
        assert cache.ghost_hit_bytes == charge
        # Refused: larger than the budget, inside the ghost's bound.
        cache.put_row(b"big", b"v" * (3 * charge), cache.epoch)
        cache.get(b"big")
        assert cache.ghost_hit_bytes == charge + row_charge(
            b"big", b"v" * (3 * charge)
        )

    def test_a_ghost_of_zero_bytes_remembers_nothing(self):
        cache = BlockCache(ROW)
        put_rows(cache, range(2))
        cache.get(b"k0")
        assert cache.ghost_bytes == 0
        assert cache.ghost_hit_bytes == 0


class TestGhostAcrossResize:
    def test_a_shrink_puts_what_it_evicts_in_the_ghost(self):
        cache = BlockCache(5 * ROW, ghost_bytes=5 * ROW)
        put_rows(cache, range(5))
        cache.resize(2 * ROW)
        assert cache.used_bytes == 2 * ROW
        assert cache.ghost_bytes == 3 * ROW
        for index in range(3):  # the three least recent went
            assert cache.get(b"k%d" % index) == (False, None)
        assert cache.ghost_hit_bytes == 3 * ROW
        assert cache.ghost_bytes == 0

    def test_a_smaller_bound_drops_the_oldest_ghosts(self):
        cache = BlockCache(ROW, ghost_bytes=10 * ROW)
        put_rows(cache, range(6))
        assert cache.ghost_bytes == 5 * ROW
        cache.resize(ROW, ghost_bytes=2 * ROW)
        assert cache.ghost_bytes == 2 * ROW
        assert cache.get(b"k0") == (False, None)  # dropped from the ghost
        assert cache.ghost_hit_bytes == 0
        assert cache.get(b"k4") == (False, None)  # still remembered
        assert cache.ghost_hit_bytes == ROW

    def test_a_cache_grown_from_zero_is_paid_back_by_its_ghost(self):
        cache = BlockCache(0, ghost_bytes=5 * ROW)
        for _ in range(2):
            for index in range(4):
                if not cache.get(b"k%d" % index)[0]:
                    put_rows(cache, [index])
        # Every row was refused, then asked for again.
        assert cache.ghost_hit_bytes == 4 * ROW
        cache.resize(10 * ROW)
        put_rows(cache, range(4))
        assert cache.ghost_bytes == 4 * ROW  # the last refusals, untouched
        assert cache.used_bytes == 4 * ROW

    def test_clear_forgets_the_ghost(self):
        cache = BlockCache(ROW, ghost_bytes=10 * ROW)
        put_rows(cache, range(2))
        cache.clear()
        assert cache.ghost_bytes == 0
        assert cache.get(b"k0") == (False, None)
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
