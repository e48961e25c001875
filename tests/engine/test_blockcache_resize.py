"""Tests for live cache resizing (the arbiter's read-memory lever)."""

import threading

import pytest

from repro.engine import BlockCache
from repro.engine.blockcache import ROW_OVERHEAD_BYTES
from repro.errors import ConfigurationError

#: What one row ``k<i>`` -> ten bytes is charged, for i below 10.
ROW = len(b"k0") + 10 + ROW_OVERHEAD_BYTES


def put_rows(cache, indexes) -> None:
    for index in indexes:
        cache.put_row(b"k%d" % index, b"v" * 10, cache.epoch)


def held(cache, index) -> bool:
    return cache.get(b"k%d" % index)[0]


class TestResizeShrink:
    def test_shrink_evicts_to_new_capacity_immediately(self):
        cache = BlockCache(10 * ROW)
        put_rows(cache, range(10))
        assert cache.used_bytes == 10 * ROW
        freed = cache.resize(3 * ROW + ROW // 2)
        assert freed == 7 * ROW
        assert cache.used_bytes <= 3 * ROW + ROW // 2
        assert cache.capacity_bytes == 3 * ROW + ROW // 2

    def test_shrink_evicts_in_lru_order(self):
        cache = BlockCache(4 * ROW)
        put_rows(cache, range(4))
        # Refresh 0 and 1; 2 and 3 become the LRU tail.
        held(cache, 0)
        held(cache, 1)
        cache.resize(2 * ROW)
        assert held(cache, 0) and held(cache, 1)
        assert not held(cache, 2) and not held(cache, 3)

    def test_shrink_counts_evictions(self):
        cache = BlockCache(10 * ROW)
        put_rows(cache, range(10))
        before = cache.evictions
        cache.resize(ROW)
        assert cache.evictions == before + 9

    def test_resize_to_zero_keeps_honest_miss_accounting(self):
        cache = BlockCache(10 * ROW)
        put_rows(cache, [0])
        cache.resize(0)
        assert cache.used_bytes == 0
        assert not held(cache, 0)
        # A zero-capacity cache still counts the blocks queries read.
        misses = cache.misses
        cache.count_block_read()
        assert cache.misses == misses + 1
        put_rows(cache, [1])
        assert cache.used_bytes == 0


class TestResizeGrow:
    def test_grow_admits_previously_rejected_entries(self):
        cache = BlockCache(ROW)
        big = b"x" * (2 * ROW)
        cache.put_row(b"big", big, cache.epoch)  # larger than capacity
        assert cache.get(b"big") == (False, None)
        cache.resize(10 * ROW)
        cache.put_row(b"big", big, cache.epoch)
        assert cache.get(b"big") == (True, big)

    def test_grow_frees_nothing(self):
        cache = BlockCache(ROW)
        put_rows(cache, [0])
        assert cache.resize(100 * ROW) == 0
        assert held(cache, 0)

    def test_grow_then_fill_to_new_capacity(self):
        cache = BlockCache(2 * ROW)
        cache.resize(6 * ROW)
        put_rows(cache, range(6))
        assert cache.used_bytes == 6 * ROW
        assert all(held(cache, index) for index in range(6))


class TestResizeValidation:
    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            BlockCache(10).resize(-1)


class TestResizeConcurrency:
    def test_concurrent_readers_never_observe_stale_generation(self):
        """Readers racing a resize never see an answer from an older
        epoch, the cache's generation.

        A churn thread reads the epoch, drops every row (a new epoch),
        then offers a row read at the old one, which must be refused; a
        concurrent resize squeezes capacity. Whatever the interleaving,
        the stale row is never seen, and a live row read returns the
        exact bytes that were put.
        """
        cache = BlockCache(10_000)
        errors: list[str] = []
        stop = threading.Event()

        def reader() -> None:
            while not stop.is_set():
                found, value = cache.get(b"live")
                if found and value != b"L" * 50:
                    errors.append("corrupt live row")
                    return
                if cache.get(b"dead")[0]:
                    errors.append("stale epoch visible")
                    return

        def churn() -> None:
            while not stop.is_set():
                epoch = cache.epoch
                cache.drop_all_rows()
                cache.put_row(b"dead", b"D" * 50, epoch)

        def resizer() -> None:
            size = 10_000
            while not stop.is_set():
                size = 300 if size == 10_000 else 10_000
                cache.resize(size)
                cache.put_row(b"live", b"L" * 50, cache.epoch)

        threads = [
            threading.Thread(target=fn)
            for fn in (reader, reader, churn, resizer)
        ]
        for thread in threads:
            thread.start()
        stop_timer = threading.Timer(0.5, stop.set)
        stop_timer.start()
        for thread in threads:
            thread.join(timeout=10)
        stop_timer.cancel()
        stop.set()
        assert not errors
        assert cache.used_bytes <= cache.capacity_bytes
