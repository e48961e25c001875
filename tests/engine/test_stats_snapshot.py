"""Regression tests: stats() must be one atomic, maintenance-safe snapshot.

A snapshot read while flushes/merges retire components concurrently must
still be internally consistent — the per-level component map summing to
the total, gauges agreeing with each other — because the admission
layers make decisions from a single snapshot and a torn one would let a
write slip past a stall gate (or stall a healthy store).
"""

import sys
import threading

import pytest

from repro.engine import LSMStore, StoreOptions

OPTIONS = StoreOptions(
    memtable_bytes=8 * 1024,
    policy="tiering",
    size_ratio=3,
    scheduler="greedy",
    levels=3,
)


def _assert_consistent(stats) -> None:
    assert stats.disk_components == sum(
        stats.components_per_level.values()
    ), "per-level map must sum to the total it was snapshot with"
    assert all(
        count >= 0 for count in stats.components_per_level.values()
    )
    assert 0 <= stats.sealed_memtables < stats.num_memtables
    assert stats.memtable_entries >= 0
    assert stats.memtable_bytes >= 0
    assert 0.0 <= stats.write_headroom <= 1.0
    assert stats.wal_bytes >= 0
    assert stats.stall_seconds_total >= 0.0


class TestAtomicSnapshot:
    def test_single_threaded_consistency(self, tmp_path):
        with LSMStore.open(str(tmp_path / "db"), OPTIONS) as store:
            for i in range(500):
                store.put(f"k{i:06d}".encode(), b"v" * 64)
                if i % 50 == 0:
                    _assert_consistent(store.stats())
            store.maintenance()
            _assert_consistent(store.stats())

    def test_stats_interleaved_with_maintenance_thread(self, tmp_path):
        """The regression: snapshots taken while another thread writes
        and runs maintenance (rotations flushing and merging,
        maintenance() draining, components retiring) must never expose
        a half-updated view."""
        with LSMStore.open(str(tmp_path / "db"), OPTIONS) as store:
            for i in range(1500):
                store.put(f"k{i:06d}".encode(), b"v" * 64)
            merges_before = store.stats().merges_completed
            stop = threading.Event()
            failures: list[AssertionError] = []
            errors: list[Exception] = []

            def drive() -> None:
                # Each round rotates about three memtables, enough for
                # a merge under T = 3; the first always runs.
                try:
                    written = 0
                    while True:
                        for _ in range(300):
                            store.put(f"d{written:06d}".encode(), b"v" * 64)
                            written += 1
                        store.maintenance()
                        if stop.is_set():
                            return
                except Exception as error:  # noqa: BLE001 — asserted below
                    errors.append(error)

            def observe() -> None:
                try:
                    for _ in range(400):
                        _assert_consistent(store.stats())
                except AssertionError as error:  # pragma: no cover
                    failures.append(error)

            driver = threading.Thread(target=drive)
            observer = threading.Thread(target=observe)
            driver.start()
            observer.start()
            observer.join(60.0)
            stop.set()
            driver.join(60.0)
            assert not (observer.is_alive() or driver.is_alive())
            assert not errors, errors[0]
            assert not failures, failures[0]
            assert store.stats().merges_completed > merges_before

    def test_snapshot_is_frozen_in_time(self, tmp_path):
        """A snapshot must not change after more writes land."""
        with LSMStore.open(str(tmp_path / "db"), OPTIONS) as store:
            store.put(b"a", b"1")
            before = store.stats()
            entries = before.memtable_entries
            levels = dict(before.components_per_level)
            for i in range(300):
                store.put(f"k{i:06d}".encode(), b"v" * 64)
            assert before.memtable_entries == entries
            assert before.components_per_level == levels


class TestWriteTiming:
    def test_timed_put_accounts_io_within_engine_time(self, tmp_path):
        with LSMStore.open(str(tmp_path / "db"), OPTIONS) as store:
            timing = store.timed_put(b"k", b"v" * 128)
            assert timing.engine_seconds >= timing.io_seconds >= 0.0
            assert timing.stall_seconds == 0.0
            assert store.get(b"k") == b"v" * 128

    def test_timed_batch_matches_plain_batch_semantics(self, tmp_path):
        with LSMStore.open(str(tmp_path / "db"), OPTIONS) as store:
            timing = store.timed_write_batch(
                [(b"a", b"1"), (b"b", None)]
            )
            assert timing.engine_seconds >= 0.0
            assert store.get(b"a") == b"1"
            assert store.get(b"b") is None

    def test_timed_delete(self, tmp_path):
        with LSMStore.open(str(tmp_path / "db"), OPTIONS) as store:
            store.put(b"k", b"v")
            timing = store.timed_delete(b"k")
            assert timing.engine_seconds >= 0.0
            assert store.get(b"k") is None


class TestRefreshGauges:
    def test_gauges_mirror_one_snapshot(self, tmp_path):
        with LSMStore.open(str(tmp_path / "db"), OPTIONS) as store:
            for i in range(200):
                store.put(f"k{i:06d}".encode(), b"v" * 64)
            stats = store.refresh_gauges()
            snap = store.obs.registry.snapshot()
            gauges = {
                (g["name"]): g["value"] for g in snap["gauges"]
            }
            assert gauges["engine_write_headroom"] == pytest.approx(
                stats.write_headroom
            )
            assert gauges["engine_disk_components"] == (
                stats.disk_components
            )
            assert gauges["engine_wal_bytes"] == stats.wal_bytes

    def test_block_cache_counters_mirrored(self, tmp_path):
        with LSMStore.open(str(tmp_path / "db"), OPTIONS) as store:
            for i in range(600):
                store.put(f"k{i:06d}".encode(), b"v" * 64)
            store.maintenance()
            for i in range(600):
                store.get(f"k{i:06d}".encode())
            store.refresh_gauges()
            snap = store.obs.registry.snapshot()
            counters = {c["name"]: c["value"] for c in snap["counters"]}
            gauges = {g["name"]: g["value"] for g in snap["gauges"]}
            cache = store._compaction.block_cache
            assert "engine_block_cache_hits_total" not in counters
            assert counters["engine_block_cache_misses_total"] == (
                cache.misses
            )
            assert counters["engine_block_cache_evictions_total"] == (
                cache.evictions
            )
            assert gauges["engine_block_cache_capacity_bytes"] == (
                cache.capacity_bytes
            )
            assert gauges["engine_block_cache_used_bytes"] == (
                cache.used_bytes
            )
            assert cache.misses > 0

    def test_concurrent_refreshes_count_every_lookup_once(self, tmp_path):
        """Each refresh adds what the cache grew by since the last one:
        refreshes racing reads on many threads neither lose nor repeat
        a lookup."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with LSMStore.open(str(tmp_path / "db"), OPTIONS) as store:
                for i in range(600):
                    store.put(f"k{i:06d}".encode(), b"v" * 64)
                store.maintenance()

                errors = []

                def worker(seed):
                    try:
                        for i in range(300):
                            key = f"k{(i * 7 + seed) % 600:06d}".encode()
                            store.get(key)
                            if i % 10 == 0:
                                store.refresh_gauges()
                    except Exception as error:  # noqa: BLE001
                        errors.append(error)

                threads = [
                    threading.Thread(target=worker, args=(seed,))
                    for seed in range(6)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                stats = store.refresh_gauges()
                counters = {
                    c["name"]: c["value"]
                    for c in store.obs.registry.snapshot()["counters"]
                }
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert stats.cache_hits == 0
        assert counters["engine_block_cache_misses_total"] == (
            stats.cache_misses
        )
        assert counters["engine_row_cache_hits_total"] == stats.row_hits
        assert stats.cache_hits + stats.cache_misses + stats.row_hits > 0

    def test_row_hits_mirrored_apart_from_block_lookups(self, tmp_path):
        with LSMStore.open(str(tmp_path / "db"), OPTIONS) as store:
            for i in range(600):
                store.put(f"k{i:06d}".encode(), b"v" * 64)
            store.flush()
            store.maintenance()
            for _ in range(2):
                assert store.get(b"k000007") == b"v" * 64
            cache = store._compaction.block_cache
            lookups = cache.misses
            assert store.get(b"k000007") == b"v" * 64
            assert cache.misses == lookups
            stats = store.refresh_gauges()
            counters = {
                c["name"]: c["value"]
                for c in store.obs.registry.snapshot()["counters"]
            }
            assert counters["engine_row_cache_hits_total"] == 2
            assert stats.row_hits == 2

    def test_cache_series_lint_clean(self, tmp_path):
        from repro.obs import lint_exposition, render_prometheus

        with LSMStore.open(str(tmp_path / "db"), OPTIONS) as store:
            for i in range(300):
                store.put(f"k{i:06d}".encode(), b"v" * 64)
            store.maintenance()
            store.get(b"k000000")
            store.set_memory_budget(64 * 1024, 32 * 1024)
            store.refresh_gauges()
            text = render_prometheus(store.obs.registry.snapshot())
            assert "engine_block_cache_misses_total" in text
            assert "engine_row_cache_hits_total" in text
            assert "memory_budget_bytes" in text
            assert lint_exposition(text) == []


class TestSealedMemtableBytes:
    def test_stats_counts_sealed_memtables_awaiting_flush(self, tmp_path):
        """Regression: memtable_bytes reported only the active memtable,
        hiding the sealed ones still buffered in memory — admission saw
        an empty store while N memtables awaited flush."""
        with LSMStore.open(str(tmp_path / "db"), OPTIONS) as store:
            for i in range(40):
                store.put(f"k{i:04d}".encode(), b"v" * 100)
            active_only = store.stats().memtable_bytes
            with store._lock:
                store._rotation.seal()
            stats = store.stats()
            assert stats.sealed_memtables >= 1
            # The sealed bytes did not vanish from the report.
            assert stats.memtable_bytes >= active_only
            assert stats.memtable_bytes > 0
