"""Arbiter over real engines: budgets land, protocols hold, events flow."""

import pytest

from repro.cluster import ShardedStore
from repro.engine import LSMStore, StoreOptions
from repro.errors import ClosedError, ConfigurationError
from repro.memory import MemoryArbiter, MemoryBudget
from repro.obs import MEMORY_REBALANCE


SMALL = StoreOptions(
    memtable_bytes=64 * 1024,
    block_cache_bytes=64 * 1024,
)


class TestShardedStoreWiring:
    def test_enable_applies_initial_split(self, tmp_path):
        with ShardedStore(str(tmp_path), num_shards=2, options=SMALL) as s:
            arbiter = s.enable_memory_arbiter(
                4 * 2**20, clock=lambda: 0.0
            )
            assert s.memory_arbiter is arbiter
            targets = [e.memtable_target_bytes for e in s.engines()]
            assert sum(targets) + sum(arbiter.shares.cache_bytes) == (
                4 * 2**20
            )
            for engine in s.engines():
                assert engine.memtable_target_bytes == (
                    arbiter.shares.memtable_bytes[0]
                )
                break

    def test_double_enable_rejected(self, tmp_path):
        with ShardedStore(str(tmp_path), num_shards=1, options=SMALL) as s:
            s.enable_memory_arbiter(2 * 2**20, clock=lambda: 0.0)
            with pytest.raises(ConfigurationError):
                s.enable_memory_arbiter(2 * 2**20)

    def test_rebalance_memory_without_arbiter_rejected(self, tmp_path):
        with ShardedStore(str(tmp_path), num_shards=1, options=SMALL) as s:
            with pytest.raises(ConfigurationError):
                s.rebalance_memory()

    def test_write_heavy_shard_gains_memtable_bytes(self, tmp_path):
        with ShardedStore(str(tmp_path), num_shards=2, options=SMALL) as s:
            arbiter = s.enable_memory_arbiter(
                4 * 2**20, clock=lambda: 0.0
            )
            # Find keys owned by shard 0 and hammer only those, into a
            # tree that already holds a component (one with none merges
            # nothing, so a larger memtable would save it nothing).
            hot_keys = [
                key
                for key in (f"k{i:06d}".encode() for i in range(4000))
                if s.ring.shard_for(key) == 0
            ]
            s.engine(0).put(hot_keys[0], b"v")
            s.engine(0).flush()
            for _ in range(3):
                for key in hot_keys[:600]:
                    s.engine(0).put(key, b"v" * 256)
                s.rebalance_memory()
            shares = arbiter.shares
            assert shares.memtable_bytes[0] > shares.memtable_bytes[1]

    def test_hot_read_shard_gains_cache_bytes(self, tmp_path):
        with ShardedStore(str(tmp_path), num_shards=2, options=SMALL) as s:
            # Budget small enough that the written data overflows the
            # memtable targets and lands on disk, where reads exercise
            # the block cache.
            arbiter = s.enable_memory_arbiter(
                2 * 2**20, clock=lambda: 0.0
            )
            keys = [f"k{i:06d}".encode() for i in range(2000)]
            for key in keys:
                s.engine(s.ring.shard_for(key)).put(key, b"v" * 1024)
            for engine in s.engines():
                engine.maintenance()
            hot = [key for key in keys if s.ring.shard_for(key) == 1][:400]
            for _ in range(4):
                for key in hot:
                    s.engine(1).get(key)
                s.rebalance_memory()
            shares = arbiter.shares
            assert shares.cache_bytes[1] > shares.cache_bytes[0]

    def test_rebalance_events_visible_in_arbiter_obs(self, tmp_path):
        with ShardedStore(str(tmp_path), num_shards=2, options=SMALL) as s:
            arbiter = s.enable_memory_arbiter(
                4 * 2**20, clock=lambda: 0.0
            )
            for i in range(500):
                key = f"k{i:05d}".encode()
                s.engine(s.ring.shard_for(key)).put(key, b"v" * 512)
                if i == 0:
                    s.engine(s.ring.shard_for(key)).flush()
            s.rebalance_memory()
            kinds = [e.kind for e in arbiter.obs.tracer.events()]
            assert MEMORY_REBALANCE in kinds


class TestEngineBudgetProtocol:
    def test_set_memory_budget_takes_effect_at_next_rotation(
        self, tmp_path
    ):
        with LSMStore.open(str(tmp_path / "s"), SMALL) as store:
            # Shrink the write budget far below the configured option;
            # the very next put past the new threshold must rotate.
            store.set_memory_budget(4096, 64 * 1024)
            rotations_before = store.stats().num_memtables
            for i in range(40):
                store.put(f"k{i:04d}".encode(), b"v" * 256)
            assert store.stats().merges_completed >= 0  # engine alive
            assert store.memtable_target_bytes == 4096
            # With a 4 KiB target, 40 * ~260B writes must have sealed at
            # least once (the old 64 KiB target would not have).
            assert store.stats().ingested_bytes > 0
            assert rotations_before >= 1

    def test_budget_gauges_published_per_component(self, tmp_path):
        with LSMStore.open(str(tmp_path / "s"), SMALL) as store:
            store.set_memory_budget(128 * 1024, 256 * 1024)
            gauges = {
                (g["name"], g["labels"].get("component")): g["value"]
                for g in store.obs.registry.snapshot()["gauges"]
                if g["name"] == "memory_budget_bytes"
            }
            assert gauges[("memory_budget_bytes", "memtable")] == float(
                128 * 1024
            )
            assert gauges[("memory_budget_bytes", "block_cache")] == float(
                256 * 1024
            )

    def test_cache_resize_applies_immediately(self, tmp_path):
        with LSMStore.open(str(tmp_path / "s"), SMALL) as store:
            for i in range(500):
                store.put(f"k{i:05d}".encode(), b"v" * 256)
            store.maintenance()
            for i in range(500):
                store.get(f"k{i:05d}".encode())
            used = store.stats().block_cache_used_bytes
            assert used > 4096
            store.set_memory_budget(64 * 1024, 4096)
            assert store.stats().block_cache_used_bytes <= 4096

    def test_implausible_budgets_rejected(self, tmp_path):
        with LSMStore.open(str(tmp_path / "s"), SMALL) as store:
            with pytest.raises(ConfigurationError):
                store.set_memory_budget(1024, 64 * 1024)
            with pytest.raises(ConfigurationError):
                store.set_memory_budget(64 * 1024, -1)

    def test_a_tick_over_a_closed_store_applies_nothing(self, tmp_path):
        """The arbiter reads ``stats()``, which a closed store still
        answers; the share it would move is refused, not applied."""
        store = LSMStore.open(str(tmp_path / "s"), SMALL)
        arbiter = MemoryArbiter(
            MemoryBudget(2 * 2**20, 1), [store], clock=lambda: 0.0
        )
        target = store.memtable_target_bytes
        for i in range(200):
            store.put(f"k{i:04d}".encode(), b"v" * 256)
        store.close()
        with pytest.raises(ClosedError):
            arbiter.tick()
        assert store.memtable_target_bytes == target
        assert arbiter.shares.memtable_bytes == (target,)

    def test_a_tick_that_a_second_shard_refuses_applies_nothing(
        self, tmp_path
    ):
        """A move between two shards is given to both or to neither:
        when the second refuses, the first gets its old share back and
        the arbiter keeps its shares and its signal window."""
        stores = [
            LSMStore.open(str(tmp_path / f"s{shard}"), SMALL)
            for shard in range(2)
        ]
        arbiter = MemoryArbiter(
            MemoryBudget(4 * 2**20, 2), stores, clock=lambda: 0.0
        )
        shares = arbiter.shares
        # Shard 0 writes into a tree holding a component, and its cache
        # has ghost hits: both its buckets save more than shard 1's.
        stores[0].put(b"k", b"v")
        stores[0].flush()
        for i in range(200):
            stores[0].put(f"k{i:04d}".encode(), b"v" * 256)
        cache = stores[0]._compaction.block_cache
        cache.resize(64, ghost_bytes=2**20)
        cache.put_row(b"cold", b"v" * 1000, cache.epoch)  # refused: too large
        cache.get(b"cold")
        assert stores[0].stats().ghost_hit_bytes > 0
        stores[1].close()
        with pytest.raises(ClosedError):
            arbiter.tick()
        assert stores[0].memtable_target_bytes == shares.memtable_bytes[0]
        assert arbiter.shares == shares
        assert arbiter.write_fraction == 0.5
        stores[0].close()
