"""Tests for the shard engine set a cluster serves.

Routing, scans and batches are the router's; they are tested
through ``LocalCluster`` in ``test_cluster_integration.py``.
"""

import pytest

from repro.cluster import HashRing, ShardedStore, aggregate_stats
from repro.engine import StoreOptions
from repro.errors import ConfigurationError

SMALL = StoreOptions(
    memtable_bytes=4096,
    num_memtables=2,
    policy="tiering",
    size_ratio=3,
    levels=2,
    background_maintenance=False,
)

KEYS = [f"key-{i:06d}".encode() for i in range(400)]


class TestRoutingAndReads:
    def test_reopen_preserves_data(self, tmp_path):
        with ShardedStore(str(tmp_path), 4, SMALL) as store:
            for key in KEYS[:80]:
                store.engine(store.ring.shard_for(key)).put(key, b"persist")
            for engine in store.engines():
                engine.maintenance()
        with ShardedStore(str(tmp_path), 4, SMALL) as store:
            for key in KEYS[:80]:
                owner = store.ring.shard_for(key)
                assert store.engine(owner).get(key) == b"persist"

    def test_stats_rollup(self, tmp_path):
        with ShardedStore(str(tmp_path), 3, SMALL) as store:
            for key in KEYS[:90]:
                store.engine(store.ring.shard_for(key)).put(key, b"v")
            per_shard = store.stats_list()
            assert [s.memtable_entries for s in per_shard] == [
                sum(1 for k in KEYS[:90] if store.ring.shard_for(k) == i)
                for i in range(3)
            ]
            cluster = aggregate_stats(per_shard)
            assert cluster.num_shards == 3
            assert cluster.memtable_entries == 90


class TestValidation:
    def test_rejects_zero_shards(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ShardedStore(str(tmp_path), 0)

    def test_rejects_ring_shard_mismatch(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ShardedStore(str(tmp_path), 4, SMALL, ring=HashRing(2))
