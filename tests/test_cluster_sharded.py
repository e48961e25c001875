"""Tests for the sharded multi-engine store."""

import pytest

from repro.cluster import HashRing, ShardedStore
from repro.engine import LSMStore, StoreOptions
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
    def test_put_get_delete_route_by_ring(self, tmp_path):
        with ShardedStore(str(tmp_path), 4, SMALL) as store:
            for key in KEYS[:100]:
                store.put(key, b"v:" + key)
            assert store.get(KEYS[0]) == b"v:" + KEYS[0]
            assert store.get(b"missing") is None
            store.delete(KEYS[0])
            assert store.get(KEYS[0]) is None
            # the record physically lives on the shard the ring names
            key = KEYS[1]
            owner = store.shard_for(key)
            assert store.engine(owner).get(key) == b"v:" + key
            for shard in range(4):
                if shard != owner:
                    assert store.engine(shard).get(key) is None

    def test_scan_matches_single_engine(self, tmp_path):
        with ShardedStore(str(tmp_path / "cluster"), 4, SMALL) as store, \
                LSMStore.open(str(tmp_path / "single"), SMALL) as single:
            for index, key in enumerate(KEYS):
                value = f"value-{index:04d}".encode()
                store.put(key, value)
                single.put(key, value)
            assert list(store.scan()) == list(single.scan())
            assert list(store.scan(lo=KEYS[50], hi=KEYS[300])) == list(
                single.scan(lo=KEYS[50], hi=KEYS[300])
            )
            assert list(store.scan(limit=17)) == list(single.scan(limit=17))

    def test_write_batch_splits_per_shard(self, tmp_path):
        with ShardedStore(str(tmp_path), 3, SMALL) as store:
            batch = [(key, b"b:" + key) for key in KEYS[:60]]
            batch.append((KEYS[0], None))  # delete in the same batch
            store.write_batch(batch)
            assert store.get(KEYS[0]) is None
            for key in KEYS[1:60]:
                assert store.get(key) == b"b:" + key

    def test_multi_get(self, tmp_path):
        with ShardedStore(str(tmp_path), 2, SMALL) as store:
            store.put(b"a", b"1")
            store.put(b"b", b"2")
            got = store.multi_get([b"a", b"b", b"c"])
            assert got == {b"a": b"1", b"b": b"2", b"c": None}

    def test_reopen_preserves_data(self, tmp_path):
        with ShardedStore(str(tmp_path), 4, SMALL) as store:
            for key in KEYS[:80]:
                store.put(key, b"persist")
            store.maintenance()
        with ShardedStore(str(tmp_path), 4, SMALL) as store:
            for key in KEYS[:80]:
                assert store.get(key) == b"persist"

    def test_stats_rollup(self, tmp_path):
        with ShardedStore(str(tmp_path), 3, SMALL) as store:
            for key in KEYS[:90]:
                store.put(key, b"v")
            cluster = store.stats()
            assert cluster.num_shards == 3
            assert cluster.memtable_entries == sum(
                s.memtable_entries for s in store.stats_list()
            )


class TestValidation:
    def test_rejects_zero_shards(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ShardedStore(str(tmp_path), 0)

    def test_rejects_ring_shard_mismatch(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ShardedStore(str(tmp_path), 4, SMALL, ring=HashRing(2))

    def test_rejects_empty_batch(self, tmp_path):
        with ShardedStore(str(tmp_path), 2, SMALL) as store:
            with pytest.raises(ConfigurationError):
                store.write_batch([])

    def test_double_attach_mirror_rejected(self, tmp_path):
        with ShardedStore(str(tmp_path / "c"), 2, SMALL) as store:
            with LSMStore.open(str(tmp_path / "m"), SMALL) as mirror:
                store.attach_mirror(0, mirror)
                with pytest.raises(ConfigurationError):
                    store.attach_mirror(0, mirror)
                assert store.abandon_mirror(0) is mirror
                assert store.mirror_of(0) is None

    def test_promote_without_mirror_rejected(self, tmp_path):
        with ShardedStore(str(tmp_path), 2, SMALL) as store:
            with pytest.raises(ConfigurationError):
                store.promote_mirror(0)
