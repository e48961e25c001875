"""Tests for online shard migration under live (interleaved) writes."""

import pytest

from repro.cluster import MigrationReport, ShardedStore, migrate_shard
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

KEYS = [f"key-{i:06d}".encode() for i in range(500)]


def shard_keys(store, shard):
    return [k for k in KEYS if store.shard_for(k) == shard]


class TestQuiescentMigration:
    def test_moves_every_record_and_cuts_over(self, tmp_path):
        with ShardedStore(str(tmp_path / "c"), 4, SMALL) as store:
            for key in KEYS:
                store.put(key, b"v:" + key)
            shard = 1
            expected = [
                (k, b"v:" + k) for k in sorted(shard_keys(store, shard))
            ]
            target = str(tmp_path / "new-shard-1")
            report = migrate_shard(
                store, shard, target, page_size=64, verify=True
            )
            assert isinstance(report, MigrationReport)
            assert report.records_copied == len(expected)
            assert report.verified
            assert report.pages >= 1
            assert "verified" in report.summary()
            # cutover happened: no mirror left, reads still correct
            assert store.mirror_of(shard) is None
            assert list(store.engine(shard).scan()) == expected
            assert list(store.scan()) == sorted(
                (k, b"v:" + k) for k in KEYS
            )

    def test_a_shard_with_workers_is_promoted_with_workers(self, tmp_path):
        import time

        workers = SMALL.with_(background_maintenance=True)
        with ShardedStore(str(tmp_path / "c"), 2, workers) as store:
            for key in KEYS[:100]:
                store.put(key, b"v:" + key)
            migrate_shard(store, 1, str(tmp_path / "t"), verify=True)
            promoted = store.engine(1)
            assert promoted.options.background_maintenance
            assert promoted.options.stall_mode == "block"
            threads = promoted._maintenance._workers
            assert threads and all(thread.is_alive() for thread in threads)
            # Its own workers flush what the writes fill.
            for key in KEYS[100:]:
                store.put(key, b"w:" + key)
            deadline = time.monotonic() + 10.0
            while promoted.stats().disk_components == 0:
                assert time.monotonic() < deadline, "nothing flushed"
                time.sleep(0.01)
            for key in shard_keys(store, 1):
                assert store.get(key) == (
                    b"w:" + key if key in KEYS[100:] else b"v:" + key
                )

    def test_empty_shard_migrates_cleanly(self, tmp_path):
        with ShardedStore(str(tmp_path / "c"), 2, SMALL) as store:
            report = migrate_shard(
                store, 0, str(tmp_path / "t"), verify=True
            )
            assert report.records_copied == 0


class TestLiveMigration:
    def test_writes_between_pages_land_on_both_sides(
        self, tmp_path, monkeypatch
    ):
        with ShardedStore(str(tmp_path / "c"), 4, SMALL) as store:
            shard = 2
            owned = sorted(shard_keys(store, shard))
            assert len(owned) > 60, "need enough keys to page over"
            for key in KEYS:
                store.put(key, b"v0:" + key)

            # Interleave live traffic with the copy loop: every time the
            # migration takes the shard lock for a new page, first update
            # an already-copied key, insert behind the cursor, and delete
            # a not-yet-copied key — all through the normal write path.
            live_updates = {}
            deleted = set()
            real_lock = store.shard_lock
            state = {"pages": 0}

            def lock_with_traffic(which):
                if which == shard and state["pages"] > 0:
                    index = state["pages"]
                    early = owned[index % 5]  # likely already copied
                    late = owned[-1 - (index % 5)]  # not copied yet
                    value = b"live:%d" % index
                    store.put(early, value)
                    live_updates[early] = value
                    if late not in live_updates and late not in deleted:
                        store.delete(late)
                        deleted.add(late)
                state["pages"] += 1
                return real_lock(which)

            monkeypatch.setattr(store, "shard_lock", lock_with_traffic)
            report = migrate_shard(
                store,
                shard,
                str(tmp_path / "t"),
                page_size=16,
                verify=True,
            )
            monkeypatch.setattr(store, "shard_lock", real_lock)
            assert report.verified
            assert live_updates, "the interleaving hook never fired"
            assert deleted, "no deletes were interleaved"
            # the promoted engine serves the final state of every key
            for key in owned:
                expected = live_updates.get(key, b"v0:" + key)
                if key in deleted:
                    expected = None
                assert store.get(key) == expected

    def test_failure_mid_copy_abandons_the_mirror(
        self, tmp_path, monkeypatch
    ):
        with ShardedStore(str(tmp_path / "c"), 2, SMALL) as store:
            for key in KEYS[:100]:
                store.put(key, b"v:" + key)
            shard = 0
            original = LSMStore.write_batch
            primaries = set(id(engine) for engine in store.engines())

            def failing(self, batch):
                if id(self) not in primaries:
                    raise RuntimeError("simulated copy failure")
                return original(self, batch)

            monkeypatch.setattr(LSMStore, "write_batch", failing)
            with pytest.raises(RuntimeError):
                migrate_shard(store, shard, str(tmp_path / "t"))
            monkeypatch.setattr(LSMStore, "write_batch", original)
            # the mirror was abandoned and closed; the primary still serves
            assert store.mirror_of(shard) is None
            for key in KEYS[:100]:
                assert store.get(key) == b"v:" + key


class TestValidation:
    def test_shard_out_of_range(self, tmp_path):
        with ShardedStore(str(tmp_path / "c"), 2, SMALL) as store:
            with pytest.raises(ConfigurationError):
                migrate_shard(store, 5, str(tmp_path / "t"))

    def test_bad_page_size(self, tmp_path):
        with ShardedStore(str(tmp_path / "c"), 2, SMALL) as store:
            with pytest.raises(ConfigurationError):
                migrate_shard(store, 0, str(tmp_path / "t"), page_size=0)

    def test_nonempty_target_rejected(self, tmp_path):
        target = tmp_path / "t"
        target.mkdir()
        (target / "junk").write_text("already here")
        with ShardedStore(str(tmp_path / "c"), 2, SMALL) as store:
            with pytest.raises(ConfigurationError):
                migrate_shard(store, 0, str(target))
