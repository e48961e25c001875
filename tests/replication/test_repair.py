"""Replica-backed repair over real TCP: FETCH_RANGE, fencing, healing.

The repair story has two directions. A *leader* with a quarantined run
fetches the run's key range from its most-caught-up follower
(FETCH_RANGE, epoch-fenced, freshness-checked against the leader's own
WAL position) and rebuilds the run in place. A *follower* with a
quarantined run reports it in its ship acks; the shipper reacts by
downgrading the follower to a reset, whose authoritative snapshot drops
the poisoned run entirely.
"""

from __future__ import annotations

import asyncio
import os

import pytest

from repro.engine import LSMStore, StoreOptions
from repro.errors import RequestFailedError
from repro.replication import ReplicatedKVServer
from repro.server import KVServer, protocol
from repro.server.client import KVClient

OPTIONS = StoreOptions(
    memtable_bytes=1 << 16,
    block_cache_bytes=0,  # reads must touch disk so corruption is seen
    num_memtables=2,
    policy="tiering",
    size_ratio=3,
    levels=2,
    background_maintenance=False,
)


def make_store(tmp_path, name):
    return LSMStore.open(str(tmp_path / name), OPTIONS)


def follower_client(server):
    host, port = server.address
    return KVClient(host, port, pool_size=1, timeout=2.0, max_retries=1)


def corrupt_run(store, offset=16):
    """Flip a byte in the data region of the store's only run."""
    [record] = store.live_runs()
    path = os.path.join(store.directory, record.files[0])
    with open(path, "rb") as handle:
        blob = bytearray(handle.read())
    blob[offset] ^= 0xFF
    with open(path, "wb") as handle:
        handle.write(bytes(blob))
    return record


async def eventually(predicate, timeout=5.0, interval=0.02):
    deadline = asyncio.get_running_loop().time() + timeout
    while True:
        if predicate():
            return
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(interval)


class TestFetchRange:
    def test_returns_view_with_freshness_cursor(self, tmp_path):
        async def scenario():
            store = make_store(tmp_path, "node")
            try:
                async with ReplicatedKVServer(store, role="follower") as node:
                    async with follower_client(node) as client:
                        # Followers only apply shipped frames, but the
                        # fetch verb reads whatever the store holds.
                        store.write_batch(
                            [(b"a", b"1"), (b"b", b"2"), (b"c", b"3")]
                        )
                        fetched = await client.fetch_range(0, b"a", b"b")
                        assert fetched["items"] == [
                            (b"a", b"1"), (b"b", b"2")
                        ]
                        # the cursor a repairing leader compares with
                        # its own position: this node follows nobody
                        assert fetched["lineage"] is None
                        assert fetched["applied"] == 0
                        assert fetched["quarantined"] == 0
            finally:
                store.close()

        asyncio.run(scenario())

    def test_an_absent_upper_bound_is_unbounded(self, tmp_path):
        """``hi=None`` fetches to the end of the keyspace (it once
        answered INTERNAL: ``None + b"\\x00"``); ``hi=b""`` stays a
        bound, below every key the store can hold."""

        async def scenario():
            store = make_store(tmp_path, "node")
            try:
                async with ReplicatedKVServer(store, role="follower") as node:
                    async with follower_client(node) as client:
                        rows = [(b"a", b"1"), (b"b", b"2"), (b"c", b"3")]
                        store.write_batch(rows)
                        fetched = await client.fetch_range(0, None, None)
                        assert fetched["items"] == rows
                        fetched = await client.fetch_range(0, b"b", None)
                        assert fetched["items"] == rows[1:]
                        fetched = await client.fetch_range(0, None, b"")
                        assert fetched["items"] == []
                        # The same open range in the JSON envelope.
                        bare = {"op": "FETCH_RANGE", "epoch": 0}
                        assert (await client.request(bare))["items"] == rows
            finally:
                store.close()

        asyncio.run(scenario())

    def test_stale_epoch_is_fenced(self, tmp_path):
        async def scenario():
            store = make_store(tmp_path, "node")
            try:
                async with ReplicatedKVServer(store, role="follower") as node:
                    async with follower_client(node) as client:
                        # Adopt epoch 2 via the fetch itself...
                        await client.fetch_range(2, b"a", b"z")
                        # ...after which an older epoch's fetch bounces.
                        with pytest.raises(RequestFailedError) as excinfo:
                            await client.fetch_range(1, b"a", b"z")
                        assert (
                            excinfo.value.code == protocol.CODE_STALE_EPOCH
                        )
            finally:
                store.close()

        asyncio.run(scenario())

    def test_newer_epoch_steps_a_leader_down(self, tmp_path):
        async def scenario():
            store = make_store(tmp_path, "node")
            try:
                async with ReplicatedKVServer(store, role="leader") as node:
                    async with follower_client(node) as client:
                        await client.fetch_range(7, b"a", b"z")
                        assert node.role == "follower"
                        assert node.epoch == 7
            finally:
                store.close()

        asyncio.run(scenario())

    def test_unreplicated_server_refuses_the_verb(self, tmp_path):
        async def scenario():
            store = make_store(tmp_path, "plain")
            try:
                async with KVServer(store) as node:
                    host, port = node.address
                    async with KVClient(
                        host, port, max_retries=1
                    ) as client:
                        with pytest.raises(RequestFailedError) as excinfo:
                            await client.fetch_range(0, b"a", b"z")
                        assert (
                            excinfo.value.code == protocol.CODE_BAD_REQUEST
                        )
            finally:
                store.close()

        asyncio.run(scenario())


class TestWireContainment:
    def test_corrupt_read_surfaces_typed_error_with_bounds(self, tmp_path):
        async def scenario():
            store = make_store(tmp_path, "node")
            try:
                for i in range(50):
                    store.put(f"k{i:04d}".encode(), b"v" * 32)
                store.flush()
                record = corrupt_run(store)
                async with ReplicatedKVServer(store, role="leader") as node:
                    host, port = node.address
                    async with KVClient(
                        host, port, max_retries=1
                    ) as client:
                        with pytest.raises(RequestFailedError) as excinfo:
                            await client.get(b"k0000")
                        assert (
                            excinfo.value.code == protocol.CODE_DATA_CORRUPT
                        )
                        # The store quarantined the run on detection.
                        entries = store.quarantined_entries()
                        assert [e.run_id for e in entries] == [
                            record.run_id
                        ]
                        # Keys outside the poisoned bounds keep serving.
                        await client.put(b"zzz", b"alive")
                        assert await client.get(b"zzz") == b"alive"
                        # STATS carries the quarantine for operators.
                        stats = await client.stats()
                        corruption = stats["corruption"]
                        assert len(corruption["quarantined"]) == 1
                        assert (
                            corruption["quarantined"][0]["run_id"]
                            == record.run_id
                        )
                        assert stats["engine"]["quarantined_runs"] == 1
            finally:
                store.close()

        asyncio.run(scenario())


class TestLeaderRepair:
    def test_leader_rebuilds_quarantined_run_from_follower(self, tmp_path):
        async def scenario():
            leader_store = make_store(tmp_path, "leader")
            follower_store = make_store(tmp_path, "follower")
            try:
                async with ReplicatedKVServer(
                    follower_store, role="follower", ack_policy="quorum"
                ) as follower:
                    async with ReplicatedKVServer(
                        leader_store, role="leader", ack_policy="quorum"
                    ) as leader:
                        await leader.become_leader(
                            0, [follower_client(follower)]
                        )
                        # Attached while the leader is empty: the reset
                        # ships no run, so each store flushes one below.
                        await eventually(
                            lambda: leader.shipper.acked_cursors() == [0]
                        )
                        host, port = leader.address
                        async with KVClient(host, port) as client:
                            for i in range(40):
                                await client.put(
                                    b"k%04d" % i, b"v%04d" % i
                                )
                            await asyncio.to_thread(leader_store.flush)
                            record = corrupt_run(leader_store)
                            with pytest.raises(RequestFailedError):
                                await client.get(b"k0000")
                            assert leader_store.quarantined_entries()
                            # One more quorum-acked write pins the
                            # follower's cursor at (or past) the
                            # leader's current WAL position.
                            await client.put(b"k9999", b"tail")

                            repaired = 0
                            deadline = (
                                asyncio.get_running_loop().time() + 5.0
                            )
                            while not repaired:
                                repaired = await leader.repair_pass()
                                if (
                                    asyncio.get_running_loop().time()
                                    > deadline
                                ):
                                    raise AssertionError(
                                        "repair never succeeded"
                                    )
                                await asyncio.sleep(0.02)
                            assert (
                                leader_store.quarantined_entries() == []
                            )
                            # The rebuilt run serves every original key.
                            for i in range(40):
                                assert (
                                    await client.get(b"k%04d" % i)
                                    == b"v%04d" % i
                                )
                            del record
            finally:
                leader_store.close()
                follower_store.close()

        asyncio.run(scenario())

    def test_repair_pass_is_a_noop_without_quarantine(self, tmp_path):
        async def scenario():
            leader_store = make_store(tmp_path, "leader")
            follower_store = make_store(tmp_path, "follower")
            try:
                async with ReplicatedKVServer(
                    follower_store, role="follower", ack_policy="quorum"
                ) as follower:
                    async with ReplicatedKVServer(
                        leader_store, role="leader", ack_policy="quorum"
                    ) as leader:
                        await leader.become_leader(
                            0, [follower_client(follower)]
                        )
                        assert await leader.repair_pass() == 0
            finally:
                leader_store.close()
                follower_store.close()

        asyncio.run(scenario())


class TestFollowerHealing:
    def test_quarantined_follower_is_reset_by_the_shipper(self, tmp_path):
        async def scenario():
            leader_store = make_store(tmp_path, "leader")
            follower_store = make_store(tmp_path, "follower")
            try:
                async with ReplicatedKVServer(
                    follower_store, role="follower", ack_policy="quorum"
                ) as follower:
                    async with ReplicatedKVServer(
                        leader_store, role="leader", ack_policy="quorum"
                    ) as leader:
                        await leader.become_leader(
                            0, [follower_client(follower)]
                        )
                        # Attached while the leader is empty: the reset
                        # ships no run, so each store flushes one below.
                        await eventually(
                            lambda: leader.shipper.acked_cursors() == [0]
                        )
                        host, port = leader.address
                        async with KVClient(host, port) as client:
                            for i in range(40):
                                await client.put(
                                    b"k%04d" % i, b"v%04d" % i
                                )
                            # Materialise and poison a follower run,
                            # then let the scrubber find it.
                            await asyncio.to_thread(follower_store.flush)
                            corrupt_run(follower_store)
                            await asyncio.to_thread(
                                follower_store.scrub_pass
                            )
                            assert follower_store.quarantined_entries()
                            # The next acked write reports the
                            # quarantine; the shipper downgrades the
                            # follower to a reset snapshot that drops
                            # the poisoned run.
                            await client.put(b"trigger", b"reset")
                            await eventually(
                                lambda: not follower_store.quarantined_entries()
                            )
                            await eventually(
                                lambda: dict(follower_store.scan())
                                == dict(leader_store.scan())
                            )
            finally:
                leader_store.close()
                follower_store.close()

        asyncio.run(scenario())
