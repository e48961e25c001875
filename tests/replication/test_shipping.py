"""End-to-end replica groups over real TCP: ship, ack, fence, stall."""

from __future__ import annotations

import asyncio

import pytest

from repro.cluster.router import LocalCluster
from repro.engine import LSMStore, StoreOptions
from repro.errors import RequestFailedError
from repro.replication import ReplicatedKVServer
from repro.server import binproto, protocol
from repro.server.client import KVClient

OPTIONS = StoreOptions(
    memtable_bytes=1 << 16,
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


async def eventually(predicate, timeout=5.0, interval=0.02):
    deadline = asyncio.get_running_loop().time() + timeout
    while True:
        if predicate():
            return
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(interval)


def test_leader_ships_and_quorum_acks(tmp_path):
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
                    host, port = leader.address
                    async with KVClient(host, port) as client:
                        for i in range(25):
                            await client.put(
                                b"k%02d" % i, b"v%02d" % i
                            )
                        # quorum acked => the follower already holds
                        # every write; no settling sleep needed
                        fh, fp = follower.address
                        async with KVClient(fh, fp) as reader:
                            items = await reader.scan()
                            assert items == list(leader_store.scan())
                            detail = await reader.scan_detailed()
                            assert detail["replica_read"] is True
                            assert detail["staleness_bytes"] == 0
                            assert detail["applied_offset"] > 0
                        # every leader write recorded its quorum wait
                        snapshot = await client.metrics()
                        (leg,) = [
                            entry
                            for entry in snapshot["histograms"]
                            if entry["name"] == "server_request_seconds"
                            and entry["labels"]
                            == {"op": "put", "component": "replication"}
                        ]
                        assert leg["count"] == 25
        finally:
            leader_store.close()
            follower_store.close()

    asyncio.run(scenario())


def test_follower_rejects_client_writes(tmp_path):
    async def scenario():
        store = make_store(tmp_path, "follower")
        try:
            async with ReplicatedKVServer(store, role="follower") as node:
                host, port = node.address
                async with KVClient(host, port) as client:
                    with pytest.raises(RequestFailedError) as excinfo:
                        await client.put(b"k", b"v")
                    assert excinfo.value.code == protocol.CODE_NOT_LEADER
                    # reads still work on a follower
                    assert await client.get(b"k") is None
        finally:
            store.close()

    asyncio.run(scenario())


def test_promotion_fences_the_old_leader(tmp_path):
    async def scenario():
        a_store = make_store(tmp_path, "a")
        b_store = make_store(tmp_path, "b")
        try:
            async with ReplicatedKVServer(
                b_store, role="follower", ack_policy="quorum"
            ) as node_b:
                async with ReplicatedKVServer(
                    a_store, role="leader", ack_policy="quorum"
                ) as node_a:
                    await node_a.become_leader(
                        0, [follower_client(node_b)]
                    )
                    ah, ap = node_a.address
                    bh, bp = node_b.address
                    async with KVClient(ah, ap) as client:
                        await client.put(b"before", b"1")
                    # promote B at epoch 1, with A as its peer
                    async with KVClient(bh, bp) as client:
                        ack = await client.promote(1, peers=[(ah, ap)])
                        assert ack["role"] == "leader"
                        await client.put(b"after", b"2")
                    # B ships a reset snapshot to A, which steps down
                    await eventually(lambda: node_a.role == "follower")
                    async with KVClient(ah, ap) as client:
                        with pytest.raises(RequestFailedError) as excinfo:
                            await client.put(b"stale", b"x")
                        assert (
                            excinfo.value.code == protocol.CODE_NOT_LEADER
                        )
                    # and converges to the new leader's state
                    await eventually(
                        lambda: list(a_store.scan())
                        == list(b_store.scan())
                    )
                    assert (b"after", b"2") in list(a_store.scan())
        finally:
            a_store.close()
            b_store.close()

    asyncio.run(scenario())


def test_lag_returns_to_zero_after_ship_stall_clears(tmp_path):
    async def scenario():
        leader_store = make_store(tmp_path, "leader")
        follower_store = make_store(tmp_path, "follower")
        try:
            follower = ReplicatedKVServer(follower_store, role="follower")
            await follower.start()
            fh, fp = follower.address
            async with ReplicatedKVServer(
                # leader_only: writes must keep succeeding through the
                # stall so lag can actually accumulate
                leader_store, role="leader", ack_policy="leader_only"
            ) as leader:
                await leader.become_leader(0, [follower_client(follower)])
                host, port = leader.address
                shipper = leader.shipper
                assert shipper is not None
                async with KVClient(host, port) as client:
                    await client.put(b"k0", b"v0")
                    await eventually(
                        lambda: shipper.status()["followers"][0][
                            "lag_bytes"
                        ]
                        == 0
                    )
                    # follower dies; leader keeps acking locally
                    await follower.aclose()
                    for i in range(1, 10):
                        await client.put(b"k%d" % i, b"v%d" % i)
                    registry = leader_store.obs.registry
                    lag = registry.gauge(
                        "replication_lag_bytes",
                        labels={"follower": "0"},
                    )
                    await eventually(
                        lambda: shipper.status()["followers"][0]["stalled"]
                    )
                    assert lag.value > 0
                    assert (
                        registry.counter(
                            "replication_ship_stalls_total"
                        ).value
                        >= 1
                    )
                    # the stall clears: same store, same address
                    revived = ReplicatedKVServer(
                        follower_store,
                        role="follower",
                        host=fh,
                        port=fp,
                    )
                    await revived.start()
                    try:
                        await eventually(lambda: lag.value == 0)
                        applied = registry.gauge(
                            "replication_applied_offset",
                            labels={"follower": "0"},
                        )
                        assert applied.value > 0
                        assert list(follower_store.scan()) == list(
                            leader_store.scan()
                        )
                    finally:
                        await revived.aclose()
        finally:
            leader_store.close()
            follower_store.close()

    asyncio.run(scenario())


def test_stats_carry_replication_sections(tmp_path):
    async def scenario():
        leader_store = make_store(tmp_path, "leader")
        follower_store = make_store(tmp_path, "follower")
        try:
            async with ReplicatedKVServer(
                follower_store, role="follower"
            ) as follower:
                async with ReplicatedKVServer(
                    leader_store, role="leader", ack_policy="all"
                ) as leader:
                    await leader.become_leader(
                        0, [follower_client(follower)]
                    )
                    # attached (by an empty reset) before the write, so
                    # the write travels as a log frame
                    await eventually(
                        lambda: leader.shipper.acked_cursors() == [0]
                    )
                    host, port = leader.address
                    async with KVClient(host, port) as client:
                        await client.put(b"k", b"v")
                        stats = await client.stats()
                    replication = stats["replication"]
                    assert replication["role"] == "leader"
                    assert replication["ack_policy"] == "all"
                    shipping = replication["shipping"]
                    position = leader_store.wal_position()
                    assert {
                        field: shipping[field]
                        for field in ("lineage", "lsn", "wal_base")
                    } == position._asdict()
                    assert shipping["followers"] == [
                        {
                            "acked_offset": position.lsn,
                            "lag_bytes": 0,
                            "stalled": False,
                        }
                    ]
                    fh, fp = follower.address
                    async with KVClient(fh, fp) as client:
                        stats = await client.stats()
                    assert stats["replication"]["role"] == "follower"
                    applier = stats["replication"]["applier"]
                    assert applier["frames_applied"] == 1
                    assert (applier["lineage"], applier["applied"]) == (
                        position.lineage, position.lsn,
                    )
        finally:
            leader_store.close()
            follower_store.close()

    asyncio.run(scenario())


def test_a_write_whose_log_frame_cannot_ship_is_refused(tmp_path, monkeypatch):
    """A PUT within 30 bytes of the frame limit, and a BATCH of deletes
    (4 bytes more per op in the log than on the wire), fit one request
    frame but not the REPLICATE that would carry their log frame. They
    are refused before they are applied, so the writes after them still
    reach the follower instead of queueing behind a span that never
    ships."""
    monkeypatch.setattr(binproto, "MAX_FRAME_BYTES", 4096)
    options = StoreOptions(memtable_bytes=1 << 16, background_maintenance=True)

    async def scenario():
        async with LocalCluster(
            str(tmp_path), num_shards=1, options=options, replicas=1
        ) as cluster:
            leader = cluster.store.engine(0)
            (follower,) = cluster.replica_stores[0]
            async with KVClient(*cluster.address, max_retries=0) as client:
                await client.put(b"small", b"v")
                await eventually(
                    lambda: follower.upstream is not None
                    and follower.upstream[1] == leader.wal_position().lsn
                )
                tail = leader.wal_position().lsn
                deletes = [(b"k%029d" % index, None) for index in range(110)]
                for write, args in (
                    (client.put, (b"big", b"v" * 4070)),
                    (client.batch, (deletes,)),
                ):
                    with pytest.raises(RequestFailedError) as excinfo:
                        await write(*args)
                    assert excinfo.value.code == protocol.CODE_BAD_REQUEST
                    assert "replicate" in str(excinfo.value)
                assert leader.wal_position().lsn == tail
                assert leader.get(b"big") is None
                await client.put(b"after", b"v")
                await eventually(
                    lambda: follower.upstream[1] == leader.wal_position().lsn
                )
                assert follower.get(b"after") == b"v"

    asyncio.run(scenario())
