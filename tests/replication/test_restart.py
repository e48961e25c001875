"""Restarts: resume where it can be proven, reset in bounded chunks
where it cannot, and build no snapshot for a follower that is not there.

The decision table of ``docs/replication.md`` ("Restart and resume"),
one scenario per row, over real TCP and real store directories.
"""

from __future__ import annotations

import asyncio
import os

import pytest

from repro.cluster.router import LocalCluster
from repro.engine import LSMStore, StoreOptions
from repro.errors import DataCorruptError
from repro.replication import ReplicatedKVServer
from repro.replication import shipper as shipper_module
from repro.server import binproto
from repro.server.client import KVClient

from .test_shipping import eventually

OPTIONS = StoreOptions(
    memtable_bytes=1 << 16,
    num_memtables=2,
    policy="tiering",
    size_ratio=3,
    levels=2,
    background_maintenance=True,
)

VALUE = b"v" * 512


def counter(store, name, **labels):
    return store.obs.registry.counter(name, labels=labels or None).value


def block_lookups(store):
    signals = store.memory_signals()
    return signals.cache_hits + signals.cache_misses


def shipping(cluster):
    """Per shard: (leader store, follower store, shipper)."""
    return [
        (cluster.store.engine(shard), group[0], cluster.backends[shard].shipper)
        for shard, group in enumerate(cluster.replica_stores)
    ]


def caught_up(cluster):
    return all(
        shipper.acked_cursors() == [leader.wal_position().lsn]
        for leader, _follower, shipper in shipping(cluster)
    )


def cluster_at(directory, **kwargs):
    return LocalCluster(
        str(directory),
        num_shards=kwargs.pop("num_shards", 2),
        options=OPTIONS,
        replicas=1,
        **kwargs,
    )


async def load(cluster, keys):
    host, port = cluster.address
    async with KVClient(host, port) as client:
        for key in keys:
            await client.put(key, VALUE)
    await eventually(lambda: caught_up(cluster))


def keys(start, stop):
    return [b"key-%06d" % index for index in range(start, stop)]


# -- (a) clean restart: nothing is shipped, nothing is read ----------------


def test_a_clean_restart_resumes_without_touching_a_block(tmp_path):
    async def scenario():
        async with cluster_at(tmp_path) as cluster:
            await load(cluster, keys(0, 600))
            expected = [list(leader.scan()) for leader, _, _ in shipping(cluster)]
            assert all(expected)
        async with cluster_at(tmp_path) as cluster:
            groups = shipping(cluster)
            await eventually(
                lambda: all(
                    counter(leader, "replication_resumes_total") == 1
                    for leader, _, _ in groups
                )
            )
            assert caught_up(cluster)
            for leader, follower, _shipper in groups:
                # before the first client request: no resync, no block
                # looked up on either side, not a byte shipped
                assert counter(leader, "replication_resets_total") == 0
                assert block_lookups(leader) == block_lookups(follower) == 0
                for kind in ("log", "reset"):
                    assert counter(
                        leader, "replication_bytes_shipped_total", kind=kind
                    ) == 0
            for (leader, follower, _), rows in zip(groups, expected):
                assert list(follower.scan()) == list(leader.scan()) == rows
            # and the resumed stream carries the next write
            await load(cluster, [b"after-restart"])
            holders = [
                (leader.get(b"after-restart"), follower.get(b"after-restart"))
                for leader, follower, _ in groups
            ]
            assert sorted(holders, key=str) == [(None, None), (VALUE, VALUE)]
            assert all(
                counter(leader, "replication_resets_total") == 0
                for leader, _, _ in groups
            )

    asyncio.run(scenario())


def test_a_clean_close_leaves_no_log_behind(tmp_path):
    """A flush the shipper vetoed leaves nothing for ``close()`` to
    flush, and the checkpoint used to be reachable only through one:
    the next open replayed — and later flushed again — a log whose
    every byte was already in runs."""
    directory = str(tmp_path / "shard-00")
    log = os.path.join(directory, "wal.log")

    async def scenario():
        async with cluster_at(tmp_path, num_shards=1) as cluster:
            await load(cluster, keys(0, 300))
            # the follower goes away: from here on the leader's log may
            # not be cut, whatever gets flushed
            await cluster.replica_servers[0][0].aclose()
            host, port = cluster.address
            async with KVClient(host, port) as client:
                for key in keys(300, 600):
                    await client.put(key, VALUE)
            leader = cluster.store.engine(0)
            leader.flush()
            assert leader.stats().memtable_entries == 0
            assert os.path.getsize(log) > 300 * len(VALUE)
            return list(leader.scan())

    rows = asyncio.run(scenario())
    assert len(rows) == 600
    assert os.path.getsize(log) == 0
    with LSMStore.open(directory, OPTIONS) as reopened:
        assert reopened.stats().memtable_entries == 0
        assert list(reopened.scan()) == rows


# -- (b) a crash on either side: exactly today's reset ---------------------


def test_a_crash_on_either_side_costs_exactly_one_reset(tmp_path):
    async def generation(written, crash):
        """One cluster lifetime: check the resync, write, crash a side."""
        async with cluster_at(
            tmp_path, num_shards=1, ack_policy="quorum"
        ) as cluster:
            ((leader, follower, _shipper),) = shipping(cluster)
            await eventually(
                lambda: counter(leader, "replication_resets_total")
                + counter(leader, "replication_resumes_total")
                == 1
            )
            resets = counter(leader, "replication_resets_total")
            await eventually(lambda: caught_up(cluster))
            # no acked write lost, on either copy
            assert [key for key, _ in leader.scan()] == written
            assert list(follower.scan()) == list(leader.scan())
            more = keys(len(written), len(written) + 150)
            await load(cluster, more)
            if crash == "follower":
                follower.crash()
            elif crash == "leader":
                leader.crash()
            return resets, written + more

    async def scenario():
        resets, written = await generation([], crash="follower")
        assert resets == 1  # first boot: an empty follower, empty snapshot
        resets, written = await generation(written, crash="leader")
        assert resets == 1  # the follower lost its cursor with its lineage
        resets, written = await generation(written, crash=None)
        assert resets == 1  # the leader's log is a new lineage
        resets, written = await generation(written, crash=None)
        assert resets == 0  # and a clean restart after that resumes
        assert len(written) == 600

    asyncio.run(scenario())


# -- (c) a follower that was away ------------------------------------------


def make_store(tmp_path, name):
    return LSMStore.open(str(tmp_path / name), OPTIONS)


def client_for(address):
    return KVClient(*address, pool_size=1, timeout=2.0, max_retries=1)


def test_a_returning_follower_gets_the_missing_spans_or_a_reset(tmp_path):
    async def scenario():
        leader_store = make_store(tmp_path, "leader")
        follower_store = make_store(tmp_path, "follower")
        follower = ReplicatedKVServer(follower_store, role="follower")
        address = await follower.start()
        leader = ReplicatedKVServer(leader_store, role="leader")
        await leader.start()
        await leader.become_leader(0, [client_for(address)])

        def lag():
            # by the ack itself: a follower not yet attached has no lag
            # figure worth waiting on
            (acked,) = leader.shipper.acked_cursors()
            return None if acked is None else (
                leader_store.wal_position().lsn - acked
            )

        def shipped(store=None):
            return counter(
                store or leader_store,
                "replication_bytes_shipped_total",
                kind="log",
            )

        async def write(batch):
            async with KVClient(*leader.address) as client:
                for key in batch:
                    await client.put(key, VALUE)

        async def follower_leaves():
            nonlocal follower_store
            await follower.aclose()
            follower_store.close()

        async def follower_returns():
            nonlocal follower, follower_store
            follower_store = make_store(tmp_path, "follower")
            follower = ReplicatedKVServer(
                follower_store, role="follower", host=address[0], port=address[1]
            )
            await follower.start()

        try:
            # attached first (an empty reset), so that every write below
            # travels as log
            await eventually(lambda: leader.shipper.acked_cursors() == [0])
            await write(keys(0, 100))
            await eventually(lambda: lag() == 0)
            here = leader_store.wal_position()

            # 1. away while the leader writes on — and flushes: the veto
            #    keeps every byte the follower has not acknowledged
            await follower_leaves()
            await write(keys(100, 250))
            leader_store.flush()
            assert leader_store.wal_position().wal_base == 0
            await follower_returns()
            assert follower_store.upstream == (here.lineage, here.lsn, 0)
            await eventually(lambda: lag() == 0)
            there = leader_store.wal_position()
            status = follower.applier.status()
            assert (status["frames_applied"], status["frames_skipped"]) == (150, 0)
            assert shipped() == there.lsn  # every byte once, none twice
            assert counter(leader_store, "replication_resets_total") == 1
            assert list(follower_store.scan()) == list(leader_store.scan())

            # 2. the same through a shipper that has to ask: the
            #    follower answers mid-log and is resumed there
            await follower_leaves()
            await write(keys(250, 300))
            leader_store.flush()
            await leader.become_leader(0, [client_for(address)])
            await follower_returns()
            await eventually(lambda: lag() == 0)
            assert counter(leader_store, "replication_resumes_total") == 1
            assert counter(leader_store, "replication_resets_total") == 1
            assert follower.applier.status()["frames_applied"] == 50
            assert shipped() == leader_store.wal_position().lsn
            assert list(follower_store.scan()) == list(leader_store.scan())

            # 3. away again, and this time the leader restarts as well:
            #    its close() cut the log, so the cursor points at nothing
            await follower_leaves()
            await write(keys(300, 320))
            lineage = leader_store.wal_position().lineage
            await leader.aclose()
            leader_store.close()
            leader_store = make_store(tmp_path, "leader")
            position = leader_store.wal_position()
            assert position.lineage == lineage
            assert position.wal_base == position.lsn > follower_store.upstream[1]
            leader = ReplicatedKVServer(leader_store, role="leader")
            await leader.start()
            await leader.become_leader(0, [client_for(address)])
            await follower_returns()
            await eventually(lambda: lag() == 0)
            assert counter(leader_store, "replication_resets_total") == 1
            assert counter(leader_store, "replication_resumes_total") == 0
            assert shipped() == 0
            assert list(follower_store.scan()) == list(leader_store.scan())
            assert len(list(follower_store.scan())) == 320
        finally:
            await leader.aclose()
            await follower.aclose()
            leader_store.close()
            follower_store.close()

    asyncio.run(scenario())


def test_a_follower_resumes_across_a_cut_from_a_shipper_with_no_base(tmp_path):
    """The log is cut (its base moves up), the leader writes on, and a
    shipper started afterwards resumes the follower mid-log — knowing
    LSNs only: which byte of which file an LSN names is the store's
    business (``LSMStore.read_log``)."""

    async def scenario():
        leader_store = make_store(tmp_path, "leader")
        follower_store = make_store(tmp_path, "follower")
        follower = ReplicatedKVServer(follower_store, role="follower")
        address = await follower.start()
        leader = ReplicatedKVServer(leader_store, role="leader")
        await leader.start()
        await leader.become_leader(0, [client_for(address)])

        def acked():
            return leader.shipper.acked_cursors()[0]

        async def write(batch):
            async with KVClient(*leader.address) as client:
                for key in batch:
                    await client.put(key, VALUE)

        try:
            await eventually(lambda: acked() == 0)
            await write(keys(0, 50))
            await eventually(
                lambda: acked() == leader_store.wal_position().lsn
            )
            leader_store.flush()  # all of it acknowledged: the cut is granted
            cut = leader_store.wal_position()
            assert cut.wal_base == cut.lsn > 0
            await write(keys(50, 80))  # shipped from the new base on
            await eventually(
                lambda: acked() == leader_store.wal_position().lsn
            )
            assert follower.applier.status()["frames_applied"] == 80

            # away while the leader writes on, behind the cut
            await follower.aclose()
            follower_store.close()
            await write(keys(80, 100))
            here = leader_store.wal_position()
            assert here.wal_base == cut.wal_base < acked() < here.lsn

            # a shipper that has to ask, and a follower that answers
            # with an LSN past the base
            await leader.become_leader(0, [client_for(address)])
            shipper = leader.shipper
            assert not [
                name for name in vars(shipper)
                if "base" in name or "path" in name or "offset" in name
            ]
            follower_store = make_store(tmp_path, "follower")
            follower = ReplicatedKVServer(
                follower_store, role="follower", host=address[0], port=address[1]
            )
            await follower.start()
            await eventually(lambda: acked() == here.lsn)
            assert counter(leader_store, "replication_resumes_total") == 1
            assert counter(leader_store, "replication_resets_total") == 1
            assert follower.applier.status()["frames_applied"] == 20
            assert counter(
                leader_store, "replication_bytes_shipped_total", kind="log"
            ) == here.lsn  # every byte once, on either side of the cut
            assert list(follower_store.scan()) == list(leader_store.scan())
            assert len(list(follower_store.scan())) == 100
        finally:
            await leader.aclose()
            await follower.aclose()
            leader_store.close()
            follower_store.close()

    asyncio.run(scenario())


def test_asking_whether_the_log_may_be_cut_changes_nothing_in_the_shipper(
    tmp_path,
):
    """``may_truncate`` is a question. (It used to move the shipper's
    own copy of the log's base as a side effect of answering yes.)"""

    def state(shipper):
        return {
            name: list(value) if isinstance(value, list) else value
            for name, value in vars(shipper).items()
            if isinstance(value, (int, list, type(None)))
        }

    async def scenario():
        leader_store = make_store(tmp_path, "leader")
        follower_store = make_store(tmp_path, "follower")
        try:
            async with ReplicatedKVServer(
                follower_store, role="follower"
            ) as follower, ReplicatedKVServer(
                leader_store, role="leader"
            ) as leader:
                await leader.become_leader(0, [client_for(follower.address)])
                shipper = leader.shipper
                async with KVClient(*leader.address) as client:
                    await client.put(b"key", VALUE)
                lsn = leader_store.wal_position().lsn
                await eventually(lambda: shipper.acked_cursors() == [lsn])
                before, status = state(shipper), shipper.status()
                assert before["_tail"] == lsn
                assert shipper.may_truncate(lsn) is True
                assert shipper.may_truncate(lsn - 1) is False
                assert state(shipper) == before
                assert shipper.status() == status
                # and the store, told yes, moves its own base by itself
                leader_store.flush()
                assert leader_store.wal_position() == (
                    status["lineage"], lsn, lsn
                )
                assert state(shipper) == before
        finally:
            leader_store.close()
            follower_store.close()

    asyncio.run(scenario())


# -- (d) a snapshot larger than any frame may be ---------------------------


def test_a_shard_twice_the_frame_cap_still_attaches_a_follower(
    tmp_path, monkeypatch
):
    """The cap is lowered, not the data raised (same arithmetic, a
    hundredth of the memory): 2 x MAX_FRAME_BYTES of values travel as
    chunks of at most the shipper's real span size."""
    monkeypatch.setattr(binproto, "MAX_FRAME_BYTES", 2 << 20)
    span_bytes = shipper_module._SPAN_BYTES
    assert span_bytes * 2 <= binproto.MAX_FRAME_BYTES
    value = b"x" * 4096
    rows = [(b"big-%05d" % index, value) for index in range(1024)]
    assert sum(len(v) for _k, v in rows) == 2 * binproto.MAX_FRAME_BYTES
    old = [(b"old-%02d" % index, b"state") for index in range(20)]

    frames = []
    encode_frame = binproto.encode_frame

    def counting(payload):
        frames.append(len(payload))
        return encode_frame(payload)

    async def scenario():
        leader_store = make_store(tmp_path, "leader")
        follower_store = make_store(tmp_path, "follower")
        for start in range(0, len(rows), 64):
            leader_store.write_batch(rows[start : start + 64])
        follower_store.write_batch(old)
        views = []
        try:
            async with ReplicatedKVServer(
                follower_store, role="follower"
            ) as follower, ReplicatedKVServer(
                leader_store, role="leader"
            ) as leader, client_for(follower.address) as reader:
                replicate = follower._op_replicate

                async def scan_between_chunks(message):
                    response = await replicate(message)
                    if message.get("reset") and not message.get("final"):
                        views.append(await reader.scan())
                    return response

                follower._op_replicate = scan_between_chunks
                monkeypatch.setattr(binproto, "encode_frame", counting)
                await leader.become_leader(0, [client_for(follower.address)])
                await eventually(
                    lambda: leader.shipper.acked_cursors()
                    == [leader_store.wal_position().lsn]
                )
                monkeypatch.setattr(binproto, "encode_frame", encode_frame)
                assert counter(leader_store, "replication_resets_total") == 1
                assert list(follower_store.scan()) == rows
        finally:
            leader_store.close()
            follower_store.close()
        return views

    views = asyncio.run(scenario())
    header = 1 + 21
    assert max(frames) <= span_bytes + header
    assert sum(size > span_bytes // 2 for size in frames) >= 4
    # a reader between two chunks sees the old state whole, never a mix
    assert len(views) >= 3
    assert all(view == old for view in views)


# -- a follower that is not there ------------------------------------------


async def black_hole():
    """A peer that accepts, reads, and never answers."""
    accepted = []

    async def swallow(reader, writer):
        accepted.append(writer)
        try:
            while await reader.read(65536):
                pass
        finally:
            writer.close()

    server = await asyncio.start_server(swallow, "127.0.0.1", 0)
    return server, accepted


def test_a_silent_follower_costs_no_snapshot_and_is_retried_ever_slower(
    tmp_path, monkeypatch
):
    async def scenario():
        store = make_store(tmp_path, "leader")
        for start in range(0, 300, 50):
            store.write_batch([(key, VALUE) for key in keys(start, start + 50)])
        store.flush()
        snapshots = []
        snapshot = store.replication_snapshot
        monkeypatch.setattr(
            store,
            "replication_snapshot",
            lambda: snapshots.append(1) or snapshot(),
        )
        server, accepted = await black_hole()
        port = server.sockets[0].getsockname()[1]
        try:
            async with ReplicatedKVServer(store, role="leader") as leader:
                scans = [
                    counter(store, f"engine_{what}_total")
                    for what in ("scans", "scan_rows", "scan_blocks")
                ]
                lookups = block_lookups(store)
                await leader.become_leader(
                    0,
                    [
                        KVClient(
                            "127.0.0.1",
                            port,
                            pool_size=1,
                            timeout=0.02,
                            max_retries=0,
                        )
                    ],
                )
                await asyncio.sleep(0.5)
                status = leader.shipper.status()["followers"][0]
                assert status == dict(status, stalled=True, acked_offset=None)
                assert snapshots == []
                assert scans == [
                    counter(store, f"engine_{what}_total")
                    for what in ("scans", "scan_rows", "scan_blocks")
                ]
                assert block_lookups(store) == lookups
                # 20 ms to time out, then 50, 100, 200, 400 ms of
                # back-off: four probes fit in half a second, not ten
                assert 2 <= len(accepted) <= 5
                assert counter(store, "replication_ship_stalls_total") == 1
        finally:
            server.close()
            await server.wait_closed()
            store.close()

    asyncio.run(scenario())


def test_a_leader_that_cannot_scan_itself_backs_off_too(tmp_path, monkeypatch):
    async def scenario():
        leader_store = make_store(tmp_path, "leader")
        follower_store = make_store(tmp_path, "follower")
        attempts = []

        def quarantined():
            attempts.append(1)
            raise DataCorruptError(
                "run 3 is quarantined", run_id=3, min_key=b"a", max_key=b"z"
            )

        monkeypatch.setattr(leader_store, "replication_snapshot", quarantined)
        try:
            async with ReplicatedKVServer(
                follower_store, role="follower"
            ) as follower, ReplicatedKVServer(
                leader_store, role="leader"
            ) as leader:
                await leader.become_leader(0, [client_for(follower.address)])
                await asyncio.sleep(0.5)
                assert leader.shipper.status()["followers"][0]["stalled"]
                assert 2 <= len(attempts) <= 5
                # ... and attaches as soon as the scan works again
                monkeypatch.undo()
                await eventually(
                    lambda: leader.shipper.acked_cursors() == [0], timeout=3.0
                )
                assert not leader.shipper.status()["followers"][0]["stalled"]
        finally:
            leader_store.close()
            follower_store.close()

    asyncio.run(scenario())


# -- roles -----------------------------------------------------------------


def test_a_promoted_follower_leads_a_new_lineage(tmp_path):
    async def scenario():
        a_store = make_store(tmp_path, "a")
        b_store = make_store(tmp_path, "b")
        try:
            async with ReplicatedKVServer(
                b_store, role="follower", ack_policy="quorum"
            ) as node_b, ReplicatedKVServer(
                a_store, role="leader", ack_policy="quorum"
            ) as node_a:
                await node_a.become_leader(0, [client_for(node_b.address)])
                async with KVClient(*node_a.address) as client:
                    await client.put(b"before", b"1")
                a_lineage = a_store.wal_position().lineage
                b_lineage = b_store.wal_position().lineage
                assert b_store.upstream[0] == a_lineage
                async with KVClient(*node_b.address) as client:
                    ack = await client.promote(1, peers=[node_a.address])
                    # B reports its own log now, under a lineage that is
                    # neither A's nor the one B's log had as a follower
                    assert ack["lineage"] == b_store.wal_position().lineage
                    assert ack["lineage"] not in (a_lineage, b_lineage)
                    assert b_store.upstream is None
                    await client.put(b"after", b"2")
                # A held a cursor into nothing B knows: reset, not resume
                await eventually(
                    lambda: list(a_store.scan()) == list(b_store.scan())
                )
                assert counter(b_store, "replication_resets_total") == 1
                assert counter(b_store, "replication_resumes_total") == 0
                assert a_store.upstream[0] == ack["lineage"]
        finally:
            a_store.close()
            b_store.close()

    asyncio.run(scenario())


@pytest.mark.parametrize("damage", ["truncated", "flipped"])
def test_a_span_damaged_in_transit_is_refused_and_sent_again(
    tmp_path, monkeypatch, damage
):
    async def scenario():
        leader_store = make_store(tmp_path, "leader")
        follower_store = make_store(tmp_path, "follower")
        damaged = []
        encode_request = binproto.encode_request

        def corrupting(message):
            payload = encode_request(message)
            if (
                message.get("op") == "REPLICATE"
                and message.get("span")
                and not message.get("reset")
                and not damaged
            ):
                damaged.append(1)
                if damage == "truncated":
                    return payload[:-3]
                return payload[:-3] + bytes([payload[-3] ^ 0x10]) + payload[-2:]
            return payload

        try:
            async with ReplicatedKVServer(
                follower_store, role="follower"
            ) as follower, ReplicatedKVServer(
                leader_store, role="leader"
            ) as leader:
                await leader.become_leader(0, [client_for(follower.address)])
                await eventually(lambda: leader.shipper.acked_cursors() == [0])
                monkeypatch.setattr(binproto, "encode_request", corrupting)
                async with KVClient(*leader.address) as client:
                    await client.put(b"k", b"v")
                await eventually(
                    lambda: leader.shipper.acked_cursors()
                    == [leader_store.wal_position().lsn]
                )
                assert damaged == [1]
                status = follower.applier.status()
                assert (status["frames_applied"], status["frames_skipped"]) == (1, 0)
                assert follower.metrics.protocol_errors == 0
                assert list(follower_store.scan()) == [(b"k", b"v")]
                assert counter(leader_store, "replication_ship_stalls_total") == 1
        finally:
            leader_store.close()
            follower_store.close()

    asyncio.run(scenario())
