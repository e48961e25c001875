"""Resets ship the leader's run files: what one costs on either side,
and what writes racing it, retries and crashes leave behind."""

from __future__ import annotations

import asyncio
import os
import tracemalloc

import pytest

from repro.engine import LSMStore, StoreOptions
from repro.replication import ReplicaApplier, ReplicatedKVServer, WalShipper
from repro.replication import shipper as shipper_module
from repro.server import binproto, protocol
from repro.server.client import KVClient

from ..engine.images import chunks, frozen, unnamed_runs
from .test_shipping import eventually

INLINE = StoreOptions(
    memtable_bytes=256 * 1024,
    num_memtables=2,
    policy="tiering",
    size_ratio=3,
    levels=3,
    background_maintenance=False,
)
WORKERS = INLINE.with_(memtable_bytes=16 * 1024, background_maintenance=True)
#: Bytes a reset chunk carries at most here: the shard below is 16 or
#: more of them, and a side of the reset may hold at most 4 at once.
SPAN = 128 * 1024


def counter(store, name, **labels):
    return sum(
        entry["value"]
        for entry in store.obs.registry.snapshot()["counters"]
        if entry["name"] == name
        and all(entry["labels"].get(k) == v for k, v in labels.items())
    )


class Recorder:
    """A follower client that acks every chunk and keeps what it was
    sent on disk, encoded as on the wire — not in memory."""

    def __init__(self, path):
        self.file = open(path, "wb")
        self.sizes = []

    async def replica_status(self, epoch=-1):
        return dict(epoch=0, lineage=None, applied=0, quarantined=0)

    async def replicate(self, message):
        frame = binproto.encode_frame(binproto.encode_request(message))
        self.file.write(frame)
        self.sizes.append(len(frame))
        return dict(
            epoch=0,
            lineage=message["lineage"],
            applied=message["start"],
            quarantined=0,
        )

    async def aclose(self):
        self.file.close()


def test_a_reset_costs_a_few_chunks_of_memory_not_the_shard(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(shipper_module, "_SPAN_BYTES", SPAN)
    leader = LSMStore.open(str(tmp_path / "leader"), INLINE)
    for start in range(0, 4096, 256):
        leader.write_batch(
            [(b"key-%06d" % (i * 7919 % 4096), b"v" * 800)
             for i in range(start, start + 256)]
        )
    leader.flush()
    leader.maintenance()
    run_bytes = sum(
        os.path.getsize(os.path.join(leader.directory, name))
        for record in leader.live_runs()
        for name in record.files
    )
    assert run_bytes >= 16 * SPAN
    recorder = Recorder(tmp_path / "wire")

    async def ship():
        # the loop's executor threads are not the reset's
        await asyncio.get_running_loop().run_in_executor(None, len, b"")
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        shipper = WalShipper(leader, [recorder])
        await shipper.start()
        await eventually(
            lambda: counter(leader, "replication_resets_total") == 1
        )
        await shipper.stop()
        return tracemalloc.get_traced_memory()[1] - before

    tracemalloc.start()
    try:
        shipped_peak = asyncio.run(ship())
        follower = LSMStore.open(str(tmp_path / "follower"), INLINE)
        applier = ReplicaApplier(follower)
        written = [
            (counter(follower, name), follower.stats().wal_bytes)
            for name in ("engine_flush_bytes_total", "engine_merge_bytes_total")
        ]
        peaks = []
        with open(tmp_path / "wire", "rb") as wire:
            for size in recorder.sizes:
                payload = wire.read(size)[4:]
                start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                applier.apply_frame(
                    protocol.replicate_payload(binproto.decode_request(payload))
                )
                current, peak = tracemalloc.get_traced_memory()
                # what the install keeps (readers' indexes and filters,
                # for serving) is outside the bound: only the transient
                del payload
                peaks.append(peak - max(start, current))
    finally:
        tracemalloc.stop()
    try:
        assert len(recorder.sizes) >= 16
        assert shipped_peak <= 4 * SPAN, shipped_peak
        assert max(peaks) <= 4 * SPAN, max(peaks)
        assert applier.status()["resets"] == 1
        assert list(follower.scan()) == list(leader.scan())
        # no byte of the reset went through the follower's log, a
        # flush or a merge
        assert written == [
            (counter(follower, name), follower.stats().wal_bytes)
            for name in ("engine_flush_bytes_total", "engine_merge_bytes_total")
        ]
        shipped = counter(
            leader, "replication_bytes_shipped_total", kind="reset"
        )
        assert shipped == sum(recorder.sizes) - 4 * len(recorder.sizes)
        framing = shipped - run_bytes
        assert 0 < framing <= len(recorder.sizes) * (
            binproto.REPLICATE_HEADER_BYTES + 256
        )
    finally:
        follower.close()
        leader.close()


@pytest.mark.parametrize("group_commit", [False, True])
def test_writes_racing_a_reset_leave_the_follower_equal_to_the_leader(
    tmp_path, group_commit
):
    """The image is frozen on a worker leader while clients write; the
    follower installs it and the log from the image's LSN on."""
    options = WORKERS.with_(group_commit=group_commit)

    async def scenario():
        leader_store = LSMStore.open(str(tmp_path / "leader"), options)
        follower_store = LSMStore.open(str(tmp_path / "follower"), options)
        stop = asyncio.Event()
        try:
            async with ReplicatedKVServer(
                follower_store, role="follower"
            ) as follower, ReplicatedKVServer(
                leader_store, role="leader"
            ) as leader:

                async def write(prefix):
                    async with KVClient(*leader.address) as client:
                        index = 0
                        while not stop.is_set():
                            await client.put(b"%s-%06d" % (prefix, index), b"v" * 200)
                            index += 1

                writers = [
                    asyncio.create_task(write(prefix)) for prefix in (b"a", b"b")
                ]
                await asyncio.sleep(0.2)
                await leader.become_leader(
                    0,
                    [KVClient(*follower.address, pool_size=1, max_retries=1)],
                )
                await eventually(
                    lambda: leader.shipper.acked_cursors() != [None]
                )
                await asyncio.sleep(0.2)
                stop.set()
                await asyncio.gather(*writers)
                await eventually(
                    lambda: leader.shipper.acked_cursors()
                    == [leader_store.wal_position().lsn]
                )
                assert counter(leader_store, "replication_resets_total") == 1
                assert counter(
                    leader_store, "replication_bytes_shipped_total", kind="reset"
                ) > 0
                assert list(follower_store.scan()) == list(leader_store.scan())
        finally:
            leader_store.close()
            follower_store.close()

    asyncio.run(scenario())


OLD_RUN = [(b"old-run-%02d" % index, b"run") for index in range(10)]
OLD_LOG = [(b"old-log-%02d" % index, b"log") for index in range(10)]
ROWS = [(b"row-%04d" % index, b"image" * 8) for index in range(300)]


@pytest.fixture
def follower(tmp_path):
    """A follower with writes in a run and in its memtable and log."""
    store = LSMStore.open(str(tmp_path / "follower"), INLINE)
    store.write_batch(OLD_RUN)
    store.flush()
    store.write_batch(OLD_LOG)
    with frozen(tmp_path / "leader", ROWS) as image:
        staged = chunks(image, 1024, start=500)
    assert len(staged) > 3
    return store, ReplicaApplier(store), staged


def test_a_crash_mid_reset_reopens_to_the_old_state(follower):
    store, applier, staged = follower
    for chunk in staged[:3]:
        applier.apply_frame(chunk)
    assert unnamed_runs(store)  # the stage, written in place
    store.crash()
    with LSMStore.open(store.directory, INLINE) as reopened:
        assert list(reopened.scan()) == OLD_LOG + OLD_RUN
        assert unnamed_runs(reopened) == []  # swept as orphans


def test_a_crash_right_after_the_install_reopens_to_exactly_the_image(
    follower,
):
    store, applier, staged = follower
    for chunk in staged:
        applier.apply_frame(chunk)
    assert store.upstream == (7, 500, 0)
    store.crash()
    with LSMStore.open(store.directory, INLINE) as reopened:
        assert list(reopened.scan()) == ROWS
        assert reopened.upstream is None  # a crash: the next attach resets
        assert unnamed_runs(reopened) == []
