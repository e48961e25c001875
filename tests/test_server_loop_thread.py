"""Where an engine call runs: on the event loop's thread, or on the pool
because it has to wait.

Event-ordered throughout: every "while the write is parked" below is
established by something the parked call itself did — a pool submission,
the engine's ``stall_enter`` event, an append to the commit queue —
never by sleeping and hoping. Where a regression would park the *loop*
(and with it the test), a watchdog timer opens the gate after
``PATIENCE`` seconds so the run fails on its assertions instead of
hanging.
"""

from __future__ import annotations

import asyncio
import dataclasses
import sys
import threading
import time
from collections import deque
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import pytest

import repro
from repro.engine import LSMStore, StoreOptions
from repro.engine import wal as wal_module
from repro.obs import events as obs_events
from repro.replication import ReplicatedKVServer
from repro.server import binproto, protocol
from repro.server.admission import build_admission
from repro.server.client import KVClient
from repro.server.service import INLINE_SCAN_ROWS, KVServer

PATIENCE = 30.0

#: Workers own maintenance; five components close the stall gate and a
#: stalled write parks (the paper's stop mode) until a merge publishes.
WORKERS = StoreOptions(
    memtable_bytes=4096,
    num_memtables=2,
    policy="tiering",
    size_ratio=3,
    levels=2,
    constraint_limit=5,
    background_maintenance=True,
)
INLINE = WORKERS.with_(background_maintenance=False)


@contextmanager
def open_store(directory, options: StoreOptions):
    """An open store whose idle maintenance worker sleeps until notified.

    A worker with nothing to claim re-checks every 50 ms, under the
    store lock, and ``wait=False`` answers None when it meets that lock
    taken. Right in production — the write hops once — but a test that
    asserts *nothing* hopped must not be able to lose that race. Here
    the worker waits without a timeout (every publish, rotation, release
    and close still wakes it), and ``store.settle()`` returns once it is
    back asleep — call it after anything that woke it and before
    asserting that a write stayed on its thread. A notified worker
    counts as awake from the notify on, not from when it retakes the
    store lock, so ``settle()`` cannot return in between.
    """
    with LSMStore.open(str(directory), options) as store:
        idle = store._maintenance._changed
        timed_wait = idle.wait
        asleep: set[threading.Thread] = set()
        changed = threading.Condition()

        def waking(notify):
            def wake(*args):
                with changed:
                    asleep.clear()
                return notify(*args)

            return wake

        def wait(timeout=None):
            me = threading.current_thread()
            if me is not store._maintenance._worker:
                return timed_wait(timeout)  # a parked writer keeps its poll
            with changed:
                asleep.add(me)
                changed.notify_all()
            try:
                return timed_wait()
            finally:
                with changed:
                    asleep.discard(me)

        def settle() -> None:
            with changed:
                assert changed.wait_for(
                    lambda: asleep == {store._maintenance._worker} - {None},
                    PATIENCE,
                )
            # The last to doze off lets go of the lock inside its wait().
            with store._lock:
                pass

        idle.wait = wait
        idle.notify = waking(idle.notify)
        idle.notify_all = waking(idle.notify_all)
        with store._lock:
            idle.notify_all()
        store.settle = settle
        settle()
        yield store


class Submissions:
    """Counts what a started server hands to its worker pool."""

    def __init__(self, server: KVServer) -> None:
        self.count = 0
        #: Set by every submission (on the loop thread, where
        #: ``run_in_executor`` is called); a test clears it to wait for
        #: the next one.
        self.seen = asyncio.Event()
        submit = server._executor.submit

        def counted(fn, *args, **kwargs):
            self.count += 1
            self.seen.set()
            return submit(fn, *args, **kwargs)

        server._executor.submit = counted


def engine_calls(store: LSMStore, where: str) -> dict[str, int]:
    """Non-zero ``server_engine_calls_total{where=...}`` series by op."""
    return {
        series["labels"]["op"]: int(series["value"])
        for series in store.obs.registry.snapshot()["counters"]
        if series["name"] == "server_engine_calls_total"
        and series["labels"]["where"] == where
        and series["value"]
    }


def counter(store: LSMStore, name: str) -> float:
    return sum(
        series["value"]
        for series in store.obs.registry.snapshot()["counters"]
        if series["name"] == name
    )


def hold(store: LSMStore, method_owner, method: str):
    """Make ``method_owner.method`` answer None until the returned
    ``release()`` is called — the maintenance workers then claim
    nothing and sit idle, however much work there is."""
    original = getattr(method_owner, method)
    held = threading.Event()
    held.set()
    setattr(
        method_owner,
        method,
        lambda *args: None if held.is_set() else original(*args),
    )

    def let_go() -> None:
        held.clear()
        with store._lock:
            store._maintenance._changed.notify_all()

    watchdog = threading.Timer(PATIENCE, let_go)
    watchdog.daemon = True
    watchdog.start()

    def release() -> None:
        watchdog.cancel()
        let_go()

    return release


def watch_for(store: LSMStore, kind: str, **match) -> threading.Event:
    """An event set when the store's tracer next emits ``kind`` with
    the fields in ``match``."""
    seen = threading.Event()
    emit = store.obs.tracer.emit

    def watching(event_kind, **fields):
        if event_kind == kind and match.items() <= fields.items():
            seen.set()
        return emit(event_kind, **fields)

    store.obs.tracer.emit = watching
    return seen


async def reached(event: threading.Event) -> None:
    assert await asyncio.to_thread(event.wait, PATIENCE)


def trip_the_constraint(store: LSMStore) -> None:
    """One small run per round, no merge claimed: the component count
    climbs until the gate closes. ``flush()`` returns once the run is
    published, so each check sees the round's effect."""
    for index in range(20):
        if store.write_stalled:
            return
        store.put(b"fill-%04d" % index, b"f" * 32)
        store.flush()
    raise AssertionError("the component constraint never tripped")


async def exchange(address, requests: list[dict]) -> list[bytes]:
    """The raw response payload of each request, one connection."""
    reader, writer = await asyncio.open_connection(*address)
    writer.write(binproto.MAGIC_BYTE)
    payloads = []
    for message in requests:
        await binproto.write_request(writer, message)
        payloads.append(await binproto.read_frame(reader))
    writer.close()
    await writer.wait_closed()
    return payloads


# -- (a) an idle store never meets the pool --------------------------------

REQUESTS = [
    protocol.put_request(b"alpha", b"1"),
    protocol.put_request(b"beta", b"2"),
    protocol.delete_request(b"alpha"),
    protocol.batch_request(
        [(b"gamma", b"3"), (b"beta", None), (b"delta", b"4")]
    ),
    protocol.get_request(b"gamma"),
    protocol.get_request(b"alpha"),
    protocol.scan_request(limit=50),
]


class EveryCallOnThePool(KVServer):
    """The reference: the server as it was, reads handed over too (its
    store is told every write would wait, so they all hop as well)."""

    async def _op_get(self, message: dict) -> dict:
        value = await self._in_thread(
            self._store.get, protocol.request_key(message)
        )
        return protocol.ok_response(value=value)

    async def _op_scan(self, message: dict) -> dict:
        lo, hi, limit = protocol.scan_bounds(message)
        items = await self._in_thread(
            lambda: list(self._store.scan(lo, hi, limit))
        )
        return protocol.ok_response(items=items)


@pytest.mark.parametrize("mode, snapshots", [("none", 0), ("stop", 1)])
def test_a_write_reads_the_engines_stats_only_for_a_mode_that_looks(
    tmp_path, mode, snapshots
):
    """``store.stats()`` takes the store lock and builds a 16-field
    snapshot, on the loop thread: once per write for a controller that
    decides by it, never for ``none``, which admits regardless."""

    async def scenario():
        with open_store(tmp_path, WORKERS) as store:
            calls = []
            stats = store.stats
            store.stats = lambda: calls.append(1) or stats()
            async with KVServer(store, build_admission(mode)) as server:
                async with KVClient(*server.address) as client:
                    await client.put(b"key", b"value")
                    assert len(calls) == snapshots
                    await client.delete(b"key")
                    await client.batch([(b"a", b"1"), (b"b", None)])
                    assert len(calls) == 3 * snapshots
                    assert await client.get(b"a") == b"1"
                    # The STATS verb itself always reads the engine.
                    await client.stats()
                    assert len(calls) == 3 * snapshots + 1

    asyncio.run(scenario())


def test_an_idle_store_answers_on_the_loop_what_the_pool_would(tmp_path):
    async def scenario():
        with open_store(tmp_path / "loop", WORKERS) as store:
            async with KVServer(store) as server:
                pool = Submissions(server)
                on_the_loop = await exchange(server.address, REQUESTS)
                assert pool.count == 0
                assert engine_calls(store, "thread") == {}
                assert engine_calls(store, "loop") == {
                    "put": 2, "del": 1, "batch": 1, "get": 2, "scan": 1,
                }
        with open_store(tmp_path / "pool", WORKERS) as store:
            store._rotation.would_wait = lambda batch: True
            async with EveryCallOnThePool(store) as server:
                pool = Submissions(server)
                on_the_pool = await exchange(server.address, REQUESTS)
                assert pool.count == len(REQUESTS)
                assert engine_calls(store, "loop") == {}
        assert on_the_loop == on_the_pool

    asyncio.run(scenario())


def test_a_leader_with_nobody_to_wait_for_writes_on_the_loop(tmp_path):
    """The replicated server wraps ``apply``; ``wait`` passes through."""

    async def scenario():
        with open_store(tmp_path, WORKERS) as store:
            server = ReplicatedKVServer(store, role="leader")
            async with server:
                await server.become_leader(0, [])
                pool = Submissions(server)
                async with KVClient(*server.address) as client:
                    await client.put(b"k", b"v")
                    assert await client.get(b"k") == b"v"
                assert pool.count == 0
                assert engine_calls(store, "loop") == {"put": 1, "get": 1}

    asyncio.run(scenario())


# -- (b) the paper's stall does not reach readers --------------------------


def test_a_stalled_put_parks_on_the_pool_while_reads_are_answered(tmp_path):
    async def scenario():
        with open_store(tmp_path, WORKERS) as store:
            store.put(b"there", b"already")
            release = hold(store, store._compaction, "claim_merge")
            trip_the_constraint(store)
            stalled = watch_for(store, obs_events.STALL_ENTER)
            async with KVServer(store) as server:
                pool = Submissions(server)
                async with KVClient(*server.address, pool_size=2) as client:
                    put = asyncio.create_task(client.put(b"new", b"value"))
                    await reached(stalled)  # parked in the engine's gate
                    assert pool.count == 1
                    assert await client.get(b"there") == b"already"
                    assert await client.ping()
                    assert await client.get(b"new") is None
                    assert not put.done()
                    assert pool.count == 1  # the reads never hopped
                    release()
                    await asyncio.wait_for(put, PATIENCE)
                    assert await client.get(b"new") == b"value"
            assert engine_calls(store, "thread") == {"put": 1}
            assert store.stats().write_stalls == 1

    asyncio.run(scenario())


# -- (b') under admission the loop decides what a closed gate means --------

ADMISSION_PARAMS = {
    "none": {},
    "stop": {},
    "limit": dict(rate_bytes_per_s=2**30),
    "gradual": dict(rate_bytes_per_s=2**30, retry_after=0.02),
}


def close_the_gate_by_hand(store: LSMStore):
    """Wrap the store's component constraint in one that reports the
    gate closed (headroom 0) until the returned ``release()``; a version
    is installed at each end, as a publish would."""
    compaction = store._compaction
    constraint = compaction._constraint
    closed = threading.Event()
    closed.set()

    class ClosedByHand:
        def is_violated(self, tree):
            return closed.is_set() or constraint.is_violated(tree)

        def headroom(self, tree):
            return 0.0 if closed.is_set() else constraint.headroom(tree)

    def install():
        with store._lock:
            compaction._install()

    def release():
        closed.clear()
        install()

    compaction._constraint = ClosedByHand()
    install()
    return release


def gate_looks_open(store: LSMStore) -> None:
    """The snapshot a controller judges says the gate is open, so an
    admitted write meets the closed gate itself."""
    stats = store.stats
    store.stats = lambda: dataclasses.replace(
        stats(), write_stalled=False, write_headroom=1.0
    )


def count_gate_reads(monkeypatch) -> list:
    """Each read of ``LSMStore.write_stalled`` appends one entry."""
    reads = []
    gate = LSMStore.write_stalled
    monkeypatch.setattr(
        LSMStore,
        "write_stalled",
        property(lambda store: reads.append(1) or gate.fget(store)),
    )
    return reads


@pytest.mark.parametrize("mode", ["none", "stop", "limit", "gradual"])
def test_only_mode_none_takes_a_closed_gate_to_the_pool(
    tmp_path, monkeypatch, mode
):
    """``none`` parks the write on the pool, where it commits once the
    gate opens, and never asks about the gate on the loop. Every other
    mode answers on the loop, with no pool hop: stop and limit at once,
    gradual once ``write_deadline`` has passed."""

    async def scenario():
        with open_store(tmp_path, WORKERS) as store:
            release = hold(store, store._compaction, "claim_merge")
            trip_the_constraint(store)
            gate_looks_open(store)
            reads = count_gate_reads(monkeypatch)
            admission = build_admission(mode, **ADMISSION_PARAMS[mode])
            async with KVServer(
                store, admission, write_deadline=0.2
            ) as server:
                pool = Submissions(server)
                put = asyncio.create_task(exchange(
                    server.address, [protocol.put_request(b"k", b"v")]
                ))
                if mode == "none":
                    await asyncio.wait_for(pool.seen.wait(), PATIENCE)
                    release()
                (payload,) = await asyncio.wait_for(put, PATIENCE)
                release()
                response = binproto.decode_response(payload)
                metrics = server.metrics.snapshot()
            if mode == "none":
                assert response["ok"]
                assert pool.count == 1
                assert reads == []
                assert store.get(b"k") == b"v"
                assert store.stats().write_stalls == 1
                return
            assert response["code"] == protocol.CODE_STALLED
            assert pool.count == 0
            assert reads
            assert metrics["writes_rejected"] == 1
            assert metrics["stalls_absorbed"] == (mode == "gradual")
            # The engine never saw the write: no stall, no trace.
            assert store.stats().write_stalls == 0
            assert store.get(b"k") is None

    asyncio.run(scenario())


@pytest.mark.parametrize("mode", ["stop", "limit"])
def test_a_write_refused_at_the_gate_carries_the_configured_hint(
    tmp_path, mode
):
    """Regression: a write the engine's gate refused hinted 50 ms
    whatever ``retry_after`` the controller was built with."""

    async def scenario():
        with open_store(tmp_path, WORKERS) as store:
            release = hold(store, store._compaction, "claim_merge")
            trip_the_constraint(store)
            gate_looks_open(store)
            admission = build_admission(
                mode, **ADMISSION_PARAMS[mode], retry_after=0.2
            )
            async with KVServer(store, admission) as server:
                (payload,) = await exchange(
                    server.address, [protocol.put_request(b"k", b"v")]
                )
            release()
        response = binproto.decode_response(payload)
        assert response["code"] == protocol.CODE_STALLED
        assert response["error"].endswith("merges must catch up")  # the gate
        assert response["retry_after"] == 0.2

    asyncio.run(scenario())


def test_every_admission_decision_runs_on_the_loop_thread(tmp_path):
    """The pacer behind ``limit`` and ``gradual`` takes no lock: it is
    safe only while every decision runs on the event loop's thread."""

    async def scenario():
        with open_store(tmp_path, WORKERS) as store:
            admission = build_admission("limit", rate_bytes_per_s=2**30)
            threads = []
            decide = admission.decide

            def recorded(*args):
                threads.append(threading.get_ident())
                return decide(*args)

            admission.decide = recorded
            async with KVServer(store, admission) as server:
                async with KVClient(*server.address, pool_size=4) as client:
                    await asyncio.gather(
                        client.batch([(b"a", b"1"), (b"b", None)]),
                        client.delete(b"c"),
                        *(client.put(b"k%d" % n, b"v") for n in range(20)),
                    )
        assert threads == [threading.get_ident()] * 22

    asyncio.run(scenario())


def test_gradual_absorbs_a_closed_gate_once_and_commits_when_it_opens(
    tmp_path,
):
    """Held at the gate for many pauses, one write counts once in
    ``writes_delayed`` and once in ``stalls_absorbed``; every pause is
    in ``delay_seconds_total``; the engine counts no stall of its own.

    The gate is closed by hand, not by held-back merges: workers that
    merge take the store lock, and a retry that met it taken would hop
    to the pool (rightly) and make the count a race."""
    held_for = 0.2

    async def scenario():
        with open_store(tmp_path, WORKERS) as store:
            release = close_the_gate_by_hand(store)
            absorbing = watch_for(
                store, obs_events.ADMISSION, action="absorb"
            )
            admission = build_admission(
                "gradual", **ADMISSION_PARAMS["gradual"]
            )
            async with KVServer(
                store, admission, write_deadline=PATIENCE
            ) as server:
                pool = Submissions(server)
                async with KVClient(*server.address) as client:
                    put = asyncio.create_task(client.put(b"k", b"v"))
                    await reached(absorbing)
                    await asyncio.sleep(held_for)
                    release()
                    await asyncio.wait_for(put, PATIENCE)
                    assert await client.get(b"k") == b"v"
                metrics = server.metrics.snapshot()
            assert pool.count == 0
            assert metrics["writes_delayed"] == 1
            assert metrics["stalls_absorbed"] == 1
            assert metrics["writes_rejected"] == 0
            assert metrics["delay_seconds_total"] >= held_for
            assert engine_calls(store, "loop") == {"put": 1, "get": 1}
            assert store.stats().write_stalls == 0

    asyncio.run(scenario())


def test_a_gate_that_opens_before_the_check_sends_the_write_to_the_pool(
    tmp_path,
):
    """The engine answered None, then the gate opened before the loop
    asked: the write is not stalled any more, so it goes to the pool and
    commits there."""

    async def scenario():
        with open_store(tmp_path, WORKERS) as store:
            timed_put = store.timed_put

            def opened_meanwhile(key, value, wait=True):
                if not wait:
                    return None  # as if the gate were closed just then
                return timed_put(key, value)

            store.timed_put = opened_meanwhile
            async with KVServer(store, build_admission("stop")) as server:
                pool = Submissions(server)
                async with KVClient(*server.address) as client:
                    await client.put(b"k", b"v")
                    assert await client.get(b"k") == b"v"
                assert pool.count == 1
                assert server.metrics.writes_rejected.value == 0
            assert engine_calls(store, "thread") == {"put": 1}

    asyncio.run(scenario())


# -- (c) rotation: a bare seal stays, a flush stall hops -------------------


def test_a_batch_that_only_seals_stays_and_one_that_flush_stalls_hops(
    tmp_path,
):
    full = [(b"row-%03d" % index, b"v" * 100) for index in range(40)]
    assert sum(len(k) + len(v) for k, v in full) > WORKERS.memtable_bytes

    async def scenario():
        with open_store(tmp_path, WORKERS) as store:
            release = hold(store, store._maintenance, "_claim_locked")
            async with KVServer(store) as server:
                pool = Submissions(server)
                async with KVClient(*server.address, pool_size=2) as client:
                    # Sealed queue empty: rotation is a seal and a
                    # notify, nothing to wait for.
                    assert await client.batch(full) == len(full)
                    assert pool.count == 0
                    assert store.stats().sealed_memtables == 1
                    assert counter(
                        store, "engine_memtable_rotations_total"
                    ) == 1
                    # Sealed queue full and the workers idle: this one
                    # must wait for a flush that is not coming yet.
                    second = asyncio.create_task(client.batch(full))
                    await asyncio.wait_for(pool.seen.wait(), PATIENCE)
                    assert pool.count == 1
                    assert await client.get(b"row-000") == b"v" * 100
                    assert not second.done()
                    release()
                    assert await asyncio.wait_for(second, PATIENCE) == len(
                        full
                    )
            assert engine_calls(store, "loop") == {"batch": 1, "get": 1}
            assert engine_calls(store, "thread") == {"batch": 1}
            assert counter(store, "engine_flush_stalls_total") == 1

    asyncio.run(scenario())


# -- (d) what always waits: fsyncs, and rotation without workers -----------


def test_a_synced_put_hops(tmp_path):
    async def scenario():
        options = WORKERS.with_(sync_writes=True)
        with open_store(tmp_path, options) as store:
            async with KVServer(store) as server:
                pool = Submissions(server)
                async with KVClient(*server.address) as client:
                    await client.put(b"k", b"v")
                    await client.delete(b"k")
                assert pool.count == 2
                assert engine_calls(store, "loop") == {}

    asyncio.run(scenario())


class _SignallingQueue(deque):
    """A commit queue that says when ``want`` writers are parked in it."""

    def __init__(self, want: int) -> None:
        super().__init__()
        self.want = want
        self.full = threading.Event()

    def append(self, entry) -> None:
        super().append(entry)
        if len(self) == self.want:
            self.full.set()


def test_eight_concurrent_synced_puts_share_one_commit_group(
    tmp_path, monkeypatch
):
    writers = 8
    armed = threading.Event()
    first_sync_entered = threading.Event()
    first_sync_may_finish = threading.Event()
    real_fsync = wal_module.fsync_file

    def gated_fsync(file):
        if armed.is_set() and not first_sync_entered.is_set():
            first_sync_entered.set()
            first_sync_may_finish.wait(PATIENCE)
        real_fsync(file)

    monkeypatch.setattr(wal_module, "fsync_file", gated_fsync)

    async def scenario():
        options = WORKERS.with_(
            memtable_bytes=2**20, sync_writes=True, group_commit=True
        )
        with open_store(tmp_path, options) as store:
            queue = store._log._gc_queue = _SignallingQueue(writers)
            async with KVServer(store) as server:
                pool = Submissions(server)
                async with KVClient(
                    *server.address, pool_size=writers + 2
                ) as client:
                    # One write leads a group of one and sits in its
                    # fsync; the eight arrive meanwhile and must all be
                    # parked — on pool threads — when it returns.
                    armed.set()
                    first = asyncio.create_task(client.put(b"first", b"0"))
                    await reached(first_sync_entered)
                    rest = [
                        asyncio.create_task(
                            client.put(b"writer-%d" % index, b"x")
                        )
                        for index in range(writers)
                    ]
                    await reached(queue.full)
                    assert await client.ping()  # the loop is not parked
                    first_sync_may_finish.set()
                    await asyncio.wait_for(
                        asyncio.gather(first, *rest), PATIENCE
                    )
                assert pool.count == writers + 1
            assert engine_calls(store, "thread") == {"put": writers + 1}
            assert engine_calls(store, "loop") == {}
            assert counter(
                store, "engine_group_commit_batches_total"
            ) == writers + 1
            assert counter(store, "engine_group_commit_syncs_total") == 2

    asyncio.run(scenario())


def test_without_workers_only_the_put_that_rotates_hops(tmp_path):
    """Inline maintenance flushes on the caller at every rotation."""

    async def scenario():
        with open_store(tmp_path, INLINE) as store:
            async with KVServer(store) as server:
                pool = Submissions(server)
                value = b"v" * 100
                hopped = []
                async with KVClient(*server.address) as client:
                    for index in range(60):
                        before = pool.count
                        await client.put(b"key-%04d" % index, value)
                        hopped.append(pool.count - before)
                rotations = counter(
                    store, "engine_memtable_rotations_total"
                )
                assert rotations >= 1
                # Exactly one hop per rotation — the put that filled
                # the memtable — and a flush right behind it.
                assert sum(hopped) == rotations
                assert set(hopped) == {0, 1}
                assert engine_calls(store, "thread") == {"put": rotations}
                assert store.stats().sealed_memtables == 0

    asyncio.run(scenario())


# -- (e) scans: a page stays, a sweep hops ---------------------------------


def test_only_a_bounded_scan_runs_on_the_loop(tmp_path):
    async def scenario():
        with open_store(tmp_path, WORKERS) as store:
            for index in range(10):
                store.put(b"key-%02d" % index, b"v")
            async with KVServer(store) as server:
                pool = Submissions(server)
                async with KVClient(*server.address) as client:
                    everything = await client.scan()
                    assert pool.count == 1
                    assert await client.scan(
                        limit=INLINE_SCAN_ROWS + 1
                    ) == everything
                    assert pool.count == 2
                    assert await client.scan(
                        limit=INLINE_SCAN_ROWS
                    ) == everything
                    assert await client.scan(limit=0) == []
                    assert pool.count == 2
                assert engine_calls(store, "thread") == {"scan": 2}
                assert engine_calls(store, "loop") == {"scan": 2}

    asyncio.run(scenario())


# -- (f) the engine's half: wait=False -------------------------------------


def untouched(store: LSMStore, write) -> bool:
    """``write(wait=False)`` answered None and left no trace."""
    before = (
        store.wal_position(),
        store.stats().memtable_entries,
        store.stats().write_stalls,
    )
    answer = write(wait=False)
    after = (
        store.wal_position(),
        store.stats().memtable_entries,
        store.stats().write_stalls,
    )
    return answer is None and before == after


class TestWaitFalse:
    BATCH = [(b"row-%03d" % index, b"v" * 100) for index in range(40)]

    def writes(self, store):
        return [
            partial(store.timed_put, b"k", b"v"),
            partial(store.timed_delete, b"k"),
            partial(store.timed_write_batch, [(b"k", b"v"), (b"j", None)]),
        ]

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(sync_writes=True),
            dict(group_commit=True),
            dict(sync_writes=True, group_commit=True),
        ],
        ids=["sync", "group", "sync+group"],
    )
    def test_an_fsync_is_a_wait(self, tmp_path, overrides):
        with open_store(tmp_path, WORKERS.with_(**overrides)) as store:
            for write in self.writes(store):
                assert untouched(store, write)
                assert write() is not None

    def test_a_closed_stall_gate_is_a_wait(self, tmp_path):
        with open_store(tmp_path, WORKERS) as store:
            release = hold(store, store._compaction, "claim_merge")
            trip_the_constraint(store)
            for write in self.writes(store):
                assert untouched(store, write)
            release()
            # The stall — and its count — belong to the call that was
            # allowed to meet the gate.
            assert store.timed_put(b"k", b"v").stall_seconds > 0.0
            assert store.stats().write_stalls == 1

    def test_filling_the_memtable_waits_only_when_a_seal_is_not_enough(
        self, tmp_path
    ):
        with open_store(tmp_path / "workers", WORKERS) as store:
            release = hold(store, store._maintenance, "_claim_locked")
            # A free slot in the sealed queue: seal and carry on.
            assert store.timed_write_batch(self.BATCH, wait=False)
            assert store.stats().sealed_memtables == 1
            store.settle()  # the seal woke the workers
            # Queue full: a small write still fits, a filling one waits.
            assert store.timed_put(b"small", b"v", wait=False)
            assert untouched(
                store, partial(store.timed_write_batch, self.BATCH)
            )
            release()
            assert store.timed_write_batch(self.BATCH)
        with open_store(tmp_path / "inline", INLINE) as store:
            # No workers: rotation flushes on the caller.
            assert store.timed_put(b"small", b"v", wait=False)
            assert untouched(
                store, partial(store.timed_write_batch, self.BATCH)
            )
            assert store.timed_write_batch(self.BATCH)
            assert store.stats().disk_components == 1

    def test_a_contended_lock_answers_none_without_blocking(self, tmp_path):
        with open_store(tmp_path, WORKERS) as store:
            taken, done = threading.Event(), threading.Event()

            def occupy():
                with store._lock:
                    taken.set()
                    done.wait(PATIENCE)

            holder = threading.Thread(target=occupy)
            holder.start()
            try:
                assert taken.wait(PATIENCE)
                # Returning at all is the point: a blocking acquire
                # would sit here until the holder lets go.
                answers = [
                    write(wait=False) for write in self.writes(store)
                ]
            finally:
                done.set()
                holder.join(PATIENCE)
            assert not holder.is_alive()
            assert answers == [None, None, None]
            assert store.wal_position()[1] == 0
            assert store.stats().memtable_entries == 0

    def test_when_nothing_waits_it_is_the_same_write(self, tmp_path):
        def run(directory, wait):
            spans = []
            with open_store(directory, WORKERS) as store:
                # Idle workers: no flush publishes mid-run, so the log
                # is not checkpointed away under the comparison.
                release = hold(store, store._maintenance, "_claim_locked")
                for write in (
                    self.writes(store)
                    # Fills the memtable: a bare seal, so still no wait.
                    + [partial(store.timed_write_batch, self.BATCH)]
                    + self.writes(store)
                ):
                    timing = write(wait=wait)
                    store.settle()  # the filling batch's seal woke them
                    assert timing.io_seconds <= timing.engine_seconds
                    assert timing.stall_seconds == 0.0
                    spans.append((timing.wal_offset, timing.wal_end))
                log = Path(store.directory, "wal.log").read_bytes()
                memtable = store.stats().memtable_entries
                rows = list(store.scan())
                release()
            return spans, log, memtable, rows

        assert run(tmp_path / "nowait", False) == run(tmp_path / "wait", True)


def test_each_stalled_writer_is_billed_its_own_wait(tmp_path):
    """Two writers parked at one closed gate, the second 0.3 s after the
    first: the wait drops the store lock, so a ``stall_seconds`` read
    off the store-wide total would bill one of them the other's too."""
    stagger = 0.3
    with open_store(tmp_path, WORKERS) as store:
        release = hold(store, store._compaction, "claim_merge")
        trip_the_constraint(store)
        before = store.stats().stall_seconds_total
        timings: dict[bytes, object] = {}

        def parked_writer(key: bytes) -> threading.Thread:
            parked = watch_for(store, obs_events.STALL_ENTER)
            thread = threading.Thread(
                target=lambda: timings.update(
                    {key: store.timed_put(key, b"v")}
                )
            )
            thread.start()
            assert parked.wait(PATIENCE)
            return thread

        early = parked_writer(b"early")
        time.sleep(stagger)
        late = parked_writer(b"late")
        time.sleep(stagger / 3)
        release()
        for thread in (early, late):
            thread.join(PATIENCE)
            assert not thread.is_alive()
        waits = {key: t.stall_seconds for key, t in timings.items()}
        assert waits[b"late"] >= stagger / 3
        # Both leave when the gate opens; the early one came earlier.
        assert waits[b"early"] - waits[b"late"] == pytest.approx(
            stagger, abs=stagger / 3
        )
        assert sum(waits.values()) == pytest.approx(
            store.stats().stall_seconds_total - before
        )


# -- both kinds of writer at once ------------------------------------------


def test_loop_and_pool_writers_interleave_without_losing_a_write(tmp_path):
    """More writers than cores, a switch interval short enough to cut a
    write anywhere, and a memtable small enough that rotations, flush
    stalls and a contended lock send a good share of the writes to the
    pool while the rest commit on the loop thread."""
    writers, rounds, keys = 8, 150, 20

    async def scenario():
        with LSMStore.open(str(tmp_path), WORKERS) as store:
            async with KVServer(store) as server:
                async with KVClient(
                    *server.address, pool_size=writers
                ) as client:

                    async def write(writer: int) -> None:
                        for round_ in range(rounds):
                            await client.put(
                                b"w%d-k%02d" % (writer, round_ % keys),
                                b"%d" % round_ + b"." * 60,
                            )

                    await asyncio.wait_for(
                        asyncio.gather(*map(write, range(writers))),
                        4 * PATIENCE,
                    )
                    for writer in range(writers):
                        for key in range(keys):
                            last = max(
                                r for r in range(rounds) if r % keys == key
                            )
                            assert await client.get(
                                b"w%d-k%02d" % (writer, key)
                            ) == b"%d" % last + b"." * 60
            assert len(list(store.scan())) == writers * keys
            on_loop = engine_calls(store, "loop").get("put", 0)
            on_pool = engine_calls(store, "thread").get("put", 0)
            assert on_loop + on_pool == writers * rounds
            assert on_loop > 0 and on_pool > 0

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        asyncio.run(scenario())
    finally:
        sys.setswitchinterval(interval)


# -- the satellite's housekeeping ------------------------------------------


def test_the_default_executor_is_gone_from_the_serving_tiers():
    """A server's waits run on its own pool, sized and shut down by it;
    code with no server of its own (a chaos runner, a WAL shipper) uses
    the loop's default executor — either way through
    ``repro.server.service.in_thread``, never ``asyncio.to_thread``."""
    package = Path(repro.__file__).parent
    offenders = [
        str(path.relative_to(package))
        for path in sorted(package.rglob("*.py"))
        if "asyncio.to_thread" in path.read_text(encoding="utf-8")
    ]
    assert offenders == []
