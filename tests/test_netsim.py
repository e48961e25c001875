"""Network-fault tests: the client against a scripted faulty proxy.

A real :class:`~repro.server.KVServer` sits behind a
:class:`~tests.netsim.FaultyProxy`, and the client connects to the
proxy. Each test scripts a specific misbehavior — refused connection,
torn response frame, mid-conversation drop, injected latency — and
asserts the client survives it through its retry/reconnect machinery
without ever seeing a corrupted result.
"""

import asyncio

import pytest

from repro.engine import LSMStore, StoreOptions
from repro.errors import RetriesExhaustedError
from repro.server.client import KVClient
from repro.server.service import KVServer

from .netsim import (
    PASS,
    REFUSE,
    FaultyProxy,
    delay_frames,
    drop_after,
    partial_frame,
)

OPTIONS = StoreOptions(
    memtable_bytes=1 << 20,
    block_cache_bytes=0,
    background_maintenance=False,
)

CLIENT = dict(
    max_retries=4, timeout=1.0, backoff_base=0.01, backoff_max=0.02,
    jitter=False,
)


def run_through_proxy(tmp_path, script, scenario, **proxy_kwargs):
    """store → KVServer → FaultyProxy → KVClient, then ``scenario``."""

    async def main():
        pauses = []

        async def fake_sleep(delay):
            pauses.append(delay)

        with LSMStore.open(str(tmp_path), OPTIONS) as store:
            async with KVServer(store) as server:
                up_host, up_port = server.address
                async with FaultyProxy(
                    up_host, up_port, script=script, **proxy_kwargs
                ) as proxy:
                    host, port = proxy.address
                    options = dict(CLIENT, sleep=fake_sleep)
                    async with KVClient(host, port, **options) as client:
                        return await scenario(client, proxy, pauses)

    return asyncio.run(main())


def test_clean_proxy_is_transparent(tmp_path):
    async def scenario(client, proxy, pauses):
        await client.put(b"k", b"v")
        assert await client.get(b"k") == b"v"
        return client.telemetry, proxy

    metrics, proxy = run_through_proxy(tmp_path, [PASS], scenario)
    assert metrics.retries_total == 0
    assert proxy.frames_forwarded == 2
    assert proxy.connections_cut == 0


def test_refused_connection_is_retried(tmp_path):
    async def scenario(client, proxy, pauses):
        await client.put(b"k", b"v")
        assert await client.get(b"k") == b"v"
        return client.telemetry, proxy

    metrics, proxy = run_through_proxy(tmp_path, [REFUSE], scenario)
    assert metrics.retries_total >= 1
    assert proxy.connections_total >= 2


def test_torn_response_frame_poisons_the_connection(tmp_path):
    """A partial frame must read as a dead connection, never as data."""

    async def scenario(client, proxy, pauses):
        await client.put(b"k", b"v")
        assert await client.get(b"k") == b"v"
        return client.telemetry, proxy

    metrics, proxy = run_through_proxy(
        tmp_path, [partial_frame(3)], scenario
    )
    # The write was applied server-side but its ack was torn; the
    # client retried it on a fresh connection (puts are idempotent).
    assert metrics.reconnects >= 1
    assert proxy.connections_cut == 1


def test_mid_conversation_drop_is_survived(tmp_path):
    async def scenario(client, proxy, pauses):
        await client.put(b"a", b"1")  # forwarded, then the cut
        await client.put(b"b", b"2")  # needs a fresh connection
        assert await client.get(b"a") == b"1"
        assert await client.get(b"b") == b"2"
        return client.telemetry, proxy

    metrics, proxy = run_through_proxy(
        tmp_path, [drop_after(1)], scenario
    )
    assert metrics.reconnects >= 1
    assert proxy.connections_cut == 1


def test_delay_goes_through_injected_proxy_sleep(tmp_path):
    delays = []

    async def recording_sleep(seconds):
        delays.append(seconds)

    async def scenario(client, proxy, pauses):
        await client.put(b"k", b"v")
        assert await client.get(b"k") == b"v"

    run_through_proxy(
        tmp_path,
        [delay_frames(0.75)],
        scenario,
        sleep=recording_sleep,
    )
    # Both responses on the first connection paid the injected latency.
    assert delays == [0.75, 0.75]


def test_persistent_refusal_exhausts_retries(tmp_path):
    async def scenario(client, proxy, pauses):
        with pytest.raises(RetriesExhaustedError):
            await client.put(b"k", b"v")
        return pauses

    pauses = run_through_proxy(tmp_path, [REFUSE] * 16, scenario)
    # Backoff pauses were taken through the fake sleep, never for real.
    assert pauses == pytest.approx([0.01, 0.02, 0.02, 0.02])
