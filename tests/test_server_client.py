"""Client retry/backoff/timeout behaviour against a scripted server.

The scripted server replays a fixed list of actions — respond, stay
silent, or drop the connection — so every retry path is driven
deterministically. Backoff pauses go through an injected fake sleep
(recorded, never awaited for real), so no test waits on wall-clock
backoff schedules.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.errors import (
    ConfigurationError,
    RequestFailedError,
    RetriesExhaustedError,
)
from repro.server import binproto, protocol
from repro.server.client import KVClient

#: Scripted actions: respond with a message, read on silently (the
#: client times out), or drop the connection without answering.
RESPOND, HANG, CLOSE = "respond", "hang", "close"


class ScriptedServer:
    """A TCP server that answers requests from a canned action list."""

    def __init__(self, script: list[tuple]) -> None:
        self.script = list(script)
        self.requests: list[dict] = []
        self._server: asyncio.AbstractServer | None = None
        self.address: tuple[str, int] | None = None

    async def __aenter__(self) -> "ScriptedServer":
        self._server = await asyncio.start_server(
            self._handle, "127.0.0.1", 0
        )
        self.address = self._server.sockets[0].getsockname()[:2]
        return self

    async def __aexit__(self, *exc_info) -> None:
        assert self._server is not None
        self._server.close()
        await self._server.wait_closed()

    async def _handle(self, reader, writer) -> None:
        try:
            assert await reader.readexactly(1) == binproto.MAGIC_BYTE
            while True:
                payload = await binproto.read_frame(reader)
                if payload is None:
                    break
                self.requests.append(binproto.decode_request(payload))
                action = self.script.pop(0) if self.script else (RESPOND, protocol.ok_response())
                if action[0] == RESPOND:
                    await binproto.write_response(writer, action[1])
                elif action[0] == HANG:
                    continue  # no response; the client must time out
                elif action[0] == CLOSE:
                    break  # drop the connection mid-request
        except Exception:  # noqa: BLE001 — scripted teardown is expected
            pass
        finally:
            writer.close()


def run_with_server(script, scenario, **client_options):
    """Run ``scenario(client, server, pauses)`` against a scripted server."""

    async def main():
        pauses: list[float] = []

        async def fake_sleep(delay: float) -> None:
            pauses.append(delay)

        async with ScriptedServer(script) as server:
            host, port = server.address
            client_options.setdefault("sleep", fake_sleep)
            async with KVClient(host, port, **client_options) as client:
                return await scenario(client, server, pauses)

    return asyncio.run(main())


# -- backoff schedule -----------------------------------------------------


def test_backoff_delay_doubles_up_to_the_cap():
    async def main():
        client = KVClient(
            "127.0.0.1",
            1,
            backoff_base=0.05,
            backoff_multiplier=2.0,
            backoff_max=0.3,
        )
        return [client.backoff_delay(attempt) for attempt in range(1, 6)]

    schedule = asyncio.run(main())
    assert schedule == pytest.approx([0.05, 0.1, 0.2, 0.3, 0.3])


def test_client_validates_configuration():
    for bad in (
        dict(wire="json"),
        dict(pool_size=0),
        dict(timeout=0),
        dict(max_retries=-1),
        dict(backoff_base=0),
        dict(backoff_multiplier=0.5),
    ):
        with pytest.raises(ConfigurationError):
            KVClient("127.0.0.1", 1, **bad)


# -- happy path -----------------------------------------------------------


def test_put_succeeds_without_retries():
    async def scenario(client, server, pauses):
        await client.put(b"k", b"v")
        return pauses

    pauses = run_with_server([(RESPOND, protocol.ok_response())], scenario)
    assert pauses == []


# -- STALLED retries ------------------------------------------------------


def test_stalled_responses_are_retried_with_backoff():
    stalled = protocol.error_response(
        protocol.CODE_STALLED, "busy", retry_after=0.0
    )
    script = [(RESPOND, stalled), (RESPOND, stalled), (RESPOND, protocol.ok_response())]

    async def scenario(client, server, pauses):
        await client.put(b"k", b"v")
        return client.telemetry, pauses, len(server.requests)

    metrics, pauses, request_count = run_with_server(
        script,
        scenario,
        backoff_base=0.05,
        backoff_multiplier=2.0,
        jitter=False,
    )
    assert request_count == 3
    assert metrics.retries_total == 2
    assert metrics.stalled_responses == 2
    assert pauses == pytest.approx([0.05, 0.1])  # pure backoff schedule


def test_jittered_pauses_stay_under_the_schedule_and_are_seeded():
    stalled = protocol.error_response(
        protocol.CODE_STALLED, "busy", retry_after=0.0
    )
    script = [(RESPOND, stalled)] * 3 + [(RESPOND, protocol.ok_response())]

    async def scenario(client, server, pauses):
        await client.put(b"k", b"v")
        return list(pauses)

    def run(seed):
        return run_with_server(
            list(script),
            scenario,
            backoff_base=0.05,
            backoff_multiplier=2.0,
            jitter_seed=seed,
        )

    first = run(seed=42)
    assert len(first) == 3
    schedule = [0.05, 0.1, 0.2]
    for pause, ceiling in zip(first, schedule):
        assert 0.0 <= pause <= ceiling  # full jitter: uniform(0, delay)
    assert first == run(seed=42)  # same seed, same pauses
    assert first != run(seed=43)  # different seed decorrelates


def test_server_retry_after_hint_overrides_shorter_backoff():
    stalled = protocol.error_response(
        protocol.CODE_STALLED, "busy", retry_after=0.4
    )
    script = [(RESPOND, stalled), (RESPOND, protocol.ok_response())]

    async def scenario(client, server, pauses):
        await client.put(b"k", b"v")
        return pauses

    pauses = run_with_server(script, scenario, backoff_base=0.05)
    assert pauses == pytest.approx([0.4])  # hint wins over 0.05 backoff


def test_retries_exhausted_after_persistent_stall():
    stalled = protocol.error_response(protocol.CODE_STALLED, "busy")
    script = [(RESPOND, stalled)] * 3

    async def scenario(client, server, pauses):
        await client.put(b"k", b"v")

    with pytest.raises(RetriesExhaustedError):
        run_with_server(script, scenario, max_retries=2)


# -- non-transient errors -------------------------------------------------


def test_non_stalled_error_raises_immediately_without_retry():
    bad = protocol.error_response(protocol.CODE_BAD_REQUEST, "malformed")
    script = [(RESPOND, bad)]

    async def scenario(client, server, pauses):
        try:
            await client.put(b"k", b"v")
        except RequestFailedError as error:
            return error, len(server.requests), pauses
        raise AssertionError("expected RequestFailedError")

    error, request_count, pauses = run_with_server(script, scenario)
    assert error.code == protocol.CODE_BAD_REQUEST
    assert request_count == 1  # no retry burned on a permanent failure
    assert pauses == []


# -- timeouts and connection drops ---------------------------------------


def test_timeout_is_retried_then_succeeds():
    script = [(HANG,), (RESPOND, protocol.ok_response())]

    async def scenario(client, server, pauses):
        await client.put(b"k", b"v")
        return client.telemetry

    metrics = run_with_server(script, scenario, timeout=0.1, max_retries=2)
    assert metrics.timeouts == 1
    assert metrics.retries_total == 1


def test_connection_drop_is_retried_on_a_fresh_connection():
    script = [(CLOSE,), (RESPOND, protocol.ok_response())]

    async def scenario(client, server, pauses):
        await client.put(b"k", b"v")
        return client.telemetry

    metrics = run_with_server(script, scenario, max_retries=2)
    assert metrics.reconnects == 1
    assert metrics.retries_total == 1


def test_all_timeouts_exhaust_the_retry_budget():
    script = [(HANG,), (HANG,)]

    async def scenario(client, server, pauses):
        await client.put(b"k", b"v")

    with pytest.raises(RetriesExhaustedError):
        run_with_server(script, scenario, timeout=0.1, max_retries=1)


def test_timeout_covers_the_send_against_a_peer_that_never_reads():
    # The peer accepts and then never reads: a multi-MiB value fills
    # both socket buffers and drain() blocks. The deadline has to cover
    # the send, or the call hangs forever instead of burning its budget.
    timeout, max_retries = 0.2, 1

    async def main():
        accepted = []
        release = asyncio.Event()

        async def never_read(reader, writer):
            accepted.append(writer)
            await release.wait()
            writer.close()

        server = await asyncio.start_server(never_read, "127.0.0.1", 0)
        host, port = server.sockets[0].getsockname()[:2]
        client = KVClient(
            host, port, pool_size=1, timeout=timeout,
            max_retries=max_retries, backoff_base=0.001, jitter=False,
        )
        started = time.monotonic()
        try:
            with pytest.raises(RetriesExhaustedError):
                await asyncio.wait_for(
                    client.put(b"k", b"v" * (8 * 2**20)), 10.0
                )
            elapsed = time.monotonic() - started
            await asyncio.wait_for(client.aclose(), 5.0)
        finally:
            release.set()
            server.close()
            await server.wait_closed()
        return client.telemetry, elapsed, len(accepted)

    telemetry, elapsed, connections = asyncio.run(main())
    assert telemetry.timeouts == max_retries + 1
    assert connections == max_retries + 1  # each expiry poisoned its connection
    assert elapsed < (max_retries + 1) * timeout + 2.0
