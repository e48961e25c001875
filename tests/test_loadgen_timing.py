"""Coordinated-omission audit for the open-loop load generator.

An open-loop run must charge each operation its *scheduled* arrival
time, not the instant the client finally managed to send it. Against a
server that blocks one request, every op queued behind it accrues the
queueing delay in its measured latency — if the generator measured from
the send instant instead, the stall would erase its own evidence from
the latency tail (coordinated omission).
"""

import asyncio

from repro.server import binproto, protocol
from repro.server.loadgen import open_loop


class SlowFirstPutServer:
    """Framed-protocol stub: the first PUT blocks, the rest are instant."""

    def __init__(self, first_put_delay: float) -> None:
        self._first_put_delay = first_put_delay
        self._delayed = False
        self._server: asyncio.AbstractServer | None = None
        self.address: tuple[str, int] | None = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, "127.0.0.1", 0
        )
        self.address = self._server.sockets[0].getsockname()[:2]

    async def aclose(self) -> None:
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
                message = binproto.decode_request(payload)
                if message.get("op") == "PUT" and not self._delayed:
                    self._delayed = True
                    await asyncio.sleep(self._first_put_delay)
                await binproto.write_response(
                    writer, protocol.ok_response()
                )
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()


def test_open_loop_latency_counts_queueing_behind_a_stall():
    delay = 0.3

    async def scenario():
        server = SlowFirstPutServer(first_put_delay=delay)
        await server.start()
        try:
            host, port = server.address
            # One connection and arrivals every 10 ms: ops 1..N are all
            # scheduled while op 0 still owns the only connection, so
            # their true (open-system) latency includes that wait.
            return await open_loop(
                host,
                port,
                rate_ops_per_s=100.0,
                total_ops=10,
                value_bytes=16,
                client_options={"pool_size": 1, "jitter": False},
            )
        finally:
            await server.aclose()

    result = asyncio.run(scenario())
    assert result.op_count == 10
    assert result.error_count == 0
    # Op 0 ate the injected delay directly.
    assert result.max_latency >= delay * 0.9
    # The ops queued behind it must carry the queueing time too: with
    # coordinated omission (measuring from the send instant) all but
    # the first latency would be sub-millisecond and the sorted second-
    # largest sample would collapse to ~0.
    second_largest = sorted(result.latencies)[-2]
    assert second_largest >= delay * 0.4, (
        "queued ops lost their queueing delay — coordinated omission"
    )


def test_open_loop_unobstructed_latencies_stay_small():
    async def scenario():
        server = SlowFirstPutServer(first_put_delay=0.0)
        await server.start()
        try:
            host, port = server.address
            return await open_loop(
                host,
                port,
                rate_ops_per_s=200.0,
                total_ops=20,
                value_bytes=16,
                client_options={"pool_size": 4, "jitter": False},
            )
        finally:
            await server.aclose()

    result = asyncio.run(scenario())
    assert result.op_count == 20
    # Sanity for the test above: without an induced stall the scheduled
    # anchor and the send instant coincide, so latencies are small.
    assert result.write_latency_profile((50.0,))[50.0] < 0.1
