"""A frame-aware faulty TCP proxy for length-prefixed frames.

A test helper: ``tests/test_netsim.py`` drives the client's retry and
reconnect paths through it.

:class:`FaultyProxy` sits between a :class:`~repro.server.KVClient` and
a real server and misbehaves on a per-connection *script*: each accepted
connection consumes the next behavior from the script (then defaults to
``pass``), so a test states exactly which connection attempt refuses,
which one tears a response frame, and which one finally succeeds —
deterministic adversarial networking, no packet-level tooling required.

Behaviors (build with the module helpers):

* :data:`PASS` — forward both directions untouched;
* :data:`REFUSE` — accept and immediately close (connection refused,
  as the client experiences it);
* :func:`drop_after` — forward N response frames, then cut the
  connection (mid-conversation drop);
* :func:`delay_frames` — forward responses whole, each after a fixed
  delay (latency injection against client timeouts);
* :func:`partial_frame` — send only the first N bytes of the first
  response frame, then close (a torn frame: the client must treat the
  connection as poisoned, not retry parsing).

The proxy is frame-aware only on the server→client direction — that is
where tearing matters, because the client's framing layer is the thing
under test. The client→server direction is a dumb byte pump.
"""

from __future__ import annotations

import asyncio
import contextlib
import struct

_LENGTH = struct.Struct(">I")

PASS = ("pass",)
REFUSE = ("refuse",)


def drop_after(frames: int) -> tuple:
    """Forward ``frames`` response frames, then cut the connection."""
    return ("drop_after", frames)


def delay_frames(seconds: float) -> tuple:
    """Delay every response frame by ``seconds`` before forwarding."""
    return ("delay", seconds)


def partial_frame(nbytes: int) -> tuple:
    """Send ``nbytes`` of the first response frame, then close."""
    return ("partial", nbytes)


class FaultyProxy:
    """Scripted man-in-the-middle for one upstream (host, port)."""

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        script: list[tuple] | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        sleep=None,
    ) -> None:
        self._upstream = (upstream_host, upstream_port)
        self._script = list(script or [])
        self._host = host
        self._port = port
        self._sleep = sleep if sleep is not None else asyncio.sleep
        self._server: asyncio.AbstractServer | None = None
        self.connections_total = 0
        self.frames_forwarded = 0
        self.connections_cut = 0

    async def start(self) -> tuple[str, int]:
        """Bind and listen; returns the proxy's (host, port)."""
        self._server = await asyncio.start_server(
            self._handle, self._host, self._port
        )
        self._host, self._port = self._server.sockets[0].getsockname()[:2]
        return self._host, self._port

    @property
    def address(self) -> tuple[str, int]:
        """The proxy's bound (host, port); valid after :meth:`start`."""
        return self._host, self._port

    async def aclose(self) -> None:
        """Stop accepting and release the socket."""
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None

    async def __aenter__(self) -> "FaultyProxy":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    def _next_behavior(self) -> tuple:
        if self._script:
            return self._script.pop(0)
        return PASS

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections_total += 1
        behavior = self._next_behavior()
        if behavior[0] == "refuse":
            self.connections_cut += 1
            await _close(writer)
            return
        try:
            up_reader, up_writer = await asyncio.open_connection(
                *self._upstream
            )
        except OSError:
            self.connections_cut += 1
            await _close(writer)
            return
        upstream_pump = asyncio.ensure_future(
            _pump_bytes(reader, up_writer)
        )
        try:
            await self._pump_frames(up_reader, writer, behavior)
        finally:
            upstream_pump.cancel()
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await upstream_pump
            await _close(up_writer)
            await _close(writer)

    async def _pump_frames(
        self,
        up_reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        behavior: tuple,
    ) -> None:
        """server→client direction, with the scripted misbehavior."""
        kind = behavior[0]
        forwarded = 0
        while True:
            try:
                header = await up_reader.readexactly(_LENGTH.size)
                (length,) = _LENGTH.unpack(header)
                payload = await up_reader.readexactly(length)
            except (asyncio.IncompleteReadError, ConnectionError, OSError):
                return  # upstream went away
            frame = header + payload
            if kind == "partial":
                writer.write(frame[: behavior[1]])
                with contextlib.suppress(ConnectionError, OSError):
                    await writer.drain()
                self.connections_cut += 1
                return
            if kind == "delay":
                await self._sleep(behavior[1])
            try:
                writer.write(frame)
                await writer.drain()
            except (ConnectionError, OSError):
                return
            forwarded += 1
            self.frames_forwarded += 1
            if kind == "drop_after" and forwarded >= behavior[1]:
                self.connections_cut += 1
                return


async def _pump_bytes(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    """client→server direction: a plain byte pump."""
    try:
        while True:
            chunk = await reader.read(65536)
            if not chunk:
                return
            writer.write(chunk)
            await writer.drain()
    except (ConnectionError, OSError):
        return


async def _close(writer: asyncio.StreamWriter) -> None:
    writer.close()
    # Teardown may race loop shutdown: swallow cancellation too — the
    # transport is already closing either way.
    with contextlib.suppress(Exception, asyncio.CancelledError):
        await writer.wait_closed()
