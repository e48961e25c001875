"""Async client for the network KV service.

:class:`KVClient` keeps a small pool of TCP connections, applies a
per-request timeout, and retries transient failures — connection drops,
timeouts, and ``STALLED`` / ``SHARD_DOWN`` rejections — with *full
jitter* exponential backoff: each pause is drawn uniformly from
``[0, backoff_delay(attempt)]``, which de-synchronizes retry storms when
many clients (for example the cluster router's per-shard pools) bounce
off the same stalled backend together. When the server supplies a
``retry_after`` hint (the stop admission mode's RETRY_AFTER, or a
circuit breaker's cooldown), the hint is a floor under the jittered
pause. The sleep function and the jitter RNG seed are injectable, and
``jitter=False`` restores the deterministic schedule, so tests can
verify backoff without wall-clock waits.

Because the store is a last-writer-wins KV map, every verb here is
idempotent and therefore safe to retry blindly.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass

from ..errors import (
    ConfigurationError,
    ProtocolError,
    RequestFailedError,
    RetriesExhaustedError,
)
from . import binproto, protocol

#: Error codes worth retrying: both mean "try again shortly" — the
#: backend is stalled, or its shard's circuit breaker is cooling down.
_RETRYABLE_CODES = frozenset(
    {protocol.CODE_STALLED, protocol.CODE_SHARD_DOWN}
)


@dataclass
class ClientMetrics:
    """Cumulative client-side counters (retry visibility for loadgen).

    Exposed as :attr:`KVClient.telemetry` — the name ``metrics`` belongs
    to the :meth:`KVClient.metrics` passthrough verb, which fetches the
    *server's* metrics registry snapshot.
    """

    requests_total: int = 0
    retries_total: int = 0
    stalled_responses: int = 0
    shard_down_responses: int = 0
    timeouts: int = 0
    reconnects: int = 0
    backoff_seconds_total: float = 0.0


class _Connection:
    """One pooled TCP connection."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.broken = False

    async def exchange(self, message: dict) -> dict:
        """Send one request and read its response."""
        await binproto.write_request(self.writer, message)
        payload = await binproto.read_frame(self.reader)
        if payload is None:
            # Clean EOF mid-request: the connection is dead and must
            # not go back into the pool looking healthy.
            raise ProtocolError("server closed the connection mid-request")
        return binproto.decode_response(payload)

    async def close(self) -> None:
        if self.broken:
            # close() would first flush what a timed-out send left in
            # the buffer — forever, against a peer that stopped reading.
            self.writer.transport.abort()
        else:
            self.writer.close()
        try:
            await self.writer.wait_closed()
        except Exception:  # noqa: BLE001 — already tearing down
            pass


class KVClient:
    """Pooled, retrying async client for :class:`~repro.server.KVServer`."""

    def __init__(
        self,
        host: str,
        port: int,
        pool_size: int = 2,
        timeout: float = 5.0,
        max_retries: int = 4,
        backoff_base: float = 0.05,
        backoff_multiplier: float = 2.0,
        backoff_max: float = 1.0,
        sleep=None,
        jitter: bool = True,
        jitter_seed: int | None = None,
        wire: str = "binary",
    ) -> None:
        binproto.require_binary(wire)
        if pool_size < 1:
            raise ConfigurationError("pool needs at least one connection")
        if timeout <= 0:
            raise ConfigurationError("timeout must be positive")
        if max_retries < 0:
            raise ConfigurationError("max_retries cannot be negative")
        if backoff_base <= 0 or backoff_multiplier < 1 or backoff_max <= 0:
            raise ConfigurationError("invalid backoff schedule")
        self._host = host
        self._port = port
        self._pool_size = pool_size
        self._timeout = timeout
        self._max_retries = max_retries
        self._backoff_base = backoff_base
        self._backoff_multiplier = backoff_multiplier
        self._backoff_max = backoff_max
        self._sleep = sleep if sleep is not None else asyncio.sleep
        self._jitter = jitter
        self._jitter_rng = random.Random(jitter_seed)
        self._idle: asyncio.Queue[_Connection] = asyncio.Queue()
        self._open_count = 0
        self._closed = False
        self.telemetry = ClientMetrics()

    # -- lifecycle -------------------------------------------------------

    async def __aenter__(self) -> "KVClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    async def aclose(self) -> None:
        """Close every pooled connection."""
        self._closed = True
        while not self._idle.empty():
            connection = self._idle.get_nowait()
            self._open_count -= 1
            await connection.close()

    # -- pooling ---------------------------------------------------------

    async def _acquire(self) -> _Connection:
        if self._closed:
            raise ConfigurationError("client is closed")
        if not self._idle.empty():
            return self._idle.get_nowait()
        if self._open_count < self._pool_size:
            self._open_count += 1
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(self._host, self._port),
                    self._timeout,
                )
            except BaseException:
                self._open_count -= 1
                raise
            # The preamble rides ahead of the first frame (no extra
            # round trip).
            writer.write(binproto.MAGIC_BYTE)
            return _Connection(reader, writer)
        return await self._idle.get()

    async def _release(self, connection: _Connection) -> None:
        if connection.broken or self._closed:
            self._open_count -= 1
            await connection.close()
        else:
            self._idle.put_nowait(connection)

    # -- request machinery -----------------------------------------------

    def backoff_delay(self, attempt: int) -> float:
        """Backoff *cap* before retry number ``attempt`` (1-based).

        With jitter enabled the actual pause is drawn uniformly from
        ``[0, backoff_delay(attempt)]`` (AWS-style full jitter); with
        ``jitter=False`` the cap is the pause.
        """
        delay = self._backoff_base * (
            self._backoff_multiplier ** (attempt - 1)
        )
        return min(delay, self._backoff_max)

    def _pause_before(self, attempt: int, last_error) -> float:
        pause = self.backoff_delay(attempt)
        if self._jitter:
            pause = self._jitter_rng.uniform(0.0, pause)
        if isinstance(last_error, RequestFailedError):
            # A server hint is a floor, never shortened by jitter.
            pause = max(pause, last_error.retry_after)
        return pause

    async def _round_trip(self, message: dict) -> dict:
        connection = await self._acquire()
        try:
            # One deadline over send *and* receive: a peer that accepted
            # and stopped reading blocks drain(), not just the read.
            return await asyncio.wait_for(
                connection.exchange(message), self._timeout
            )
        except BaseException:
            connection.broken = True
            raise
        finally:
            await self._release(connection)

    async def request(self, message: dict) -> dict:
        """Send one request, retrying transient failures with backoff."""
        self.telemetry.requests_total += 1
        last_error: Exception | None = None
        for attempt in range(self._max_retries + 1):
            if attempt > 0:
                self.telemetry.retries_total += 1
                pause = self._pause_before(attempt, last_error)
                self.telemetry.backoff_seconds_total += pause
                await self._sleep(pause)
            try:
                response = await self._round_trip(message)
            except asyncio.TimeoutError as error:
                self.telemetry.timeouts += 1
                last_error = error
                continue
            except (ConnectionError, ProtocolError, OSError) as error:
                self.telemetry.reconnects += 1
                last_error = error
                continue
            if response.get("ok"):
                return response
            code = response.get("code", protocol.CODE_INTERNAL)
            failure = RequestFailedError(
                code,
                response.get("error", "request failed"),
                retry_after=float(response.get("retry_after", 0.0)),
            )
            if code not in _RETRYABLE_CODES:
                raise failure  # non-transient: surface immediately
            if code == protocol.CODE_STALLED:
                self.telemetry.stalled_responses += 1
            else:
                self.telemetry.shard_down_responses += 1
            last_error = failure
        raise RetriesExhaustedError(
            f"request failed after {self._max_retries + 1} attempts: "
            f"{last_error}",
            last_error=last_error,
        )

    # -- verbs -----------------------------------------------------------

    async def put(self, key: bytes, value: bytes) -> None:
        """Insert or update one key."""
        await self.request(protocol.put_request(key, value))

    async def get(self, key: bytes) -> bytes | None:
        """Point lookup; None when absent."""
        response = await self.request(protocol.get_request(key))
        return response.get("value")

    async def delete(self, key: bytes) -> None:
        """Delete one key."""
        await self.request(protocol.delete_request(key))

    async def batch(self, ops: list[tuple[bytes, bytes | None]]) -> int:
        """Atomically apply a list of (key, value-or-None) operations."""
        response = await self.request(protocol.batch_request(ops))
        return int(response.get("count", len(ops)))

    async def scan(
        self,
        lo: bytes | None = None,
        hi: bytes | None = None,
        limit: int | None = None,
    ) -> list[tuple[bytes, bytes]]:
        """Ordered range scan over ``[lo, hi)``."""
        response = await self.request(protocol.scan_request(lo, hi, limit))
        return response["items"]

    async def scan_detailed(
        self,
        lo: bytes | None = None,
        hi: bytes | None = None,
        limit: int | None = None,
    ) -> dict:
        """Range scan keeping the response metadata.

        Returns ``{"items": [(key, value), ...], "degraded": bool,
        "missing_shards": [int, ...], "replica_read": bool,
        "staleness_bytes": int}``. Against a single server the scan is
        never degraded; against a cluster router a dead shard yields a
        partial result with ``degraded=True`` and the shard(s) that did
        not answer. A router serving scans from followers
        (``read_from_replica``) sets ``replica_read=True`` and reports
        the worst follower lag it observed as ``staleness_bytes`` —
        unshipped leader-WAL bytes, a lower bound on how far behind the
        returned view may be.
        """
        response = await self.request(protocol.scan_request(lo, hi, limit))
        return {
            "items": response["items"],
            "degraded": bool(response.get("degraded", False)),
            "missing_shards": [
                int(shard) for shard in response.get("missing_shards", [])
            ],
            "replica_read": bool(response.get("replica_read", False)),
            "staleness_bytes": int(response.get("staleness_bytes", 0)),
            # Only a follower answering directly reports its cursor; a
            # router aggregate has no single cursor to report.
            "replica_epoch": response.get("replica_epoch"),
            "applied_offset": response.get("applied_offset"),
        }

    async def stats(self) -> dict:
        """Counters as the STATS verb returns them.

        A single server answers with ``engine`` + ``server`` sections; a
        cluster router answers with ``cluster`` + ``router``. Both pass
        through untouched, plus ``admission_mode``.
        """
        response = await self.request(protocol.stats_request())
        return {
            key: value for key, value in response.items() if key != "ok"
        }

    async def metrics(self) -> dict:
        """The server's structured metrics-registry snapshot.

        Against a single server this is one tier's registry; against a
        cluster router it is the rolled-up view with per-shard series
        labelled ``shard="N"`` and histograms merged bucket-by-bucket.
        Render locally with :func:`repro.obs.render_prometheus`.
        """
        response = await self.request(protocol.metrics_request())
        return dict(response.get("metrics", {}))

    async def events(
        self, since: int = -1, limit: int | None = None
    ) -> dict:
        """Lifecycle events with ``seq > since`` from the server's ring.

        Returns ``{"events": [event dict, ...], "dropped": int}``; feed
        the last event's ``seq`` back as ``since`` to tail incrementally.
        """
        response = await self.request(protocol.events_request(since, limit))
        return {
            "events": list(response.get("events", [])),
            "dropped": int(response.get("dropped", 0)),
        }

    async def ping(self) -> bool:
        """Liveness probe."""
        response = await self.request(protocol.ping_request())
        return bool(response.get("pong"))

    # -- replication verbs (shipper / promotion plumbing) ----------------

    @staticmethod
    def _replica_ack(response: dict) -> dict:
        lineage = response.get("lineage")
        return {
            "epoch": int(response.get("epoch", 0)),
            # None until the replica has followed (or led) some log.
            "lineage": None if lineage is None else int(lineage),
            "applied": int(response.get("applied", 0)),
            "role": str(response.get("role", "follower")),
            "quarantined": int(response.get("quarantined", 0)),
        }

    async def replicate(self, message: dict) -> dict:
        """Ship one REPLICATE span (see ``protocol.replicate_request``).

        Returns the follower's ack cursor ``{"epoch", "lineage",
        "applied", "role", "quarantined"}``. Gap/fencing rejections
        (``REPLICA_GAP``, ``STALE_EPOCH``) are not retryable and surface
        immediately as :class:`~repro.errors.RequestFailedError`.
        """
        return self._replica_ack(await self.request(message))

    async def replica_status(self, epoch: int = -1) -> dict:
        """Probe a replica's cursor without shipping anything."""
        return self._replica_ack(
            await self.request(protocol.replicate_probe_request(epoch))
        )

    async def promote(
        self, epoch: int, peers: list[tuple[str, int]] | None = None
    ) -> dict:
        """Promote a follower to shard leader at ``epoch``, handing it
        the surviving peers to re-attach as its own followers."""
        return self._replica_ack(
            await self.request(protocol.promote_request(epoch, peers))
        )

    async def fetch_range(
        self, epoch: int, lo: bytes | None, hi: bytes | None
    ) -> dict:
        """Fetch a follower's view of the *inclusive* key range [lo, hi].

        The repair path's verb: a leader with a quarantined run asks a
        follower for that run's key range so it can rebuild the file
        from replicated data. Returns ``{"items": [(key, value), ...]}``
        plus the follower's ack cursor (``epoch``/``lineage``/
        ``applied``) — the caller must check the cursor is at least as
        fresh as its own shipped position before trusting the snapshot.
        Fencing rejections (``STALE_EPOCH``) surface immediately.
        """
        response = await self.request(
            protocol.fetch_range_request(epoch, lo, hi)
        )
        ack = self._replica_ack(response)
        ack["items"] = response["items"]
        return ack
