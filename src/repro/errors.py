"""Exception hierarchy for the ``repro`` library.

Every error raised by this package derives from :class:`ReproError`, so
applications can catch a single base class. The sub-hierarchy mirrors the
package layout: configuration problems, simulation-model violations, and
storage-engine failures each get their own branch.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """A component was constructed with invalid or inconsistent parameters."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class SchedulerError(ReproError):
    """A merge scheduler was driven through an illegal transition."""


class PolicyError(ReproError):
    """A merge policy produced or received an invalid merge description."""


class StorageError(ReproError):
    """Base class for failures in the real storage engine (``repro.engine``)."""


class CorruptionError(StorageError):
    """On-disk data failed a checksum or structural validation check."""


class DataCorruptError(StorageError):
    """A read could not be answered soundly: a required run is corrupt.

    Raised by :meth:`~repro.engine.datastore.LSMStore.get`/``scan`` when
    the requested key (or range) intersects a quarantined run — serving
    the read by skipping the run could silently return a stale or
    missing value, so the store fails fast instead. ``min_key``/
    ``max_key`` bound the affected key range; keys provably outside it
    keep serving normally. Surfaced on the wire as ``DATA_CORRUPT``.
    """

    def __init__(
        self,
        message: str,
        run_id: int = -1,
        min_key: bytes = b"",
        max_key: bytes = b"",
    ) -> None:
        super().__init__(message)
        self.run_id = run_id
        self.min_key = min_key
        self.max_key = max_key


class WalFailedError(StorageError):
    """The write-ahead log failed closed after an unrecoverable error.

    Raised on any append once a failed write could not be rolled back:
    the in-memory cursor and the physical file may disagree, so handing
    out further ``(offset, length)`` spans would poison replication
    cursors and ``wal_position()``. Recovery requires reopening the
    store (which replays the intact prefix).
    """


class ClosedError(StorageError):
    """An operation was attempted on a closed datastore or iterator."""


class FaultInjectedError(StorageError):
    """A deterministic fault-injection rule fired (``repro.faults``).

    Raised by :class:`~repro.faults.FaultyFile` at the injected I/O
    site. To the engine this looks like a real device failure: the
    operation in flight must be treated as unacknowledged, and the
    on-disk state at that instant is exactly the crash image the
    crash-recovery harness recovers from.
    """


class ServerError(ReproError):
    """Base class for failures in the network layer (``repro.server``)."""


class ProtocolError(ServerError):
    """A malformed frame or message was sent or received."""


class RequestFailedError(ServerError):
    """The server answered a request with an error response.

    ``code`` carries the protocol error code (for example ``"STALLED"``
    or ``"BAD_REQUEST"``); ``retry_after`` is the server's backoff hint
    in seconds when the failure is transient, else 0.
    """

    def __init__(self, code: str, message: str, retry_after: float = 0.0) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.retry_after = retry_after


class ShardDownError(ServerError):
    """A cluster shard is unavailable and its circuit breaker is open.

    Raised inside the router when a request targets a shard whose
    breaker refuses traffic; surfaced on the wire as a ``SHARD_DOWN``
    error response. ``retry_after`` is the breaker's remaining cooldown.
    """

    def __init__(
        self, shard: int, message: str, retry_after: float = 0.0
    ) -> None:
        super().__init__(f"shard {shard}: {message}")
        self.shard = shard
        self.retry_after = retry_after


class ReplicationError(ServerError):
    """Base class for failures in WAL shipping (``repro.replication``)."""


class ReplicaGapError(ReplicationError):
    """A shipped span does not continue the follower's applied cursor.

    ``expected`` is the ``(lineage, lsn)`` the follower can accept next
    (lineage None when it follows nobody yet); the shipper asks for it
    with a status probe and resumes there, or falls back to a reset
    snapshot when its log does not hold that position.
    """

    def __init__(
        self, message: str, expected: tuple[int | None, int] = (None, 0)
    ) -> None:
        super().__init__(message)
        self.expected = expected


class StaleEpochError(ReplicationError):
    """A replication frame carried an epoch older than the replica's.

    The sender is a deposed leader and must stop shipping — the epoch
    check is the fencing that prevents split-brain after a promotion.
    """


class RetriesExhaustedError(ServerError):
    """A client request failed every attempt in its retry budget.

    ``last_error`` preserves the final attempt's failure so callers can
    distinguish a transport-dead backend (connection refused, timeout)
    from a live-but-stalled one (a ``STALLED`` error response) — the
    cluster router's circuit breakers key off exactly that distinction.
    """

    def __init__(
        self, message: str, last_error: Exception | None = None
    ) -> None:
        super().__init__(message)
        self.last_error = last_error
