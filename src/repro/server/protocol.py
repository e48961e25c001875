"""Verbs, codes, and payload shapes of the network KV service.

What a request or response *means*; :mod:`repro.server.binproto` owns
how it travels. Every message is a dict with an ``op`` verb. The four
hot verbs carry raw ``bytes`` — in process and on the wire alike::

    PUT   {"op": "PUT", "key": bytes, "value": bytes}
    GET   {"op": "GET", "key": bytes}
    DEL   {"op": "DEL", "key": bytes}
    BATCH {"op": "BATCH", "ops": [(key, value), (key, None), ...]}

So does a shipped REPLICATE, whose ``span`` is write-ahead-log frames
(see :func:`replicate_request`). Every other verb is a JSON-safe object
(it rides the wire's JSON envelope), so binary fields inside *those*
payloads are base64 text::

    SCAN  {"op": "SCAN", "lo": b64|null, "hi": b64|null, "limit": int|null}
    STATS {"op": "STATS"}
    PING  {"op": "PING"}
    METRICS {"op": "METRICS"}
    EVENTS  {"op": "EVENTS", "since": int, "limit": int|null}
    REPLICATE probe / PROMOTE / FETCH_RANGE   (see the builders below)

``METRICS`` returns the server's structured metrics-registry snapshot
(:mod:`repro.obs`) — structured rather than pre-rendered text so a
cluster router can merge per-shard histograms bucket-by-bucket before
anything computes a percentile. ``EVENTS`` pages through the lifecycle
event ring with a ``since`` sequence-number cursor.

Responses carry ``{"ok": true, ...}`` on success (a GET's ``value`` is
raw ``bytes`` or ``None``) or ``{"ok": false, "code": ..., "error":
..., "retry_after": ...}`` on failure. The ``STALLED`` code is the
serving-layer face of the paper's write-stall taxonomy: the admission
controller rejected (stop mode) or timed out (gradual mode) a write,
and ``retry_after`` tells the client how long to back off before
retrying.
"""

from __future__ import annotations

import base64

from ..errors import ProtocolError

#: Every verb the service understands.
VERBS = frozenset(
    {"PUT", "GET", "DEL", "BATCH", "SCAN", "STATS", "PING",
     "METRICS", "EVENTS", "REPLICATE", "PROMOTE", "FETCH_RANGE"}
)

#: Error codes a response may carry.
CODE_STALLED = "STALLED"
CODE_BAD_REQUEST = "BAD_REQUEST"
CODE_CLOSED = "CLOSED"
CODE_INTERNAL = "INTERNAL"
#: A cluster shard is unavailable (its circuit breaker is open); the
#: ``retry_after`` hint carries the breaker's remaining cooldown.
CODE_SHARD_DOWN = "SHARD_DOWN"
#: A replication verb hit a server in the wrong role (REPLICATE sent to
#: a leader, client write sent to a follower).
CODE_NOT_LEADER = "NOT_LEADER"
#: A shipped span does not continue the follower's cursor (other
#: lineage, other LSN, or a reset chunk out of order); the shipper
#: probes for the cursor and resumes there or resets.
CODE_REPLICA_GAP = "REPLICA_GAP"
#: A replication frame carried an epoch older than the follower's — a
#: deposed leader is still shipping and must stop (fencing).
CODE_STALE_EPOCH = "STALE_EPOCH"
#: The read intersects a quarantined (corrupt) run and cannot be
#: answered soundly. Not retryable — the data stays unavailable until a
#: repair rebuilds the run. ``min_key``/``max_key`` (hex) bound the
#: affected range; keys outside it keep serving.
CODE_DATA_CORRUPT = "DATA_CORRUPT"


def b64encode(raw: bytes) -> str:
    """Binary-to-text encoding for bytes inside a JSON payload."""
    return base64.b64encode(raw).decode("ascii")


def b64decode(text: str) -> bytes:
    """Text-to-binary decoding; raises :class:`ProtocolError` on junk."""
    try:
        return base64.b64decode(text.encode("ascii"), validate=True)
    except (ValueError, AttributeError) as error:
        raise ProtocolError(f"invalid base64 field: {error}") from error


def encode_items(items) -> list[list[str]]:
    """``(key, value)`` pairs as the ``items`` field of a SCAN or
    FETCH_RANGE response."""
    return [[b64encode(key), b64encode(value)] for key, value in items]


def decode_items(response: dict) -> list[tuple[bytes, bytes]]:
    """The ``(key, value)`` pairs of a response's ``items`` field."""
    return [
        (b64decode(key), b64decode(value))
        for key, value in response.get("items", [])
    ]


# -- request builders ----------------------------------------------------


def put_request(key: bytes, value: bytes) -> dict:
    return {"op": "PUT", "key": key, "value": value}


def get_request(key: bytes) -> dict:
    return {"op": "GET", "key": key}


def delete_request(key: bytes) -> dict:
    return {"op": "DEL", "key": key}


def batch_request(ops: list[tuple[bytes, bytes | None]]) -> dict:
    return {"op": "BATCH", "ops": [tuple(op) for op in ops]}


def scan_request(
    lo: bytes | None = None,
    hi: bytes | None = None,
    limit: int | None = None,
) -> dict:
    return {
        "op": "SCAN",
        "lo": None if lo is None else b64encode(lo),
        "hi": None if hi is None else b64encode(hi),
        "limit": limit,
    }


def stats_request() -> dict:
    return {"op": "STATS"}


def ping_request() -> dict:
    return {"op": "PING"}


def metrics_request() -> dict:
    return {"op": "METRICS"}


def events_request(since: int = -1, limit: int | None = None) -> dict:
    return {"op": "EVENTS", "since": since, "limit": limit}


def replicate_request(
    epoch: int,
    lineage: int,
    start: int,
    span: bytes,
    reset: bool = False,
    first: bool = False,
    final: bool = False,
) -> dict:
    """One shipped span of the leader's log, or one chunk of a reset.

    ``span`` is whole write-ahead-log frames, byte for byte as
    ``WriteAheadLog.read_span`` returned them: they occupy ``[start,
    start + len(span))`` in the log of ``lineage``, and the follower
    acks by advancing its cursor to the end of that range. With
    ``reset`` the frames instead carry one chunk of a snapshot taken at
    LSN ``start`` — the same on every chunk — marked ``first`` and
    ``final`` at its ends; the follower stages the chunks and, at the
    final one, replaces its entire state with them and re-bases its
    cursor at ``(lineage, start)``. An empty span is legal: a snapshot
    of an empty store is one chunk, both first and final, of no frames.
    """
    return {
        "op": "REPLICATE",
        "epoch": epoch,
        "lineage": lineage,
        "start": start,
        "span": span,
        "reset": reset,
        "first": first,
        "final": final,
    }


def replicate_probe_request(epoch: int = -1) -> dict:
    """Status-only REPLICATE: reports the follower's cursor, ships nothing.

    Promotion scoring uses this to find the most-caught-up follower; an
    ``epoch`` of -1 means "observe only, do not fence".
    """
    return {"op": "REPLICATE", "epoch": epoch, "probe": True}


def promote_request(
    epoch: int, peers: list[tuple[str, int]] | None = None
) -> dict:
    """Tell a follower to become the shard leader at ``epoch``.

    ``peers`` lists the surviving followers' addresses; the new leader
    re-attaches them with a reset-snapshot resync so the replica group
    keeps its redundancy after a failover.
    """
    message = {"op": "PROMOTE", "epoch": epoch}
    if peers:
        message["peers"] = [[host, port] for host, port in peers]
    return message


def fetch_range_request(
    epoch: int, lo: bytes | None, hi: bytes | None
) -> dict:
    """Ask a follower for its live view of ``[lo, hi]`` (inclusive).

    The repair verb: a leader rebuilding a quarantined run fetches the
    run's key bounds from its most-caught-up follower. ``epoch`` fences
    the fetch — a follower that has adopted a newer epoch answers
    ``STALE_EPOCH``, so a deposed leader can never repair from (and then
    serve over) a group that moved on. The response carries the
    follower's ack cursor alongside the items, letting the leader verify
    the view is at least as fresh as its own WAL position at fetch time.
    """
    return {
        "op": "FETCH_RANGE",
        "epoch": epoch,
        "lo": None if lo is None else b64encode(lo),
        "hi": None if hi is None else b64encode(hi),
    }


def fetch_range_payload(
    message: dict,
) -> tuple[int, bytes | None, bytes | None]:
    """Decode a FETCH_RANGE request's epoch and inclusive bounds."""
    epoch = message.get("epoch", -1)
    if not isinstance(epoch, int) or isinstance(epoch, bool):
        raise ProtocolError("fetch_range epoch must be an integer")
    lo, hi = message.get("lo"), message.get("hi")
    return (
        epoch,
        None if lo is None else b64decode(lo),
        None if hi is None else b64decode(hi),
    )


def replicate_payload(message: dict) -> dict:
    """Validate a REPLICATE request into a plain dict.

    Returns ``{"epoch", "probe"}`` for probes, or ``{"epoch", "probe",
    "lineage", "start", "span", "reset", "first", "final"}`` for a
    shipped span (:func:`replicate_request`). The span's frames are not
    looked at here — the applier walks them, CRC first.
    """
    epoch = message.get("epoch", -1)
    if not isinstance(epoch, int) or isinstance(epoch, bool):
        raise ProtocolError("replicate epoch must be an integer")
    if message.get("probe"):
        return {"epoch": epoch, "probe": True}
    fields = {}
    for field in ("lineage", "start"):
        value = message.get(field)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ProtocolError(
                f"replicate {field} must be a non-negative integer"
            )
        fields[field] = value
    return {
        "epoch": epoch,
        "probe": False,
        "span": _raw(message.get("span"), "replicate span"),
        "reset": bool(message.get("reset", False)),
        "first": bool(message.get("first", False)),
        "final": bool(message.get("final", False)),
        **fields,
    }


def promote_payload(message: dict) -> tuple[int, list[tuple[str, int]]]:
    """Decode a PROMOTE request's epoch and surviving-peer list."""
    epoch = message.get("epoch")
    if not isinstance(epoch, int) or isinstance(epoch, bool) or epoch < 0:
        raise ProtocolError("promote epoch must be a non-negative integer")
    raw = message.get("peers", [])
    if not isinstance(raw, list):
        raise ProtocolError("promote peers must be a list")
    peers: list[tuple[str, int]] = []
    for entry in raw:
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not isinstance(entry[0], str)
            or not isinstance(entry[1], int)
            or isinstance(entry[1], bool)
        ):
            raise ProtocolError(f"malformed promote peer {entry!r}")
        peers.append((entry[0], entry[1]))
    return epoch, peers


def events_cursor(message: dict) -> tuple[int, int | None]:
    """Decode an EVENTS request's ``since`` cursor and ``limit``."""
    since, limit = message.get("since", -1), message.get("limit")
    if not isinstance(since, int) or isinstance(since, bool):
        raise ProtocolError("events cursor must be an integer")
    if limit is not None and (
        not isinstance(limit, int) or isinstance(limit, bool) or limit < 0
    ):
        raise ProtocolError("events limit must be a non-negative integer")
    return since, limit


# -- response builders ---------------------------------------------------


def ok_response(**fields) -> dict:
    response = {"ok": True}
    response.update(fields)
    return response


def error_response(
    code: str, message: str, retry_after: float | None = None
) -> dict:
    response = {"ok": False, "code": code, "error": message}
    if retry_after is not None:
        response["retry_after"] = retry_after
    return response


# -- server-side request accessors ---------------------------------------


def request_verb(message: dict) -> str:
    """Extract and validate the verb of an incoming request."""
    verb = message.get("op")
    if not isinstance(verb, str) or verb.upper() not in VERBS:
        raise ProtocolError(f"unknown op {verb!r}")
    return verb.upper()


def _raw(field, what: str) -> bytes:
    if not isinstance(field, (bytes, bytearray)):
        raise ProtocolError(f"{what} must be raw bytes, got {field!r}")
    return bytes(field)


def request_key(message: dict) -> bytes:
    """Extract the (required) raw-bytes key field of a hot-verb request."""
    return _raw(message.get("key"), "request key")


def request_value(message: dict) -> bytes:
    """Extract the (required) raw-bytes value field of a PUT request."""
    return _raw(message.get("value"), "request value")


def batch_ops(message: dict) -> list[tuple[bytes, bytes | None]]:
    """Validate a BATCH request's ``(key, value-or-None)`` operation list."""
    raw = message.get("ops")
    if not isinstance(raw, list) or not raw:
        raise ProtocolError("BATCH needs a non-empty ops list")
    ops: list[tuple[bytes, bytes | None]] = []
    for entry in raw:
        if not isinstance(entry, tuple) or len(entry) != 2:
            raise ProtocolError(f"malformed batch entry {entry!r}")
        key, value = entry
        ops.append(
            (
                _raw(key, "batch key"),
                None if value is None else _raw(value, "batch value"),
            )
        )
    return ops


def scan_bounds(
    message: dict,
) -> tuple[bytes | None, bytes | None, int | None]:
    """Decode a SCAN request's bounds and limit."""
    lo, hi, limit = message.get("lo"), message.get("hi"), message.get("limit")
    if limit is not None and (
        not isinstance(limit, int) or isinstance(limit, bool) or limit < 0
    ):
        raise ProtocolError("scan limit must be a non-negative integer")
    return (
        None if lo is None else b64decode(lo),
        None if hi is None else b64decode(hi),
        limit,
    )
