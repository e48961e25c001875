"""Verbs, codes, and payload shapes of the network KV service.

What a request or response *means*; :mod:`repro.server.binproto` owns
how it travels. Every message is a dict with an ``op`` verb. Every
user key, value and bound is raw ``bytes`` — in process and on the wire
alike::

    PUT   {"op": "PUT", "key": bytes, "value": bytes}
    GET   {"op": "GET", "key": bytes}
    DEL   {"op": "DEL", "key": bytes}
    BATCH {"op": "BATCH", "ops": [(key, value), (key, None), ...]}
    SCAN  {"op": "SCAN", "lo": bytes|None, "hi": bytes|None, "limit": int|None}

So does a shipped REPLICATE, whose ``span`` is write-ahead-log frames
(see :func:`replicate_request`) and FETCH_RANGE's bounds. Every other
field of every message is JSON-safe::

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
raw ``bytes`` or ``None``; a SCAN's or FETCH_RANGE's ``items`` is a
list of ``(key, value)`` tuples of raw ``bytes``) or ``{"ok": false,
"code": ..., "error": ..., "retry_after": ...}`` on failure. The
``STALLED`` code is the serving-layer face of the paper's write-stall
taxonomy: the admission controller rejected (stop mode) or timed out
(gradual mode) a write, and ``retry_after`` tells the client how long
to back off before retrying.
"""

from __future__ import annotations

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
    return {"op": "SCAN", "lo": lo, "hi": hi, "limit": limit}


def stats_request() -> dict:
    return {"op": "STATS"}


def ping_request() -> dict:
    return {"op": "PING"}


def metrics_request() -> dict:
    return {"op": "METRICS"}


def events_request(since: int = -1, limit: int | None = None) -> dict:
    return {"op": "EVENTS", "since": since, "limit": limit}


def replicate_request(
    epoch: int, lineage: int, start: int, span: bytes
) -> dict:
    """One shipped span of the leader's log.

    ``span`` is whole write-ahead-log frames, byte for byte as
    ``WriteAheadLog.read_span`` returned them: they occupy ``[start,
    start + len(span))`` in the log of ``lineage``, and the follower
    acks by advancing its cursor to the end of that range.
    """
    return {
        "op": "REPLICATE",
        "epoch": epoch,
        "lineage": lineage,
        "start": start,
        "span": span,
        "reset": False,
        "first": False,
        "final": False,
    }


def reset_chunk_request(
    epoch, lineage, start, span, *, layout, file, offset, first, final
) -> dict:
    """One chunk of a reset: ``span`` is the bytes at ``offset`` of file
    ``file`` of an image of the leader's runs at LSN ``start``, whose
    ``layout`` is ``(level, file sizes)`` per run, oldest first. The
    chunks cover the files in order, ``first`` to ``final``; an image of
    no files is one empty chunk."""
    return dict(
        replicate_request(epoch, lineage, start, span),
        reset=True,
        first=first,
        final=final,
        layout=[[level, list(sizes)] for level, sizes in layout],
        file=file,
        offset=offset,
    )


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
    re-attaches them with a reset so the replica group
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
    A ``None`` bound leaves that side of the range open.
    """
    return {"op": "FETCH_RANGE", "epoch": epoch, "lo": lo, "hi": hi}


def request_epoch(message: dict) -> int:
    """A replication request's fencing ``epoch`` (-1, observe only, when
    absent)."""
    verb = str(message.get("op")).lower()
    return _integer(message.get("epoch", -1), f"{verb} epoch")


def replicate_payload(message: dict) -> dict:
    """Validate a REPLICATE request into a plain dict.

    Returns ``{"epoch", "probe"}`` for probes, or ``{"epoch", "probe",
    "lineage", "start", "span", "reset", "first", "final"}`` for a
    shipped span (:func:`replicate_request`), plus ``"layout", "file",
    "offset"`` for a reset chunk (:func:`reset_chunk_request`), whose
    bytes must lie inside the file the layout declares. The span's
    frames are not looked at here — the applier walks them, CRC first.
    """
    epoch = request_epoch(message)
    if message.get("probe"):
        return {"epoch": epoch, "probe": True}
    fields = {
        field: _integer(message.get(field), f"replicate {field}", True)
        for field in ("lineage", "start")
    }
    payload = {
        "epoch": epoch,
        "probe": False,
        "span": _raw(message.get("span"), "replicate span"),
        "reset": bool(message.get("reset", False)),
        "first": bool(message.get("first", False)),
        "final": bool(message.get("final", False)),
        **fields,
    }
    if payload["reset"]:
        payload.update(_image_chunk(message, len(payload["span"])))
    return payload


def _image_chunk(message: dict, length: int) -> dict:
    """A reset chunk's ``layout``, ``file`` and ``offset``: whole numbers,
    a file or more per run, and ``length`` bytes inside file ``file``
    (or none at offset 0 past the last file)."""
    try:
        layout = tuple(
            (level, tuple(files)) for level, files in message.get("layout")
        )
    except (TypeError, ValueError) as error:
        raise ProtocolError(f"malformed reset layout: {error}") from error
    for level, files in layout:
        for number in (level, *files):
            _integer(number, "reset run level or file size", True)
    file = _integer(message.get("file"), "reset file", True)
    offset = _integer(message.get("offset"), "reset offset", True)
    sizes = [size for _level, files in layout for size in files] + [0]
    if not all(files for _level, files in layout) or not (
        file < len(sizes) and offset + length <= sizes[file]
    ):
        raise ProtocolError(
            f"a reset chunk of {length} bytes at offset {offset} of file "
            f"{file} lies outside its image"
        )
    return {"layout": layout, "file": file, "offset": offset}


def promote_payload(message: dict) -> tuple[int, list[tuple[str, int]]]:
    """Decode a PROMOTE request's epoch and surviving-peer list."""
    epoch = _integer(message.get("epoch"), "promote epoch", True)
    raw = message.get("peers", [])
    if not isinstance(raw, list):
        raise ProtocolError("promote peers must be a list")
    peers: list[tuple[str, int]] = []
    for entry in raw:
        pair = isinstance(entry, list) and len(entry) == 2
        if not pair or not isinstance(entry[0], str):
            raise ProtocolError(f"malformed promote peer {entry!r}")
        peers.append((entry[0], _integer(entry[1], "promote peer port")))
    return epoch, peers


def events_cursor(message: dict) -> tuple[int, int | None]:
    """Decode an EVENTS request's ``since`` cursor and ``limit``."""
    since = _integer(message.get("since", -1), "events cursor")
    limit = message.get("limit")
    if limit is not None:
        _integer(limit, "events limit", True)
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


def _integer(value, what: str, non_negative: bool = False) -> int:
    """A JSON integer field; a boolean (JSON ``true`` is 1) is not one."""
    if (
        not isinstance(value, int)
        or isinstance(value, bool)
        or (non_negative and value < 0)
    ):
        kind = "a non-negative integer" if non_negative else "an integer"
        raise ProtocolError(f"{what} must be {kind}")
    return value


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
        value = None if value is None else _raw(value, "batch value")
        ops.append((_raw(key, "batch key"), value))
    return ops


def scan_bounds(
    message: dict,
) -> tuple[bytes | None, bytes | None, int | None]:
    """The raw ``lo``/``hi`` bounds (``None``: unbounded) and ``limit`` of
    a SCAN or FETCH_RANGE request."""
    lo, hi, limit = message.get("lo"), message.get("hi"), message.get("limit")
    if limit is not None:
        _integer(limit, "scan limit", True)
    return (
        None if lo is None else _raw(lo, "range bound"),
        None if hi is None else _raw(hi, "range bound"),
        limit,
    )
