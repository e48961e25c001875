"""The wire of the network KV service: the one module that knows bytes.

A client opens a connection by sending one preamble byte
(:data:`MAGIC`) — a protocol-version check: a server closes any
connection that starts with anything else. After it, both directions
exchange *frames*: a 4-byte big-endian payload length, then the
payload::

    request  := opcode:u8 body
    response := status:u8 body

    OP_PUT   (0x01)  klen:u32 key vlen:u32 value
    OP_GET   (0x02)  klen:u32 key
    OP_DEL   (0x03)  klen:u32 key
    OP_BATCH (0x04)  count:u32 { kind:u8 klen:u32 key [vlen:u32 value] }*
    OP_REPLICATE (0x05)  epoch:u32 lineage:u64 start:u64 flags:u8 span
    OP_RANGE (0x06)  hlen:u32 head flags:u8 [lolen:u32 lo] [hilen:u32 hi]
    OP_JSON  (0x00)  utf-8 JSON object (any other request)

    ST_OK    (0x00)  empty           (PUT/DEL/BATCH success)
    ST_VALUE (0x01)  vlen:u32 value  (GET hit)
    ST_MISS  (0x02)  empty           (GET miss)
    ST_JSON  (0x03)  utf-8 JSON object (everything else, incl. errors)
    ST_ROWS  (0x04)  hlen:u32 head count:u32 { klen:u32 key vlen:u32 value }*

All integers are big-endian; a key, value or bound is never text. A
request with ``lo``/``hi`` bounds (SCAN, FETCH_RANGE) takes OP_RANGE, a
response with ``items`` rows ST_ROWS: a JSON ``head`` of every other
field, then the raw bytes (``flags``: ``0x01`` lo and ``0x02`` hi
follow, so an absent bound is not an empty one). Anything else rides
the JSON envelope whole. The codec picks a form by a message's shape,
never by its verb; :mod:`repro.server.protocol` describes the dicts.

``OP_REPLICATE`` is the leader-to-follower hop of every replicated
write, so it is a hot verb too: ``span`` — everything after the 21-byte
header — is write-ahead-log frames exactly as they lie in the leader's
log (``repro.engine.wal``: little-endian length and CRC, then the
operations), never re-encoded. ``start`` is the LSN of the span's first
byte in the log of ``lineage``; ``flags`` is ``0x01`` reset (the span is
one chunk of a snapshot and ``start`` the LSN the snapshot was taken
at), ``0x02`` first and ``0x04`` final chunk of a reset. This module
only frames the span; the follower checks its CRCs.
"""

from __future__ import annotations

import json
import struct
from asyncio import IncompleteReadError, StreamReader, StreamWriter

from ..errors import ConfigurationError, ProtocolError
from . import protocol

#: The preamble byte a client sends before its first frame.
MAGIC = 0xB1
MAGIC_BYTE = bytes([MAGIC])

#: Frames larger than this are rejected before allocation (DoS guard and
#: sanity check; a 16 MiB batch is far beyond any sane request here).
MAX_FRAME_BYTES = 16 * 2**20

_U8 = struct.Struct(">B")
_U32 = struct.Struct(">I")  # also every frame's length prefix
_REPLICATE = struct.Struct(">IQQB")  # epoch, lineage, start lsn, flags
#: What an OP_REPLICATE payload adds to the log span it carries.
REPLICATE_HEADER_BYTES = 1 + _REPLICATE.size

OP_JSON = 0x00
OP_PUT = 0x01
OP_GET = 0x02
OP_DEL = 0x03
OP_BATCH = 0x04
OP_REPLICATE = 0x05
OP_RANGE = 0x06

ST_OK = 0x00
ST_VALUE = 0x01
ST_MISS = 0x02
ST_JSON = 0x03
ST_ROWS = 0x04

_KIND_PUT = 1
_KIND_DEL = 2

#: Flag bits of OP_REPLICATE (the message's boolean fields) and of
#: OP_RANGE (which bounds follow the head).
_REPLICATE_FLAGS = (("reset", 0x01), ("first", 0x02), ("final", 0x04))
_RANGE_FLAGS = (("lo", 0x01), ("hi", 0x02))


def require_binary(wire: str) -> None:
    """Reject any ``wire=`` other than the one wire there is.

    ``KVClient``, ``KVServer`` and ``LocalCluster`` keep the keyword
    only because the frozen benchmark (``bench/``) passes
    ``wire="binary"`` to them; nothing selects on it.
    """
    if wire != "binary":
        raise ConfigurationError(
            f"unknown wire {wire!r}: the binary wire is the only one"
        )


def _sized(raw: bytes) -> tuple[bytes, bytes]:
    """A ``len:u32 bytes`` field, as the two parts to join."""
    return _U32.pack(len(raw)), raw


def _json(message: dict) -> bytes:
    return json.dumps(message, separators=(",", ":")).encode("utf-8")


def _head(message: dict, raw: tuple[str, ...]) -> tuple[bytes, bytes]:
    """The length-prefixed JSON head of OP_RANGE and ST_ROWS: every
    field of ``message`` but the ``raw`` ones."""
    return _sized(_json({f: v for f, v in message.items() if f not in raw}))


def _json_object(raw: bytes) -> dict:
    try:
        message = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise ProtocolError(f"JSON envelope is not JSON: {error}") from error
    if not isinstance(message, dict):
        raise ProtocolError("JSON envelope must be an object")
    return message


# -- requests ------------------------------------------------------------


def encode_request(message: dict) -> bytes:
    """Encode one request message into a frame payload.

    Hot verbs get the compact opcode forms — a REPLICATE counts when
    it carries a ``span`` of raw bytes; a message with ``lo`` and
    ``hi`` bounds, each raw bytes or ``None``, takes OP_RANGE; anything
    else (a REPLICATE probe among them) is wrapped as an OP_JSON
    envelope (the message must then be JSON-serializable, which
    protocol.py's request builders guarantee).
    """
    verb = message.get("op")
    if verb == "PUT":
        key = protocol.request_key(message)
        value = protocol.request_value(message)
        return b"".join((_U8.pack(OP_PUT), *_sized(key), *_sized(value)))
    if verb == "GET" or verb == "DEL":
        key = protocol.request_key(message)
        opcode = OP_GET if verb == "GET" else OP_DEL
        return _U8.pack(opcode) + _U32.pack(len(key)) + key
    if verb == "BATCH":
        ops = protocol.batch_ops(message)
        parts = [_U8.pack(OP_BATCH), _U32.pack(len(ops))]
        for key, value in ops:
            kind = _KIND_DEL if value is None else _KIND_PUT
            parts += (_U8.pack(kind), *_sized(key))
            if value is not None:
                parts += _sized(value)
        return b"".join(parts)
    if verb == "REPLICATE" and isinstance(
        message.get("span"), (bytes, bytearray)
    ):
        flags = sum(
            bit for field, bit in _REPLICATE_FLAGS if message.get(field)
        )
        try:
            header = _REPLICATE.pack(
                message.get("epoch"),
                message.get("lineage"),
                message.get("start"),
                flags,
            )
        except struct.error as error:
            raise ProtocolError(f"replicate header: {error}") from error
        return b"".join((_U8.pack(OP_REPLICATE), header, message["span"]))
    if "lo" in message and "hi" in message and all(
        message[field] is None
        or isinstance(message[field], (bytes, bytearray))
        for field, _ in _RANGE_FLAGS
    ):
        flags, bounds = 0, []
        for field, bit in _RANGE_FLAGS:
            if message[field] is not None:
                flags |= bit
                bounds += _sized(message[field])
        head = _head(message, ("lo", "hi"))
        return b"".join((_U8.pack(OP_RANGE), *head, _U8.pack(flags), *bounds))
    return _U8.pack(OP_JSON) + _json(message)


class _Cursor:
    """Bounds-checked sequential reads over one frame payload."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes, pos: int) -> None:
        self.data = data
        self.pos = pos

    def take(self, count: int) -> bytes:
        end = self.pos + count
        if end > len(self.data):
            raise ProtocolError("frame truncated mid-field")
        piece = self.data[self.pos : end]
        self.pos = end
        return piece

    def u32(self) -> int:
        return _U32.unpack(self.take(_U32.size))[0]

    def u8(self) -> int:
        return self.take(1)[0]

    def sized(self) -> bytes:
        """One ``len:u32 bytes`` field."""
        return self.take(self.u32())

    def done(self) -> None:
        if self.pos != len(self.data):
            raise ProtocolError(
                f"{len(self.data) - self.pos} trailing bytes after the "
                "frame body"
            )


def decode_request(payload: bytes) -> dict:
    """Decode one request payload into a message dict.

    Hot-verb messages carry raw ``bytes`` keys/values (and BATCH ops as
    ``(key, value-or-None)`` tuples), OP_RANGE bounds raw ``bytes`` or
    ``None``: exactly what protocol.py's request builders produce, so
    ``decode_request(encode_request(m)) == m``.
    """
    if not payload:
        raise ProtocolError("empty request")
    opcode = payload[0]
    if opcode == OP_JSON:
        return _json_object(payload[1:])
    cursor = _Cursor(payload, 1)
    if opcode == OP_PUT:
        message = {"op": "PUT", "key": cursor.sized(), "value": cursor.sized()}
    elif opcode in (OP_GET, OP_DEL):
        verb = "GET" if opcode == OP_GET else "DEL"
        message = {"op": verb, "key": cursor.sized()}
    elif opcode == OP_BATCH:
        ops: list[tuple[bytes, bytes | None]] = []
        for _ in range(cursor.u32()):
            kind = cursor.u8()
            key = cursor.sized()
            if kind == _KIND_PUT:
                ops.append((key, cursor.sized()))
            elif kind == _KIND_DEL:
                ops.append((key, None))
            else:
                raise ProtocolError(f"unknown batch op kind {kind}")
        message = {"op": "BATCH", "ops": ops}
    elif opcode == OP_REPLICATE:
        epoch, lineage, start, flags = _REPLICATE.unpack(
            cursor.take(_REPLICATE.size)
        )
        if flags > 0x07:  # a bit _REPLICATE_FLAGS does not name
            raise ProtocolError(f"unknown replicate flags {flags:#04x}")
        message = {
            "op": "REPLICATE",
            "epoch": epoch,
            "lineage": lineage,
            "start": start,
            "span": cursor.take(len(payload) - cursor.pos),
        }
        for field, bit in _REPLICATE_FLAGS:
            message[field] = bool(flags & bit)
    elif opcode == OP_RANGE:
        message = _json_object(cursor.sized())
        flags = cursor.u8()
        if flags > 0x03:  # a bit _RANGE_FLAGS does not name
            raise ProtocolError(f"unknown range flags {flags:#04x}")
        for field, bit in _RANGE_FLAGS:
            message[field] = cursor.sized() if flags & bit else None
    else:
        raise ProtocolError(f"unknown opcode {opcode:#04x}")
    cursor.done()
    return message


# -- responses -----------------------------------------------------------


def encode_response(response: dict) -> bytes:
    """Encode one response dict into a frame payload.

    A GET answer (``value`` raw bytes, or ``None`` for a miss) takes the
    compact forms; plain write acks collapse to ST_OK; ``items`` that
    are ``(key, value)`` tuples of raw bytes take ST_ROWS; every other
    shape — errors included — travels as an ST_JSON envelope so no
    field is ever dropped.
    """
    items = response.get("items")
    if isinstance(items, list) and all(
        type(row) is tuple and len(row) == 2 and type(row[0]) is bytes
        and type(row[1]) is bytes for row in items
    ):
        parts = [_U8.pack(ST_ROWS), *_head(response, ("items",))]
        parts.append(_U32.pack(len(items)))
        for key, value in items:
            parts += (_U32.pack(len(key)), key, _U32.pack(len(value)), value)
        return b"".join(parts)
    if response.get("ok") is True:
        if "value" in response:
            value = response["value"]
            if value is None:
                return _U8.pack(ST_MISS)
            if isinstance(value, (bytes, bytearray)):
                return (
                    _U8.pack(ST_VALUE)
                    + _U32.pack(len(value))
                    + bytes(value)
                )
        elif all(field == "ok" for field in response):
            return _U8.pack(ST_OK)
    return _U8.pack(ST_JSON) + _json(response)


def decode_response(payload: bytes) -> dict:
    """Decode one response payload into a client-facing dict."""
    if not payload:
        raise ProtocolError("empty response")
    status = payload[0]
    if status == ST_OK:
        return {"ok": True}
    if status == ST_MISS:
        return {"ok": True, "value": None}
    if status == ST_JSON:
        return _json_object(payload[1:])
    cursor = _Cursor(payload, 1)
    if status == ST_VALUE:
        response = {"ok": True, "value": cursor.sized()}
    elif status == ST_ROWS:
        response = _json_object(cursor.sized())
        count = cursor.u32()
        # Every row is at least two length prefixes: a count the payload
        # cannot hold is refused before the loop allocates anything.
        if count * 2 * _U32.size > len(payload) - cursor.pos:
            raise ProtocolError(f"{count} rows cannot fit the frame")
        response["items"] = [
            (cursor.sized(), cursor.sized()) for _ in range(count)
        ]
    else:
        raise ProtocolError(f"unknown response status {status:#04x}")
    cursor.done()
    return response


# -- framing -------------------------------------------------------------


def encode_frame(payload: bytes) -> bytes:
    """Length-prefix one payload."""
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return _U32.pack(len(payload)) + payload


async def read_frame(reader: StreamReader) -> bytes | None:
    """Read one length-prefixed payload; ``None`` on clean EOF."""
    try:
        header = await reader.readexactly(_U32.size)
    except IncompleteReadError as error:
        if not error.partial:
            return None
        raise ProtocolError("connection closed mid-frame") from error
    (length,) = _U32.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"declared payload of {length} bytes too large")
    try:
        return await reader.readexactly(length)
    except IncompleteReadError as error:
        raise ProtocolError("connection closed mid-frame") from error


async def write_request(writer: StreamWriter, message: dict) -> None:
    """Frame and send one request."""
    writer.write(encode_frame(encode_request(message)))
    await writer.drain()


async def write_response(writer: StreamWriter, response: dict) -> bool:
    """Frame and send one response. False: it was too large to frame (an
    unbounded SCAN over a large range), and a ``BAD_REQUEST`` saying to
    page went instead, so the connection stays in step."""
    try:
        frame, framed = encode_frame(encode_response(response)), True
    except ProtocolError as error:
        refusal = protocol.error_response(
            protocol.CODE_BAD_REQUEST,
            f"response {error}: page the range with limit and lo",
        )
        frame, framed = encode_frame(encode_response(refusal)), False
    writer.write(frame)
    await writer.drain()
    return framed
