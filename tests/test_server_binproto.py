"""Wire tests: golden frames, codec properties, framing, and serving."""

from __future__ import annotations

import asyncio
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import LocalCluster
from repro.engine import LSMStore, StoreOptions, WriteAheadLog
from repro.errors import ConfigurationError, ProtocolError, RequestFailedError
from repro.server import binproto, protocol
from repro.server.client import KVClient
from repro.server.service import KVServer

# -- golden frames --------------------------------------------------------


def _json(text: str) -> str:
    return text.encode("utf-8").hex()


#: Frames captured from the commit before the JSON wire was retired
#: (``encode_frame(encode_request(...))`` there): the hot verbs must
#: stay byte-identical, and bench/'s ``server.binproto.bytes_per_put``
#: is read off the PUT and ST_OK frames. The SCAN frame was re-captured
#: when SCAN left the JSON envelope (whose bounds were base64 text) for
#: OP_RANGE: a JSON head, then the flags and the raw bounds.
GOLDEN_REQUESTS = [
    (
        {"op": "PUT", "key": b"\x00k", "value": b"\xffval"},
        "0000000f0100000002006b00000004ff76616c",
    ),
    ({"op": "GET", "key": b"key"}, "0000000802000000036b6579"),
    ({"op": "DEL", "key": b""}, "000000050300000000"),
    (
        {"op": "BATCH", "ops": [(b"a", b"1"), (b"b", None), (b"", b"")]},
        "0000001f0400000003010000000161000000013102000000016201"
        "0000000000000000",
    ),
    ({"op": "PING"}, "0000000e007b226f70223a2250494e47227d"),
    (
        protocol.scan_request(b"a", None, 3),
        "00000022" "06" "00000017" + _json('{"op":"SCAN","limit":3}')
        + "01" "00000001" "61",
    ),
]

#: OP_RANGE, captured when it was introduced: an absent bound and an
#: empty one differ only in the flags, and FETCH_RANGE's epoch rides
#: the head.
GOLDEN_RANGES = [
    (
        protocol.scan_request(None, b"", None),
        "00000024" "06" "0000001a" + _json('{"op":"SCAN","limit":null}')
        + "02" "00000000",
    ),
    (
        protocol.fetch_range_request(2, b"\x00k", b"\xff"),
        "0000002f" "06" "0000001e"
        + _json('{"op":"FETCH_RANGE","epoch":2}')
        + "03" "00000002" "006b" "00000001" "ff",
    ),
]

#: ST_ROWS, captured when it was introduced: the JSON head, the count,
#: then each row's length-prefixed key and value.
GOLDEN_ROWS = [
    (
        protocol.ok_response(items=[(b"a", b"1"), (b"", b"")], degraded=False),
        "00000037" "04" "0000001c" + _json('{"ok":true,"degraded":false}')
        + "00000002" "00000001" "61" "00000001" "31"
        "00000000" "00000000",
    ),
    (
        protocol.ok_response(items=[]),
        "00000014" "04" "0000000b" + _json('{"ok":true}') + "00000000",
    ),
]

GOLDEN_RESPONSES = [
    ({"ok": True}, "0000000100"),
    ({"ok": True, "value": b"\x00v"}, "0000000701000000020076"),
    ({"ok": True, "value": None}, "0000000102"),
    (
        {"ok": True, "count": 3},
        "00000016037b226f6b223a747275652c22636f756e74223a337d",
    ),
    (
        protocol.error_response(protocol.CODE_STALLED, "busy", 0.25),
        "00000040037b226f6b223a66616c73652c22636f6465223a225354414c4c4544"
        "222c226572726f72223a2262757379222c2272657472795f6166746572223a30"
        "2e32357d",
    ),
]


#: One write-ahead-log frame — little-endian length and CRC, then a put
#: and a delete — exactly as ``WriteAheadLog.encode_frame`` lays it out
#: (``tests/engine/test_wal.py`` pins that format on its own).
_WAL_FRAME = (
    "1c0000000ad4bbcf"
    "010200000004000000006bff76616c"
    "020400000000000000676f6e65"
)
_LINEAGE = 0x0123456789ABCD

#: OP_REPLICATE: opcode, epoch:u32, lineage:u64, start:u64, flags:u8,
#: then the span untouched. A log span. A reset chunk puts a sized JSON
#: head — which file of its image, at which offset, and the image's
#: layout — before its span of run-file bytes: the first chunk of a
#: reset; an empty store's whole reset (first and final, no files); a
#: final chunk.
_FILE_BYTES = bytes(range(16))
GOLDEN_REPLICATE = [
    (
        protocol.replicate_request(
            3, _LINEAGE, 4096, bytes.fromhex(_WAL_FRAME)
        ),
        "0000003a" "05" "00000003" "000123456789abcd" "0000000000001000"
        "00" + _WAL_FRAME,
    ),
    (
        protocol.reset_chunk_request(
            3, _LINEAGE, 8192, _FILE_BYTES, layout=[(0, [40])],
            file=0, offset=0, first=True, final=False,
        ),
        "00000053" "05" "00000003" "000123456789abcd" "0000000000002000"
        "03" "00000029" + _json('{"file":0,"offset":0,"layout":[[0,[40]]]}')
        + _FILE_BYTES.hex(),
    ),
    (
        protocol.reset_chunk_request(
            3, _LINEAGE, 8192, b"", layout=[],
            file=0, offset=0, first=True, final=True,
        ),
        "0000003b" "05" "00000003" "000123456789abcd" "0000000000002000"
        "07" "00000021" + _json('{"file":0,"offset":0,"layout":[]}'),
    ),
    (
        protocol.reset_chunk_request(
            3, _LINEAGE, 8192, _FILE_BYTES, layout=[(2, [40]), (0, [8, 32])],
            file=2, offset=16, first=False, final=True,
        ),
        "0000005f" "05" "00000003" "000123456789abcd" "0000000000002000"
        "05" "00000035"
        + _json('{"file":2,"offset":16,"layout":[[2,[40]],[0,[8,32]]]}')
        + _FILE_BYTES.hex(),
    ),
]


@pytest.mark.parametrize(("message", "frame"), GOLDEN_REPLICATE)
def test_replicate_frames_are_byte_identical(message, frame):
    encoded = binproto.encode_frame(binproto.encode_request(message))
    assert encoded.hex() == frame
    assert binproto.decode_request(encoded[4:]) == message
    payload = protocol.replicate_payload(message)
    if message["reset"]:
        assert payload["span"] == message["span"]
    else:
        assert WriteAheadLog.decode_span(payload["span"]) == [
            [(b"\x00k", b"\xffval"), (b"gone", None)]
        ]


@pytest.mark.parametrize(("message", "frame"), GOLDEN_REQUESTS)
def test_request_frames_are_byte_identical(message, frame):
    encoded = binproto.encode_frame(binproto.encode_request(message))
    assert encoded.hex() == frame
    assert binproto.decode_request(encoded[4:]) == message


@pytest.mark.parametrize(("message", "frame"), GOLDEN_RANGES)
def test_range_frames_are_byte_identical(message, frame):
    encoded = binproto.encode_frame(binproto.encode_request(message))
    assert encoded.hex() == frame
    assert binproto.decode_request(encoded[4:]) == message


@pytest.mark.parametrize(("response", "frame"), GOLDEN_ROWS)
def test_row_frames_are_byte_identical(response, frame):
    encoded = binproto.encode_frame(binproto.encode_response(response))
    assert encoded.hex() == frame
    assert binproto.decode_response(encoded[4:]) == response


@pytest.mark.parametrize(("response", "frame"), GOLDEN_RESPONSES)
def test_response_frames_are_byte_identical(response, frame):
    encoded = binproto.encode_frame(binproto.encode_response(response))
    assert encoded.hex() == frame
    assert binproto.decode_response(encoded[4:]) == response


def test_builders_produce_the_shape_the_codec_carries():
    for message in (
        protocol.put_request(b"k", b"v"),
        protocol.get_request(b"k"),
        protocol.delete_request(b"k"),
        protocol.batch_request([(b"a", b"1"), [b"b", None]]),
        protocol.scan_request(b"a", b"b", 5),
        protocol.fetch_range_request(1, None, b"z"),
    ):
        decoded = binproto.decode_request(binproto.encode_request(message))
        assert decoded == message


# -- codec properties -----------------------------------------------------

_blob = st.binary(max_size=48)
_json_leaf = (
    st.none()
    | st.booleans()
    | st.integers(-(2**53), 2**53)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=12)
)
_json_value = st.recursive(
    _json_leaf,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)
_envelope = st.dictionaries(st.text(max_size=8), _json_value, max_size=5)
_hot_request = st.one_of(
    st.builds(protocol.put_request, _blob, _blob),
    st.builds(protocol.get_request, _blob),
    st.builds(protocol.delete_request, _blob),
    st.builds(
        protocol.batch_request,
        st.lists(st.tuples(_blob, st.none() | _blob), min_size=1, max_size=6),
    ),
)
_slow_verbs = sorted(protocol.VERBS - {"PUT", "GET", "DEL", "BATCH"})
_slow_request = st.builds(
    lambda verb, fields: {**fields, "op": verb},
    st.sampled_from(_slow_verbs),
    _envelope,
)
_response = st.one_of(
    st.just({"ok": True}),
    st.builds(lambda value: {"ok": True, "value": value}, st.none() | _blob),
    # Anything else — extra fields, errors — rides the envelope whole.
    st.builds(lambda fields: {**fields, "ok": False}, _envelope),
    st.builds(
        lambda fields: {"ok": True, "count": 1, **fields, "value": "text"},
        _envelope,
    ),
)


def _assert_every_strict_prefix_is_a_protocol_error(decode, payload):
    for cut in range(len(payload)):
        with pytest.raises(ProtocolError):
            decode(payload[:cut])


@settings(max_examples=150, deadline=None)
@given(_hot_request | _slow_request)
def test_request_codec_round_trips_and_rejects_every_truncation(message):
    payload = binproto.encode_request(message)
    assert binproto.decode_request(payload) == message
    _assert_every_strict_prefix_is_a_protocol_error(
        binproto.decode_request, payload
    )


@settings(max_examples=150, deadline=None)
@given(_response)
def test_response_codec_round_trips_and_rejects_every_truncation(response):
    payload = binproto.encode_response(response)
    assert binproto.decode_response(payload) == response
    _assert_every_strict_prefix_is_a_protocol_error(
        binproto.decode_response, payload
    )


_bound = st.none() | _blob
_range_request = st.one_of(
    st.builds(
        protocol.scan_request,
        _bound,
        _bound,
        st.none() | st.integers(0, 2**31),
    ),
    st.builds(
        protocol.fetch_range_request, st.integers(-1, 2**31), _bound, _bound
    ),
)
_rows_response = st.builds(
    lambda items, fields: {**fields, "ok": True, "items": items},
    st.lists(st.tuples(_blob, _blob), max_size=6),
    _envelope,
)


@settings(max_examples=150, deadline=None)
@given(_range_request)
def test_range_form_round_trips_and_rejects_every_truncation(message):
    payload = binproto.encode_request(message)
    assert payload[0] == binproto.OP_RANGE
    decoded = binproto.decode_request(payload)
    assert decoded == message
    # An absent bound and an empty one stay apart.
    for field in ("lo", "hi"):
        assert (decoded[field] is None) == (message[field] is None)
    _assert_every_strict_prefix_is_a_protocol_error(
        binproto.decode_request, payload
    )


@settings(max_examples=150, deadline=None)
@given(_rows_response)
def test_rows_form_round_trips_and_rejects_every_truncation(response):
    payload = binproto.encode_response(response)
    assert payload[0] == binproto.ST_ROWS
    assert binproto.decode_response(payload) == response
    _assert_every_strict_prefix_is_a_protocol_error(
        binproto.decode_response, payload
    )


def _rows_payload(head: bytes, count: int, rows: bytes) -> bytes:
    return (
        bytes([binproto.ST_ROWS])
        + struct.pack(">I", len(head)) + head
        + struct.pack(">I", count) + rows
    )


def test_malformed_rows_are_protocol_errors():
    row = struct.pack(">I", 1) + b"k" + struct.pack(">I", 1) + b"v"
    assert binproto.decode_response(_rows_payload(b"{}", 1, row)) == {
        "items": [(b"k", b"v")]
    }
    for payload, match in (
        (_rows_payload(b"{}", 1, row[:-1]), "truncated"),
        (_rows_payload(b"{}", 2, row), "cannot fit"),
        (_rows_payload(b"{}", 2**32 - 1, row), "cannot fit"),
        (_rows_payload(b"{}", 1, row + b"x"), "trailing"),
        (_rows_payload(b"[]", 0, b""), "object"),
    ):
        with pytest.raises(ProtocolError, match=match):
            binproto.decode_response(payload)


def test_malformed_ranges_are_protocol_errors():
    head = b'{"op":"SCAN"}'
    prefix = bytes([binproto.OP_RANGE]) + struct.pack(">I", len(head)) + head
    bound = struct.pack(">I", 1) + b"a"
    assert binproto.decode_request(prefix + b"\x01" + bound) == {
        "op": "SCAN", "lo": b"a", "hi": None
    }
    for payload, match in (
        (prefix + b"\x05" + bound, "unknown range flags 0x05"),
        (prefix + b"\x80", "unknown range flags 0x80"),
        (prefix + b"\x03" + bound, "truncated"),
        (prefix + b"\x01" + bound + b"x", "trailing"),
        (prefix, "truncated"),
    ):
        with pytest.raises(ProtocolError, match=match):
            binproto.decode_request(payload)


def test_text_bounds_and_rows_ride_the_envelope():
    # Not raw bytes, so not the raw forms: the envelope carries them,
    # and the server refuses text bounds (tests/test_server_protocol.py).
    message = {"op": "SCAN", "lo": "YQ==", "hi": None, "limit": None}
    assert binproto.encode_request(message)[0] == binproto.OP_JSON
    response = {"ok": True, "items": [["YQ==", "MQ=="]]}
    assert binproto.encode_response(response)[0] == binproto.ST_JSON


def test_other_verbs_ride_the_json_envelope():
    payload = binproto.encode_request({"op": "STATS"})
    assert payload[0] == binproto.OP_JSON
    assert binproto.decode_request(payload) == {"op": "STATS"}


def test_encoding_a_hot_verb_with_text_fields_is_a_protocol_error():
    with pytest.raises(ProtocolError):
        binproto.encode_request({"op": "PUT", "key": "aw==", "value": b"v"})
    with pytest.raises(ProtocolError):
        binproto.encode_request({"op": "BATCH", "ops": [["put", "a", "b"]]})


def test_trailing_bytes_rejected():
    payload = binproto.encode_request({"op": "GET", "key": b"k"})
    with pytest.raises(ProtocolError, match="trailing"):
        binproto.decode_request(payload + b"x")


def test_unknown_opcode_and_status_rejected():
    with pytest.raises(ProtocolError):
        binproto.decode_request(b"\x7f")
    with pytest.raises(ProtocolError):
        binproto.decode_response(b"\x7f")


def test_envelope_must_be_a_json_object():
    for body in (b"\xff\xfe\x00\x01", b"[]", b"{"):
        with pytest.raises(ProtocolError):
            binproto.decode_request(bytes([binproto.OP_JSON]) + body)
        with pytest.raises(ProtocolError):
            binproto.decode_response(bytes([binproto.ST_JSON]) + body)


def test_error_response_keeps_every_field():
    error = {"ok": False, "error": "DATA_CORRUPT", "detail": "run-0003"}
    payload = binproto.encode_response(error)
    assert payload[0] == binproto.ST_JSON
    assert binproto.decode_response(payload) == error


# -- framing --------------------------------------------------------------


def _feed(chunks: list[bytes]) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    for chunk in chunks:
        reader.feed_data(chunk)
    reader.feed_eof()
    return reader


def test_frame_length_prefix_is_big_endian_u32():
    frame = binproto.encode_frame(b"payload")
    assert struct.unpack(">I", frame[:4]) == (len(frame) - 4,)


def test_oversized_frame_rejected_on_encode():
    with pytest.raises(ProtocolError):
        binproto.encode_frame(b"x" * (binproto.MAX_FRAME_BYTES + 1))


def test_read_frame_round_trip_and_clean_eof():
    async def scenario():
        frame = binproto.encode_frame(b"\x00{}")
        reader = _feed([frame, frame])
        return [await binproto.read_frame(reader) for _ in range(3)]

    # The third read is a clean EOF between frames.
    assert asyncio.run(scenario()) == [b"\x00{}", b"\x00{}", None]


def test_read_frame_mid_frame_eof_is_protocol_error():
    async def scenario(cut):
        await binproto.read_frame(_feed([binproto.encode_frame(b"abc")[:cut]]))

    for cut in (2, 6):  # inside the length prefix, inside the payload
        with pytest.raises(ProtocolError):
            asyncio.run(scenario(cut))


def test_read_frame_rejects_giant_declared_length():
    async def scenario():
        header = struct.pack(">I", binproto.MAX_FRAME_BYTES + 1)
        await binproto.read_frame(_feed([header]))

    with pytest.raises(ProtocolError):
        asyncio.run(scenario())


# -- serving --------------------------------------------------------------


async def _with_server(tmp_path, scenario):
    with LSMStore.open(str(tmp_path), StoreOptions()) as store:
        async with KVServer(store, host="127.0.0.1", port=0) as server:
            return await scenario(server)


def test_wire_keyword_is_a_checked_constant(tmp_path):
    with pytest.raises(ConfigurationError):
        KVClient("127.0.0.1", 1, wire="json")
    with pytest.raises(ConfigurationError):
        LocalCluster(str(tmp_path / "cluster"), wire="json")
    with LSMStore.open(str(tmp_path / "db"), StoreOptions()) as store:
        with pytest.raises(ConfigurationError):
            KVServer(store, wire="json")
        KVServer(store, wire="binary")


def test_client_drives_every_hot_verb(tmp_path):
    async def scenario(server):
        async with KVClient(*server.address) as client:
            await client.put(b"k", b"v")
            assert await client.get(b"k") == b"v"
            assert await client.get(b"absent") is None
            assert await client.batch([(b"b", b"x"), (b"k", None)]) == 2
            assert await client.get(b"k") is None
            await client.delete(b"b")
            assert await client.get(b"b") is None

    asyncio.run(_with_server(tmp_path, scenario))


def test_hand_rolled_client_preamble_then_frames(tmp_path):
    async def scenario(server):
        reader, writer = await asyncio.open_connection(*server.address)
        try:
            writer.write(binproto.MAGIC_BYTE)
            await binproto.write_request(
                writer, {"op": "PUT", "key": b"k", "value": b"v"}
            )
            frame = await binproto.read_frame(reader)
            assert binproto.decode_response(frame) == {"ok": True}
            await binproto.write_request(writer, {"op": "GET", "key": b"k"})
            frame = await binproto.read_frame(reader)
            assert binproto.decode_response(frame) == {
                "ok": True, "value": b"v"
            }
        finally:
            writer.close()
            await writer.wait_closed()

    asyncio.run(_with_server(tmp_path, scenario))


def test_wrong_protocol_peer_is_closed_undispatched_and_counted_once(tmp_path):
    # A legacy framed-JSON client: its first byte is the high byte of a
    # length prefix, never the preamble.
    legacy = b'{"op":"PING"}'
    legacy_frame = struct.pack(">I", len(legacy)) + legacy

    async def scenario(server):
        reader, writer = await asyncio.open_connection(*server.address)
        try:
            writer.write(legacy_frame * 3)
            await writer.drain()
            answer = await asyncio.wait_for(reader.read(), 5.0)
        finally:
            writer.close()
            await writer.wait_closed()
        return answer, server.metrics.snapshot()

    answer, metrics = asyncio.run(_with_server(tmp_path, scenario))
    assert answer == b""  # closed without a reply
    assert metrics["requests_total"] == 0
    assert metrics["protocol_errors"] == 1


def test_hot_verb_smuggled_in_the_envelope_is_a_bad_request(tmp_path):
    async def scenario(server):
        reader, writer = await asyncio.open_connection(*server.address)

        async def exchange(payload: bytes) -> dict:
            writer.write(binproto.encode_frame(payload))
            await writer.drain()
            return binproto.decode_response(await binproto.read_frame(reader))

        try:
            writer.write(binproto.MAGIC_BYTE)
            smuggled = await exchange(
                b'\x00{"op":"PUT","key":"aw==","value":"dg=="}'
            )
            # ... and the connection is still good for a real request.
            proper = await exchange(
                binproto.encode_request(protocol.put_request(b"k", b"v"))
            )
        finally:
            writer.close()
            await writer.wait_closed()
        return smuggled, proper, server.metrics.snapshot()

    smuggled, proper, metrics = asyncio.run(_with_server(tmp_path, scenario))
    assert smuggled["ok"] is False
    assert smuggled["code"] == protocol.CODE_BAD_REQUEST
    assert proper == {"ok": True}
    assert metrics["writes_admitted"] == 1


def test_stats_and_scan_envelopes(tmp_path):
    async def scenario(server):
        async with KVClient(*server.address) as client:
            await client.put(b"a", b"1")
            await client.put(b"b", b"2")
            assert await client.stats()
            assert await client.scan() == [(b"a", b"1"), (b"b", b"2")]
            assert await client.scan(b"b", None) == [(b"b", b"2")]
            assert await client.scan(None, b"b") == [(b"a", b"1")]
            assert await client.scan(None, b"") == []

    asyncio.run(_with_server(tmp_path, scenario))


def test_a_response_too_large_to_frame_is_refused_and_the_link_kept(
    tmp_path, monkeypatch
):
    """An unbounded SCAN whose rows outgrow one frame answers a
    BAD_REQUEST that says to page, counted once, on the same
    connection — not a dropped link the client re-sends the scan on."""
    monkeypatch.setattr(binproto, "MAX_FRAME_BYTES", 4096)

    async def scenario(server):
        async with KVClient(
            *server.address, pool_size=1, max_retries=0
        ) as client:
            for index in range(64):
                await client.put(b"key-%03d" % index, b"v" * 100)
            with pytest.raises(RequestFailedError) as excinfo:
                await client.scan()
            assert excinfo.value.code == protocol.CODE_BAD_REQUEST
            assert "limit" in str(excinfo.value)
            assert len(await client.scan(limit=8)) == 8
            assert client.telemetry.reconnects == 0
        return server.metrics.snapshot()

    metrics = asyncio.run(_with_server(tmp_path, scenario))
    assert metrics["protocol_errors"] == 1
    assert metrics["connections_total"] == 1
