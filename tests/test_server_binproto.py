"""Wire tests: golden frames, codec properties, framing, and serving."""

from __future__ import annotations

import asyncio
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.router import LocalCluster
from repro.engine import LSMStore, StoreOptions, WriteAheadLog
from repro.errors import ConfigurationError, ProtocolError
from repro.server import binproto, protocol
from repro.server.client import KVClient
from repro.server.service import KVServer

# -- golden frames --------------------------------------------------------

#: Frames captured from the commit before the JSON wire was retired
#: (``encode_frame(encode_request(...))`` there): the hot verbs must
#: stay byte-identical, and bench/'s ``server.binproto.bytes_per_put``
#: is read off the PUT and ST_OK frames.
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
        "0000002e007b226f70223a225343414e222c226c6f223a2259513d3d222c"
        "226869223a6e756c6c2c226c696d6974223a337d",
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
#: then the span untouched. A log span; the first chunk of a reset; an
#: empty store's whole reset (first and final, no frames); a final chunk.
GOLDEN_REPLICATE = [
    (
        protocol.replicate_request(
            3, _LINEAGE, 4096, bytes.fromhex(_WAL_FRAME)
        ),
        "0000003a" "05" "00000003" "000123456789abcd" "0000000000001000"
        "00" + _WAL_FRAME,
    ),
    (
        protocol.replicate_request(
            3, _LINEAGE, 8192, bytes.fromhex(_WAL_FRAME),
            reset=True, first=True,
        ),
        "0000003a" "05" "00000003" "000123456789abcd" "0000000000002000"
        "03" + _WAL_FRAME,
    ),
    (
        protocol.replicate_request(
            3, _LINEAGE, 8192, b"", reset=True, first=True, final=True
        ),
        "00000016" "05" "00000003" "000123456789abcd" "0000000000002000"
        "07",
    ),
    (
        protocol.replicate_request(
            3, _LINEAGE, 8192, bytes.fromhex(_WAL_FRAME),
            reset=True, final=True,
        ),
        "0000003a" "05" "00000003" "000123456789abcd" "0000000000002000"
        "05" + _WAL_FRAME,
    ),
]


@pytest.mark.parametrize(("message", "frame"), GOLDEN_REPLICATE)
def test_replicate_frames_are_byte_identical(message, frame):
    encoded = binproto.encode_frame(binproto.encode_request(message))
    assert encoded.hex() == frame
    assert binproto.decode_request(encoded[4:]) == message
    assert WriteAheadLog.decode_span(message["span"]) == (
        [[(b"\x00k", b"\xffval"), (b"gone", None)]] if message["span"] else []
    )


@pytest.mark.parametrize(("message", "frame"), GOLDEN_REQUESTS)
def test_request_frames_are_byte_identical(message, frame):
    encoded = binproto.encode_frame(binproto.encode_request(message))
    assert encoded.hex() == frame
    assert binproto.decode_request(encoded[4:]) == message


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

    asyncio.run(_with_server(tmp_path, scenario))
