"""Protocol tests: payload codecs, request builders, and accessors."""

from __future__ import annotations

import pytest

from repro.errors import ProtocolError
from repro.server import protocol


# -- payload codecs ------------------------------------------------------


def test_b64_round_trip_and_junk():
    assert protocol.b64decode(protocol.b64encode(b"\x00\xffkey")) == b"\x00\xffkey"
    with pytest.raises(ProtocolError):
        protocol.b64decode("not base64!!")


# -- builders and accessors ----------------------------------------------


def test_put_request_round_trip():
    message = protocol.put_request(b"k", b"v")
    assert protocol.request_verb(message) == "PUT"
    assert protocol.request_key(message) == b"k"
    assert protocol.request_value(message) == b"v"


def test_batch_request_round_trip_mixed_ops():
    ops = [(b"a", b"1"), (b"b", None), (b"c", b"3")]
    message = protocol.batch_request(ops)
    assert protocol.request_verb(message) == "BATCH"
    assert protocol.batch_ops(message) == ops


def test_scan_request_round_trip_bounds():
    message = protocol.scan_request(b"a", b"z", 10)
    assert protocol.scan_bounds(message) == (b"a", b"z", 10)
    open_ended = protocol.scan_request()
    assert protocol.scan_bounds(open_ended) == (None, None, None)


def test_request_verb_is_case_insensitive_and_validated():
    assert protocol.request_verb({"op": "ping"}) == "PING"
    with pytest.raises(ProtocolError):
        protocol.request_verb({"op": "EXPLODE"})
    with pytest.raises(ProtocolError):
        protocol.request_verb({})


def test_missing_or_non_bytes_key_and_value_rejected():
    with pytest.raises(ProtocolError):
        protocol.request_key({"op": "GET"})
    with pytest.raises(ProtocolError):
        protocol.request_key({"op": "GET", "key": "aw=="})
    with pytest.raises(ProtocolError):
        protocol.request_value({"op": "PUT", "key": b"k"})
    with pytest.raises(ProtocolError):
        protocol.request_value({"op": "PUT", "key": b"k", "value": "dg=="})


def test_malformed_batch_entries_rejected():
    for ops in (
        [],
        [(b"k",)],
        [(b"k", b"v", b"x")],
        [["put", "aw==", "dg=="]],
        [("aw==", b"v")],
        [(b"k", "dg==")],
        [()],
        ["x"],
    ):
        with pytest.raises(ProtocolError):
            protocol.batch_ops({"op": "BATCH", "ops": ops})


def test_items_round_trip():
    items = [(b"\x00a", b"1"), (b"b", b"")]
    response = protocol.ok_response(items=protocol.encode_items(items))
    assert protocol.decode_items(response) == items
    assert protocol.decode_items(protocol.ok_response()) == []


def test_scan_limit_must_be_non_negative_int():
    with pytest.raises(ProtocolError):
        protocol.scan_bounds({"op": "SCAN", "limit": -1})
    with pytest.raises(ProtocolError):
        protocol.scan_bounds({"op": "SCAN", "limit": "ten"})


def test_error_response_carries_retry_after_only_when_given():
    bare = protocol.error_response(protocol.CODE_INTERNAL, "boom")
    assert "retry_after" not in bare and bare["ok"] is False
    hinted = protocol.error_response(
        protocol.CODE_STALLED, "busy", retry_after=0.25
    )
    assert hinted["retry_after"] == 0.25
