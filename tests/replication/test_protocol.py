"""Wire-level tests for the REPLICATE/PROMOTE verb pair."""

from __future__ import annotations

import pytest

from repro.engine import TOMBSTONE, WriteAheadLog
from repro.errors import ProtocolError
from repro.server import binproto, protocol


def test_replicate_and_promote_are_known_verbs():
    assert "REPLICATE" in protocol.VERBS
    assert "PROMOTE" in protocol.VERBS


def test_new_error_codes_exist():
    assert protocol.CODE_NOT_LEADER == "NOT_LEADER"
    assert protocol.CODE_REPLICA_GAP == "REPLICA_GAP"
    assert protocol.CODE_STALE_EPOCH == "STALE_EPOCH"


SPAN = bytes(WriteAheadLog.encode_frame([(b"k", b"v"), (b"dead", TOMBSTONE)]))


def test_replicate_request_round_trip():
    message = protocol.replicate_request(
        epoch=3, lineage=2**52 + 1, start=128, span=SPAN
    )
    # survives framing like any other message — as the log's own bytes,
    # not as text
    encoded = binproto.encode_request(message)
    assert encoded[0] == binproto.OP_REPLICATE
    assert encoded.endswith(SPAN)
    decoded = binproto.decode_request(encoded)
    assert decoded == message
    payload = protocol.replicate_payload(decoded)
    assert payload["epoch"] == 3
    assert payload["probe"] is False
    assert payload["lineage"] == 2**52 + 1
    assert payload["start"] == 128
    assert (payload["reset"], payload["first"], payload["final"]) == (
        False, False, False,
    )
    assert WriteAheadLog.decode_span(payload["span"]) == [
        [(b"k", b"v"), (b"dead", None)]
    ]


LAYOUT = ((1, (100,)), (0, (64, 32)))


def chunk(span=b"x" * 8, **fields):
    return protocol.reset_chunk_request(
        0, 2, 64, span,
        **dict(
            dict(layout=LAYOUT, file=0, offset=0, first=False, final=False),
            **fields,
        ),
    )


def test_replicate_reset_flag_round_trips():
    for flags in (
        dict(first=True),
        dict(),
        dict(final=True),
        dict(first=True, final=True),
    ):
        message = chunk(file=1, offset=56, **flags)
        decoded = binproto.decode_request(binproto.encode_request(message))
        assert decoded == message
        payload = protocol.replicate_payload(decoded)
        expected = dict(
            dict(reset=True, first=False, final=False),
            layout=LAYOUT, file=1, offset=56, **flags,
        )
        assert {field: payload[field] for field in expected} == expected


def test_replicate_empty_ops_is_legal():
    # An empty store has no files: its reset is one chunk of no bytes,
    # both first and final. The payload accessor must not reject it.
    message = protocol.reset_chunk_request(
        0, 1, 0, b"", layout=(), file=0, offset=0, first=True, final=True
    )
    payload = protocol.replicate_payload(
        binproto.decode_request(binproto.encode_request(message))
    )
    assert (payload["span"], payload["layout"]) == (b"", ())


@pytest.mark.parametrize(
    "fields",
    [
        dict(file=3),  # past the last file, with bytes
        dict(file=2, offset=30),  # bytes past the end of file 2
        dict(file=0, offset=93),
        dict(layout=((0, ()),)),  # a run of no files
        dict(layout=((-1, (8,)),)),
        dict(layout=((0, (8, "x")),)),
        dict(layout=((0,),)),
        dict(layout=None),
        dict(offset=-1),
        dict(file=None),
    ],
)
def test_a_chunk_outside_its_declared_image_is_refused(fields):
    message = dict(chunk(), **fields)
    with pytest.raises(ProtocolError):
        protocol.replicate_payload(message)


def test_a_reset_header_cut_short_is_a_truncated_frame():
    encoded = binproto.encode_request(chunk(span=b""))
    for cut in range(1 + 4 + 8 + 8 + 1, len(encoded)):
        with pytest.raises(ProtocolError):
            binproto.decode_request(encoded[:cut])


def test_replicate_header_fields_must_fit_the_wire():
    for field, value in (("epoch", -1), ("lineage", 2**64), ("start", -5)):
        message = protocol.replicate_request(
            **dict(dict(epoch=0, lineage=1, start=0, span=SPAN), **{field: value})
        )
        with pytest.raises(ProtocolError):
            binproto.encode_request(message)


def test_unknown_replicate_flags_rejected():
    encoded = bytearray(
        binproto.encode_request(
            protocol.replicate_request(epoch=0, lineage=1, start=0, span=SPAN)
        )
    )
    encoded[1 + 4 + 8 + 8] |= 0x80
    with pytest.raises(ProtocolError):
        binproto.decode_request(bytes(encoded))
    # a header cut short is a truncated frame, whatever follows
    for cut in range(1, 1 + 4 + 8 + 8 + 1):
        with pytest.raises(ProtocolError):
            binproto.decode_request(bytes(encoded[:cut]))


def test_replicate_probe_round_trip():
    message = protocol.replicate_probe_request(epoch=7)
    payload = protocol.replicate_payload(
        binproto.decode_request(binproto.encode_request(message))
    )
    assert payload["probe"] is True
    assert payload["epoch"] == 7


def test_promote_request_round_trip():
    message = protocol.promote_request(
        epoch=2, peers=[("127.0.0.1", 9001), ("127.0.0.1", 9002)]
    )
    decoded = binproto.decode_request(binproto.encode_request(message))
    epoch, peers = protocol.promote_payload(decoded)
    assert epoch == 2
    assert peers == [("127.0.0.1", 9001), ("127.0.0.1", 9002)]


def test_promote_without_peers():
    epoch, peers = protocol.promote_payload(protocol.promote_request(5))
    assert epoch == 5
    assert peers == []


def test_replicate_payload_rejects_garbage():
    with pytest.raises(ProtocolError):
        protocol.replicate_payload({"op": "REPLICATE", "epoch": "x"})
    with pytest.raises(ProtocolError):
        protocol.replicate_payload(
            {"op": "REPLICATE", "epoch": 0, "probe": False}
        )
    shipped = protocol.replicate_request(epoch=0, lineage=1, start=0, span=SPAN)
    for field, junk in (
        ("lineage", None),
        ("start", -1),
        ("start", True),
        ("span", "dGV4dA=="),
    ):
        with pytest.raises(ProtocolError):
            protocol.replicate_payload(dict(shipped, **{field: junk}))
