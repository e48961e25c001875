"""Wire-level tests for the REPLICATE/PROMOTE verb pair."""

from __future__ import annotations

import pytest

from repro.engine import TOMBSTONE
from repro.errors import ProtocolError
from repro.server import binproto, protocol


def test_replicate_and_promote_are_known_verbs():
    assert "REPLICATE" in protocol.VERBS
    assert "PROMOTE" in protocol.VERBS


def test_new_error_codes_exist():
    assert protocol.CODE_NOT_LEADER == "NOT_LEADER"
    assert protocol.CODE_REPLICA_GAP == "REPLICA_GAP"
    assert protocol.CODE_STALE_EPOCH == "STALE_EPOCH"


def test_replicate_request_round_trip():
    message = protocol.replicate_request(
        epoch=3,
        generation=1,
        start=128,
        end=256,
        ops=[(b"k", b"v"), (b"dead", TOMBSTONE)],
    )
    # survives framing like any other message
    decoded = binproto.decode_request(binproto.encode_request(message))
    payload = protocol.replicate_payload(decoded)
    assert payload["epoch"] == 3
    assert payload["probe"] is False
    assert payload["generation"] == 1
    assert (payload["start"], payload["end"]) == (128, 256)
    assert payload["reset"] is False
    assert payload["ops"] == [(b"k", b"v"), (b"dead", None)]


def test_replicate_reset_flag_round_trips():
    message = protocol.replicate_request(
        epoch=0, generation=2, start=0, end=64,
        ops=[(b"a", b"1")], reset=True,
    )
    assert protocol.replicate_payload(message)["reset"] is True


def test_replicate_empty_ops_is_legal():
    # Unlike BATCH, a shipped frame may carry zero ops (pure cursor
    # advance); the payload accessor must not reject it.
    message = protocol.replicate_request(
        epoch=0, generation=0, start=0, end=0, ops=[]
    )
    assert protocol.replicate_payload(message)["ops"] == []


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
