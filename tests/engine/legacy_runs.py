"""Version-1 run files, built as bytes.

The engine reads format version 1 (``LSMRUN01``: raw entry payloads with
no per-block header, a meta block without the version keys) but no
longer writes it, so the tests that need such a file lay it out here,
byte for byte as a pre-overhaul engine left it on disk.
"""

from __future__ import annotations

import json
import struct
import zlib

from repro.engine.bloom import BloomFilter

_LEN = struct.Struct("<I")
_ENTRY_HEADER = struct.Struct("<II")
_INDEX_ENTRY = struct.Struct("<QI")
_FOOTER = struct.Struct("<QIQIQI8s")
_TOMBSTONE_LEN = 0xFFFFFFFF


def _with_crc(payload: bytes) -> bytes:
    return payload + _LEN.pack(zlib.crc32(payload) & 0xFFFFFFFF)


def write_v1_run(path, entries, block_bytes: int = 4096) -> str:
    """Write ``entries`` (ascending keys; a None value is a tombstone)
    as a version-1 run at ``path``; returns the path as a string."""
    entries = list(entries)
    out = bytearray()
    index = bytearray()
    block = bytearray()
    first_key = None

    def close_block() -> None:
        nonlocal first_key
        stored = _with_crc(bytes(block))
        index.extend(_LEN.pack(len(first_key)) + first_key)
        index.extend(_INDEX_ENTRY.pack(len(out), len(stored)))
        out.extend(stored)
        block.clear()
        first_key = None

    for key, value in entries:
        if first_key is None:
            first_key = key
        if value is None:
            block += _ENTRY_HEADER.pack(len(key), _TOMBSTONE_LEN) + key
        else:
            block += _ENTRY_HEADER.pack(len(key), len(value)) + key + value
        if len(block) >= block_bytes:
            close_block()
    if block:
        close_block()
    data_bytes = len(out)

    bloom = BloomFilter(max(len(entries), 1024), 10)
    bloom.add_many([key for key, _ in entries])
    meta = {
        "entries": len(entries),
        "tombstones": sum(value is None for _, value in entries),
        "data_bytes": data_bytes,
        "min_key": (entries[0][0] if entries else b"").hex(),
        "max_key": (entries[-1][0] if entries else b"").hex(),
    }
    spans = []
    for payload in (
        bytes(index), bloom.to_bytes(), json.dumps(meta).encode("utf-8")
    ):
        spans += [len(out), len(payload) + _LEN.size]
        out.extend(_with_crc(payload))
    out.extend(_FOOTER.pack(*spans, b"LSMRUN01"))
    with open(path, "wb") as handle:
        handle.write(out)
    return str(path)
