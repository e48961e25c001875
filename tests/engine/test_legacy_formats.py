"""A store holding a format no writer produces any more is refused.

Three legacy markers each name themselves in their own bytes: a run
file's footer magic ``LSMRUN01``, a filter blob's magic ``BLP1`` and a
manifest line's ``op`` of ``add`` or ``remove``. ``LSMStore.open``
raises :class:`ConfigurationError` naming the last commit that reads
them, and leaves the directory exactly as it found it: no quarantine
entry, no orphan swept, no log position voided, no handle left open.
Any other bad footer magic is corruption, as before.
"""

from __future__ import annotations

import json
import os
import struct
import zlib

import pytest

from repro.engine import LSMStore, SSTableReader
from repro.errors import ConfigurationError, CorruptionError

_FOOTER = struct.Struct("<QIQIQI8s")


def crc(payload: bytes) -> bytes:
    return struct.pack("<I", zlib.crc32(payload))


def footer_only(magic: bytes) -> bytes:
    """A run file that is nothing but a footer: its magic is read first."""
    return _FOOTER.pack(0, 0, 0, 0, 0, 0, magic)


def partitioned_filter_run() -> bytes:
    """A current footer over an empty index and a ``BLP1`` filter (no
    partitions), both behind valid CRCs."""
    index = crc(b"")
    blob = b"BLP1" + struct.pack("<I", 0)
    filt = blob + crc(blob)
    return index + filt + _FOOTER.pack(
        0, len(index), len(index), len(filt), len(index) + len(filt), 0,
        b"LSMRUN02",
    )


def manifest(*edits) -> bytes:
    return "".join(json.dumps(edit) + "\n" for edit in edits).encode()


#: A clean close's last line: a position the next open would void.
POSITION = {"op": "position", "lineage": 5, "wal_base": 0, "upstream": None}
#: Two runs: the older one corrupt, which recovery would quarantine
#: (writing the registry) had the newer one not refused the open.
EDIT = {
    "op": "edit",
    "add": [
        {"run_id": 1, "level": 0, "files": ["1.run"], "sequence": 1},
        {"run_id": 2, "level": 0, "files": ["2.run"], "sequence": 2},
    ],
    "remove": [],
}
CORRUPT = footer_only(b"XXXXXXXX")

CASES = {
    "LSMRUN01": {
        "MANIFEST": manifest(EDIT, POSITION),
        "1.run": CORRUPT,
        "2.run": footer_only(b"LSMRUN01"),
    },
    "BLP1": {
        "MANIFEST": manifest(EDIT, POSITION),
        "1.run": CORRUPT,
        "2.run": partitioned_filter_run(),
    },
    "add": {
        "MANIFEST": manifest(
            {"op": "add", "run_id": 1, "level": 0, "filename": "1.run",
             "sequence": 1},
            POSITION,
        ),
        "1.run": partitioned_filter_run(),
    },
}


def snapshot(directory) -> dict[str, bytes]:
    return {
        name: (directory / name).read_bytes()
        for name in sorted(os.listdir(directory))
    }


def open_descriptors() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.parametrize("marker", list(CASES))
def test_a_legacy_store_is_refused_and_left_untouched(tmp_path, marker):
    for name, data in CASES[marker].items():
        (tmp_path / name).write_bytes(data)
    # A file no record names: an open that got as far as recovery's
    # orphan sweep would delete it.
    (tmp_path / "9.run").write_bytes(b"orphan")
    before = snapshot(tmp_path)
    descriptors = open_descriptors() if os.path.isdir("/proc/self/fd") else 0
    with pytest.raises(ConfigurationError) as excinfo:
        LSMStore.open(str(tmp_path))
    message = str(excinfo.value)
    assert marker in message and "ed47c64" in message
    assert snapshot(tmp_path) == before
    if descriptors:
        assert open_descriptors() == descriptors


@pytest.mark.parametrize(
    "magic, error",
    [
        (b"LSMRUN01", ConfigurationError),
        (b"LSMRUN03", CorruptionError),
        (b"\0" * 8, CorruptionError),
    ],
    ids=["legacy", "unknown", "zeroed"],
)
def test_only_the_legacy_footer_is_refused_rather_than_corrupt(
    tmp_path, magic, error
):
    path = tmp_path / "x.run"
    path.write_bytes(footer_only(magic))
    with pytest.raises(error):
        SSTableReader(str(path))
