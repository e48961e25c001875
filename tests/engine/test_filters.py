"""Tests for the one point-filter kind, as a run file loads it."""

import struct
import zlib

import pytest

from repro.engine import SSTableReader, StoreOptions
from repro.errors import ConfigurationError, CorruptionError

_FOOTER = struct.Struct("<QIQIQI8s")


def run_with_filter_blob(blob: bytes) -> bytes:
    """A current footer over an empty index and ``blob`` as the filter
    block, both behind valid CRCs: only the blob itself is bad."""
    index = struct.pack("<I", zlib.crc32(b""))
    filt = blob + struct.pack("<I", zlib.crc32(blob))
    return index + filt + _FOOTER.pack(
        0, len(index), len(index), len(filt), len(index) + len(filt), 0,
        b"LSMRUN02",
    )


class TestRegistry:
    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            StoreOptions(filter_kind="xor")
        assert StoreOptions(filter_kind="bloom").filter_kind == "bloom"
        assert list(tmp_path.iterdir()) == []

    def test_load_rejects_truncated_blob(self, tmp_path):
        run = tmp_path / "1.run"
        run.write_bytes(run_with_filter_blob(b"BL"))
        with pytest.raises(CorruptionError, match="truncated"):
            SSTableReader(str(run))
