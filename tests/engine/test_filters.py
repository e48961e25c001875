"""Tests for the point-filter protocol and its one kind."""

import pytest

from repro.engine import SSTableWriter, StoreOptions
from repro.engine.bloom import BloomFilter, PartitionedBloom
from repro.engine.filters import PointFilter, available_filters, load_filter
from repro.errors import ConfigurationError, CorruptionError

from .test_bloom import partitioned_blob


class TestRegistry:
    def test_builtins_registered(self):
        assert available_filters() == ("bloom",)
        assert isinstance(BloomFilter(1000, 10), PointFilter)

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            StoreOptions(filter_kind="xor")
        run = tmp_path / "x.run"
        with pytest.raises(ConfigurationError):
            SSTableWriter(str(run), filter_kind="xor")
        assert not run.exists()

    def test_load_dispatches_on_magic(self):
        bloom = BloomFilter(100, 10)
        bloom.add(b"present")
        assert isinstance(load_filter(bloom.to_bytes()), BloomFilter)
        assert load_filter(bloom.to_bytes()).might_contain(b"present")
        # An appended run file's filters, end to end: still the one kind.
        blob = partitioned_blob([(b"a", bloom), (b"q", bloom)])
        loaded = load_filter(blob)
        assert isinstance(loaded, PartitionedBloom) and len(loaded) == 2
        assert loaded.might_contain(b"present")
        assert available_filters() == ("bloom",)

    def test_load_rejects_unknown_magic(self):
        with pytest.raises(CorruptionError):
            load_filter(b"XXXX" + b"\x00" * 32)
        # So is a magic no kind has any more (a cuckoo filter's).
        with pytest.raises(CorruptionError):
            load_filter(b"CKF1" + b"\x00" * 32)

    def test_load_rejects_truncated_blob(self):
        with pytest.raises(CorruptionError):
            load_filter(b"BL")
