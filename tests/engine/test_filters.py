"""Tests for the point-filter protocol and its registry."""

import pytest

from repro.engine import filters
from repro.engine.bloom import BloomFilter
from repro.engine.filters import (
    FilterSpec,
    PointFilter,
    available_filters,
    build_filter,
    filter_kind_of,
    load_filter,
    register_filter,
)
from repro.errors import ConfigurationError, CorruptionError


class TestRegistry:
    def test_builtins_registered(self):
        assert available_filters() == ("bloom",)

    def test_build_returns_protocol_instances(self):
        for kind in available_filters():
            filt = build_filter(kind, 1000, 10)
            assert isinstance(filt, PointFilter)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            build_filter("xor", 1000, 10)

    def test_load_dispatches_on_magic(self):
        bloom = build_filter("bloom", 100, 10)
        bloom.add(b"present")
        assert isinstance(load_filter(bloom.to_bytes()), BloomFilter)
        assert load_filter(bloom.to_bytes()).might_contain(b"present")

    def test_filter_kind_of(self):
        assert filter_kind_of(build_filter("bloom", 10, 10)) == "bloom"

    def test_load_rejects_unknown_magic(self):
        with pytest.raises(CorruptionError):
            load_filter(b"XXXX" + b"\x00" * 32)
        # So is a magic no kind registers any more (a cuckoo filter's).
        with pytest.raises(CorruptionError):
            load_filter(b"CKF1" + b"\x00" * 32)

    def test_load_rejects_truncated_blob(self):
        with pytest.raises(CorruptionError):
            load_filter(b"BL")

    def test_duplicate_kind_rejected(self):
        spec = FilterSpec(
            "bloom", b"ZZZ1",
            lambda keys, bits: BloomFilter(keys, bits),
            BloomFilter.from_bytes,
        )
        with pytest.raises(ConfigurationError):
            register_filter(spec)

    def test_duplicate_magic_rejected(self):
        spec = FilterSpec(
            "bloom2", b"BLM1",
            lambda keys, bits: BloomFilter(keys, bits),
            BloomFilter.from_bytes,
        )
        with pytest.raises(ConfigurationError):
            register_filter(spec)

    def test_new_kind_registers_and_loads(self):
        class AlwaysYes:
            def add(self, key):
                pass

            def might_contain(self, key):
                return True

            def to_bytes(self):
                return b"YES1"

        spec = FilterSpec(
            "always-yes", b"YES1",
            lambda keys, bits: AlwaysYes(),
            lambda data: AlwaysYes(),
        )
        register_filter(spec)
        try:
            filt = build_filter("always-yes", 0, 1)
            assert filter_kind_of(filt) == "always-yes"
            assert load_filter(filt.to_bytes()).might_contain(b"anything")
        finally:
            filters._REGISTRY.pop("always-yes")
