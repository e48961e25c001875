"""Tests for the Bloom filter."""

import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import BloomFilter
from repro.engine.bloom import BATCH_KEYS
from repro.errors import ConfigurationError, CorruptionError


class TestMembership:
    def test_no_false_negatives(self):
        filt = BloomFilter(expected_keys=1000)
        inserted = [f"key{i}".encode() for i in range(1000)]
        for key in inserted:
            filt.add(key)
        assert all(filt.might_contain(key) for key in inserted)

    def test_false_positive_rate_near_target(self):
        filt = BloomFilter(expected_keys=10_000, bits_per_key=10)
        for i in range(10_000):
            filt.add(f"key{i}".encode())
        false_positives = sum(
            filt.might_contain(f"absent{i}".encode()) for i in range(10_000)
        )
        # 10 bits/key targets ~1%; allow generous slack
        assert false_positives / 10_000 < 0.03

    def test_expected_fpr_analytic(self):
        """The measured rate is the analytic (1 - e^(-kn/m))^k of the
        filter's own size and probe count, within sampling noise."""
        filt = BloomFilter(expected_keys=1000, bits_per_key=10)
        for i in range(1000):
            filt.add(str(i).encode())
        fill = 1.0 - math.exp(-filt.hash_count * filt.added / filt.bit_size)
        analytic = fill**filt.hash_count
        probes = 20_000
        measured = sum(
            filt.might_contain(f"absent{i}".encode()) for i in range(probes)
        )
        assert analytic / 2 < measured / probes < analytic * 2

    def test_empty_filter_rejects_everything_statistically(self):
        filt = BloomFilter(expected_keys=100)
        hits = sum(filt.might_contain(f"x{i}".encode()) for i in range(1000))
        assert hits == 0


class TestSerialization:
    def test_roundtrip(self):
        filt = BloomFilter(expected_keys=500, bits_per_key=12)
        for i in range(500):
            filt.add(f"k{i}".encode())
        restored = BloomFilter.from_bytes(filt.to_bytes())
        assert restored.bit_size == filt.bit_size
        assert restored.hash_count == filt.hash_count
        assert all(restored.might_contain(f"k{i}".encode()) for i in range(500))

    def test_truncated_blob_rejected(self):
        with pytest.raises(CorruptionError):
            BloomFilter.from_bytes(b"BL")

    @pytest.mark.parametrize("magic", [b"XXXX", b"CKF1", b"BLP1"])
    def test_unknown_magic_rejected(self, magic):
        # Any magic but BLM1 — a cuckoo filter's, or the partitioned
        # one a store is refused for before its filters load — is not
        # a Bloom filter.
        with pytest.raises(CorruptionError):
            BloomFilter.from_bytes(magic + b"\x00" * 32)

    def test_bad_magic_rejected(self):
        filt = BloomFilter(expected_keys=10)
        blob = bytearray(filt.to_bytes())
        blob[0] = 0
        with pytest.raises(CorruptionError):
            BloomFilter.from_bytes(bytes(blob))

    def test_size_mismatch_rejected(self):
        filt = BloomFilter(expected_keys=10)
        with pytest.raises(CorruptionError):
            BloomFilter.from_bytes(filt.to_bytes() + b"extra")

    def test_zero_bit_count_rejected(self):
        # bits=0 passes the body-size check (0 bits needs 0 bytes) but
        # would turn every later probe into a modulo-by-zero crash.
        blob = struct.pack("<4sIIQ", b"BLM1", 0, 3, 0)
        with pytest.raises(CorruptionError):
            BloomFilter.from_bytes(blob)

    def test_zero_hash_count_rejected(self):
        # hashes=0 deserializes into a filter that never excludes
        # anything — silently disabling the filter is corruption too.
        blob = struct.pack("<4sIIQ", b"BLM1", 64, 0, 0) + bytes(8)
        with pytest.raises(CorruptionError):
            BloomFilter.from_bytes(blob)


class TestValidation:
    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            BloomFilter(expected_keys=-1)
        with pytest.raises(ConfigurationError):
            BloomFilter(expected_keys=10, bits_per_key=0)


class TestBulkBuild:
    """``add_many`` is the vectorized build; ``add`` is its reference."""

    @pytest.mark.parametrize("count", [0, 1, 7, BATCH_KEYS, BATCH_KEYS + 1, 20_000])
    @pytest.mark.parametrize("bits_per_key", [1, 10, 16])
    def test_add_many_blob_equals_per_key_blob(self, count, bits_per_key):
        keys = [f"key-{i:09d}".encode() for i in range(count)]
        one_by_one = BloomFilter(count, bits_per_key)
        for key in keys:
            one_by_one.add(key)
        bulk = BloomFilter(count, bits_per_key)
        bulk.add_many(keys)
        assert bulk.to_bytes() == one_by_one.to_bytes()
        assert bulk.added == count

    @pytest.mark.parametrize("bits_per_key", [1, 10, 16])
    def test_feed_sized_calls_equal_per_key_blob(self, bits_per_key):
        """A run writer calls ``add_many`` once per ``feed_keys`` keys:
        ``BATCH_KEYS`` for a small filter, one key per 64 bits for a
        large one. The blob is the per-key one however keys are cut."""
        count = 40_000
        keys = [f"key-{i:09d}".encode() for i in range(count)]
        one_by_one = BloomFilter(count, bits_per_key)
        for key in keys:
            one_by_one.add(key)
        fed = BloomFilter(count, bits_per_key)
        step = fed.feed_keys
        assert step == max(BATCH_KEYS, count * bits_per_key // 64)
        for start in range(0, count, step):
            fed.add_many(keys[start : start + step])
        assert fed.to_bytes() == one_by_one.to_bytes()
        assert fed.added == count

    def test_add_many_continues_a_partly_built_filter(self):
        keys = [f"key-{i:05d}".encode() for i in range(500)]
        reference = BloomFilter(500)
        for key in keys:
            reference.add(key)
        mixed = BloomFilter(500)
        mixed.add_many(keys[:200])
        mixed.add(keys[200])
        mixed.add_many(keys[201:])
        assert mixed.to_bytes() == reference.to_bytes()


class TestPropertyBased:
    @given(
        st.lists(st.binary(min_size=1, max_size=32), max_size=200),
        st.integers(1, 24),
        st.integers(0, 400),
    )
    @settings(max_examples=50, deadline=None)
    def test_add_many_matches_add(self, key_list, bits_per_key, expected):
        one_by_one = BloomFilter(expected, bits_per_key)
        for key in key_list:
            one_by_one.add(key)
        bulk = BloomFilter(expected, bits_per_key)
        bulk.add_many(key_list)
        assert bulk.to_bytes() == one_by_one.to_bytes()

    @given(st.lists(st.binary(min_size=1, max_size=32), min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_never_false_negative(self, key_list):
        filt = BloomFilter(expected_keys=len(key_list))
        for key in key_list:
            filt.add(key)
        assert all(filt.might_contain(key) for key in key_list)

    @given(st.lists(st.binary(min_size=1, max_size=32), min_size=1, max_size=50))
    @settings(max_examples=20, deadline=None)
    def test_serialization_preserves_membership(self, key_list):
        filt = BloomFilter(expected_keys=len(key_list))
        for key in key_list:
            filt.add(key)
        restored = BloomFilter.from_bytes(filt.to_bytes())
        assert all(restored.might_contain(key) for key in key_list)

