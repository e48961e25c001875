"""Tests for the Bloom filter."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import BloomFilter
from repro.engine.bloom import BATCH_KEYS, PartitionedBloom
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
        filt = BloomFilter(expected_keys=1000, bits_per_key=10)
        for i in range(1000):
            filt.add(str(i).encode())
        assert 0.001 < filt.expected_false_positive_rate() < 0.05

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


def _filter_of(keys):
    filt = BloomFilter(len(keys), 10)
    filt.add_many(keys)
    return filt


def partitioned_blob(partitions):
    """A ``BLP1`` blob as run files written by appending merges hold
    one: magic and count, then each first key and ``BLM1`` blob behind
    a u32 length. Nothing in the engine writes one any more."""
    parts = [b"BLP1", struct.pack("<I", len(partitions))]
    for first_key, filt in partitions:
        blob = filt.to_bytes()
        parts += [struct.pack("<I", len(first_key)), first_key]
        parts += [struct.pack("<I", len(blob)), blob]
    return b"".join(parts)


class TestPartitioned:
    """The filter of a run file whose inputs were appended: theirs, end
    to end, one per key range — read, never written."""

    def ranges(self):
        return [
            (b"a", [b"a%03d" % i for i in range(200)]),
            (b"m", [b"m%03d" % i for i in range(200)]),
            (b"t", [b"t%03d" % i for i in range(200)]),
        ]

    def loaded(self):
        return PartitionedBloom.from_bytes(
            partitioned_blob(
                [(lo, _filter_of(keys)) for lo, keys in self.ranges()]
            )
        )

    def test_a_probe_asks_the_filter_of_its_range(self):
        ranges = self.ranges()
        filt = self.loaded()
        assert len(filt) == 3
        assert all(filt.might_contain(k) for _, keys in ranges for k in keys)
        # Below the first range nothing is asked; in the gaps, the
        # filter before the gap answers.
        assert not filt.might_contain(b"0")
        hits = sum(filt.might_contain(b"p%05d" % i) for i in range(5000))
        assert hits / 5000 < 0.03

    def test_a_stored_blob_probes_as_its_partitions(self):
        filters = [(lo, _filter_of(keys)) for lo, keys in self.ranges()]
        filt = self.loaded()
        assert filt.bit_size == sum(f.bit_size for _, f in filters)
        probes = [
            c + b"%03d" % i for c in (b"a", b"m", b"t", b"z") for i in range(300)
        ]
        owner = {b"a": 0, b"m": 1, b"t": 2, b"z": 2}
        assert [filt.might_contain(k) for k in probes] == [
            filters[owner[k[:1]]][1].might_contain(k) for k in probes
        ]

    @pytest.mark.parametrize(
        "damage", ["magic", "truncated", "trailing", "order", "inner"]
    )
    def test_a_damaged_blob_is_rejected(self, damage):
        ranges = self.ranges()
        blob = bytearray(
            partitioned_blob([(lo, _filter_of(ks)) for lo, ks in ranges])
        )
        if damage == "magic":
            blob[0] ^= 0xFF
        elif damage == "truncated":
            del blob[-1]
        elif damage == "trailing":
            blob += b"\0"
        elif damage == "order":  # the second range's first key: b"m" -> b"\0"
            blob[blob.index(b"\x01\x00\x00\x00m") + 4] = 0
        else:  # the first partition's BLM1 magic
            blob[blob.index(b"BLM1")] = 0
        with pytest.raises(CorruptionError):
            PartitionedBloom.from_bytes(bytes(blob))
