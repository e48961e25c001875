"""Tests for the YCSB-style record generator."""

import pytest

from repro.errors import ConfigurationError
from repro.workloads import (
    RecordGenerator,
    UniformKeys,
    ZipfianKeys,
    encode_key,
)


def decode_key(encoded: bytes) -> int:
    return int(encoded.removeprefix(b"user"))


class TestKeyEncoding:
    def test_roundtrip(self):
        for key in (0, 1, 999_999, 10**11):
            assert encode_key(key) == b"user%012d" % key
            assert decode_key(encode_key(key)) == key

    def test_lexicographic_order_matches_numeric(self):
        keys = [encode_key(k) for k in (0, 5, 42, 1000, 99_999)]
        assert keys == sorted(keys)

    def test_negative_key_rejected(self):
        with pytest.raises(ConfigurationError):
            encode_key(-1)


class TestRecordGenerator:
    def test_batch_size_and_value_size(self):
        gen = RecordGenerator(UniformKeys(1000), value_size=256)
        records = gen.batch(50)
        assert len(records) == 50
        assert all(len(r.value) == 256 for r in records)

    def test_deterministic_given_seed(self):
        first = RecordGenerator(ZipfianKeys(1000), seed=9).batch(20)
        second = RecordGenerator(ZipfianKeys(1000), seed=9).batch(20)
        assert [r.key for r in first] == [r.key for r in second]

    def test_secondary_fields_generated(self):
        gen = RecordGenerator(UniformKeys(1000), secondary_fields=2)
        records = gen.batch(10)
        assert all(len(r.secondary) == 2 for r in records)
        assert all(0 <= v < 1000 for r in records for v in r.secondary)

    def test_no_secondary_fields_by_default(self):
        gen = RecordGenerator(UniformKeys(1000))
        assert gen.batch(1)[0].secondary == ()

    def test_load_sequence_covers_every_key_once(self):
        gen = RecordGenerator(UniformKeys(100))
        records = gen.load_sequence(100)
        keys = sorted(decode_key(r.key) for r in records)
        assert keys == list(range(100))

    def test_load_sequence_is_shuffled(self):
        gen = RecordGenerator(UniformKeys(1000), seed=3)
        records = gen.load_sequence(1000)
        keys = [decode_key(r.key) for r in records]
        assert keys != sorted(keys)

    def test_value_embeds_key_for_verification(self):
        gen = RecordGenerator(UniformKeys(10), value_size=64)
        record = gen.batch(1)[0]
        assert str(decode_key(record.key)).encode() in record.value

    def test_invalid_value_size(self):
        with pytest.raises(ConfigurationError):
            RecordGenerator(UniformKeys(10), value_size=0)
